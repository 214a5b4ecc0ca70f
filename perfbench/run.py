#!/usr/bin/env python3
"""oaforge benchmark: one seeded workload per process, closed loop, one client.

    python3 perfbench/run.py --workload loa_io --seed 1 --seconds 30 --trace 0

Set-up is done SETUP_ROUNDS times, each in a fresh interpreter that imports
oaforge from the checkout's src/ and writes the workload's inputs; setup_s is
the median.  The measured phase then plays the workload's deck of operations,
shuffled anew by the seed for every pass, until --seconds have passed and at
least MIN_DECKS decks are played.  Every output is checked outside the timed
region: emitted files against pinned SHA-256 digests, loa_io verdicts against
the verdict each input was built to get.

Latencies are reported at the reference speed (speed.py): a probe times a
fixed reference kernel every 0.1 s, also in the middle of an operation, and
each latency is divided by the slowdown the probe saw while it ran, after
the probe's own time is taken out of it.  Each entry of the deck is then
taken at its mean latency over the run, however many times the run played
it.  The unscaled figures are printed beside the metrics.

With --trace 1 the measured phase runs with spans around every covered
library function and the run reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("loa_io", "linear_field", "compose_recipes")

SETUP_ROUNDS = 5
SETUP_PROBE_INTERVAL_S = 0.02  # a set-up round lasts 0.1 to 1 s
MIN_DECKS = 2  # every operation of the deck is timed at least this often
TAIL_PERCENT = 90


def import_library():
    """Import oaforge from this checkout's sources, never an installed copy."""
    if not (SRC / "oaforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no oaforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import oaforge

    if not Path(oaforge.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported oaforge from {oaforge.__file__}, not {SRC}")


def _memory_release():
    """A function that hands freed heap memory back to the system (glibc's
    malloc_trim), so that each operation starts from a heap much like a
    fresh CLI process's; a no-op without glibc."""
    try:
        return functools.partial(ctypes.CDLL(None).malloc_trim, 0)
    except AttributeError:  # not glibc
        return lambda: None


# -- operations and decks ------------------------------------------------------------


@dataclass
class Card:
    """One operation of a deck."""

    group: str  # the deck entry it plays; its latencies are pooled by this
    label: str
    run: object  # () -> outcome
    check: object  # (outcome) -> None, raises WrongOutput on a wrong output
    input_key: object  # equal keys mean equal inputs (repeat_share)
    kind: str = ""  # mutation kind; "" for a clean input


@dataclass
class Phase:
    groups: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # (start, end) of each op, perf_counter s
    passed_ops: list = field(default_factory=list)  # whether each op passed its gate
    failures: list = field(default_factory=list)  # unexpected: the run is incorrect
    known: list = field(default_factory=list)  # failures of a known defect (KNOWN_DEFECTS)
    repeats: int = 0
    decks: int = 0  # complete decks
    probe: object = None  # speed.Probe sampling the phase, or None

    @property
    def attempted(self) -> int:
        return len(self.spans)

    @property
    def passed(self) -> int:
        return self.attempted - len(self.failures) - len(self.known)

    def latencies(self) -> list:
        """Seconds each op took, the probe's samples during it taken out."""
        spent = self.probe.spent if self.probe else (lambda t0, t1: 0.0)
        return [t1 - t0 - spent(t0, t1) for t0, t1 in self.spans]

    def scaled(self) -> list:
        """Each latency at the reference speed."""
        return [lat / self.probe.slowdown(t0, t1)
                for lat, (t0, t1) in zip(self.latencies(), self.spans)]

    def per_entry(self, values, summary) -> dict:
        """Deck entry -> `summary` of its values over the run."""
        pooled = {}
        for group, value in zip(self.groups, values):
            pooled.setdefault(group, []).append(value)
        return {group: summary(xs) for group, xs in pooled.items()}

    def deck_latencies(self, latencies) -> dict:
        """Deck entry -> its mean latency over the run."""
        return self.per_entry(latencies, statistics.fmean)

    def success_rate(self) -> float:
        """The share of a deck's operations that pass: each entry's pass
        rate over the run, averaged over the entries."""
        return statistics.fmean(self.per_entry(self.passed_ops, statistics.fmean).values())


class WrongOutput(Exception):
    """An operation returned, but its output is not the expected one."""


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Bench:
    """Inputs, decks and gates of one workload run in one work directory."""

    def __init__(self, workload, seed, workdir, recipes=None, digests=None):
        import workloads as wl

        self.wl = wl
        self.name = workload
        self.workdir = workdir
        self.recipes = tuple(recipes or wl.WORKLOADS[workload])
        self.digests = digests if digests is not None else json.loads(DIGESTS.read_text())
        self.rng = random.Random(f"{workload}:{seed}")
        self.out = workdir / "out.loa"
        self.seen = set()
        self.deck_files = []
        self.decks_dealt = 0
        self.release_memory = _memory_release()

    def _digest_check(self, recipe, path):
        def check(_outcome):
            got = sha256(path)
            want = self.digests.get(recipe.key)
            if got != want:
                raise WrongOutput(f"digest {got[:12]} != pinned {str(want)[:12]}")
        return check

    def _verdict_check(self, expected):
        def check(got):
            if not self.wl.verdict_ok(expected, got):
                raise WrongOutput(f"verdict {got}, expected {expected}")
        return check

    def _gate(self, label, run, check, failures) -> bool:
        try:
            check(run())
        except Exception as exc:  # every failure is recorded, none ends the run
            failures.append(f"{label}: {type(exc).__name__}: {exc}"[:300])
            return False
        return True

    def _emitted(self, recipe) -> Path:
        return self.workdir / f"emit-{self.recipes.index(recipe)}.loa"

    def _emit_cards(self):
        cards = []
        for r in self.recipes:
            path = self._emitted(r) if self.name == "loa_io" else self.out
            cards.append(Card(r.key, r.key, lambda r=r, p=path: r.op(p),
                              self._digest_check(r, path), r.key))
        return cards

    def _verify_cards(self):
        cards = []
        for r in self.recipes:
            path = self._emitted(r)
            cards.append(Card(f"verify {r.key}", f"verify {r.key}",
                              lambda p=path: self.wl.check_loa(p),
                              self._verdict_check(("accept",)), ("verify", r.key)))
        return cards

    def _mutant_card(self, kind, tag):
        key = self.wl.MUTATION_TARGETS[kind]
        source = self._emitted(next(r for r in self.recipes if r.key == key))
        text = source.read_text(encoding="utf-8")
        mutant = self.wl.mutate(text, self.wl.LoaLayout.of(text), kind, self.rng)
        path = self.workdir / f"mutant{tag}.loa"
        path.write_text(mutant.text, encoding="utf-8")
        self.deck_files.append(path)
        label = f"verify {kind} of {key} (member {mutant.member}, line {mutant.line})"
        return Card(f"verify {kind} mutant", label, lambda: self.wl.check_loa(path),
                    self._verdict_check(mutant.expected), ("mutant", tag), kind)

    def deck_size(self) -> int:
        if self.name == "loa_io":
            return 2 * len(self.recipes) + len(self.wl.MUTATIONS)
        return len(self.recipes)

    def next_deck(self):
        """The next seeded deck, one card at a time.  loa_io plays its emit
        operations first, then writes this deck's mutated inputs from the
        files just emitted (between two operations, so untimed) and plays the
        verify operations."""
        self.decks_dealt += 1
        for path in self.deck_files:
            path.unlink()
        self.deck_files = []
        cards = self._emit_cards()
        self.rng.shuffle(cards)
        yield from cards
        if self.name == "loa_io":
            cards = self._verify_cards()
            cards += [self._mutant_card(kind, f"{self.decks_dealt}-{i}")
                      for i, kind in enumerate(self.wl.MUTATIONS)]
            self.rng.shuffle(cards)
            yield from cards

    # -- measurement ---------------------------------------------------------------

    def play(self, seconds, tracer=None, labels=None) -> Phase:
        """Decks until `seconds` have passed and at least MIN_DECKS decks are
        played; one closed-loop client."""
        phase = Phase(probe=None if tracer else speed.Probe())
        if phase.probe:
            phase.probe.start()
        try:
            self._play(phase, seconds, tracer, labels)
        finally:
            if phase.probe:
                phase.probe.stop()
        return phase

    def _play(self, phase, seconds, tracer, labels):
        start = time.perf_counter()
        while True:
            for card in self.next_deck():
                if phase.decks >= MIN_DECKS and time.perf_counter() - start >= seconds:
                    return
                # no operation pays for collecting an earlier one's garbage, and
                # peak_rss_mb depends less on which operations came before
                gc.collect()
                self.release_memory()
                if tracer is not None:
                    tracer.op = len(labels)
                    labels[tracer.op] = card.label
                error = outcome = None
                t0 = time.perf_counter()
                try:
                    outcome = card.run()
                except Exception as exc:  # a failed operation, not a benchmark crash
                    error = exc
                t1 = time.perf_counter()
                phase.spans.append((t0, t1))
                phase.groups.append(card.group)
                if card.input_key in self.seen:
                    phase.repeats += 1
                self.seen.add(card.input_key)
                if error is None:
                    ok = self._gate(card.label, lambda: outcome, card.check, phase.failures)
                else:
                    ok = False
                    known = (card.kind, type(error).__name__) in self.wl.KNOWN_DEFECTS
                    (phase.known if known else phase.failures).append(
                        f"{card.label}: {type(error).__name__}: {error}"[:300])
                phase.passed_ops.append(ok)
                if self.out.exists():
                    self.out.unlink()
            phase.decks += 1


# -- set-up ------------------------------------------------------------------------------


def write_inputs(workload, directory):
    """The workload's inputs; only compose_recipes reads files it did not write."""
    if workload == "compose_recipes":
        import workloads as wl

        wl.write_inputs(directory)


def setup_rounds(workload, workdir, rounds=SETUP_ROUNDS) -> list:
    """Set up `rounds` times, each in a fresh interpreter; the seconds of
    each, at the reference speed that the interpreter's own probe saw.  The
    last round's inputs stay in `workdir`."""
    times = []
    for i in range(rounds):
        target = workdir if i == rounds - 1 else workdir / f"setup{i}"
        target.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--setup-into", str(target)],
                              check=True, timeout=120, stdout=subprocess.PIPE, text=True)
        t1 = time.perf_counter()
        child = json.loads(done.stdout.splitlines()[-1])
        times.append((t1 - t0 - child["probe_s"]) / child["slowdown"])
        if target != workdir:
            shutil.rmtree(target)
    return times


def setup_round(workload, directory):
    """One set-up round, in its own interpreter: import oaforge and write the
    inputs while a probe samples the speed; prints the slowdown it saw and
    the seconds its samples took."""
    probe = speed.Probe(SETUP_PROBE_INTERVAL_S)
    probe.start()
    try:
        import_library()
        write_inputs(workload, directory)
    finally:
        probe.stop()
    print(json.dumps({"slowdown": speed.slowdown_around(probe.seconds),
                      "probe_s": sum(probe.seconds)}))


# -- metrics -----------------------------------------------------------------------------


def deck_metrics(phase, latencies) -> dict:
    """ops_per_s, op_p50_s and op_tail_s of a deck whose entries take their
    mean latency over the run; each entry appears once in a deck."""
    values = list(phase.deck_latencies(latencies).values())
    return {
        "ops_per_s": len(values) * phase.success_rate() / sum(values),
        "op_p50_s": statistics.median(values),
        "op_tail_s": statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENT - 1],
    }


def neighbours(per_entry, value) -> str:
    """The deck entries whose latencies lie on either side of `value`."""
    below = max(((v, g) for g, v in per_entry.items() if v <= value), default=(0, "-"))
    above = min(((v, g) for g, v in per_entry.items() if v >= value), default=(0, "-"))
    return below[1] if below[1] == above[1] else f"{below[1]} and {above[1]}"


def run(workload, seed, seconds, trace, *, recipes=None, digests=None, rounds=SETUP_ROUNDS):
    """One benchmark run; returns (result JSON object, report lines)."""
    import spans

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    lines = []
    try:
        setups = setup_rounds(workload, workdir, rounds)
        bench = Bench(workload, seed, workdir, recipes, digests)
        if not trace:
            main = bench.play(seconds)
        else:
            tracer = spans.Tracer()
            labels = {}
            tracer.install()
            try:
                main = bench.play(seconds, tracer, labels)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = main.latencies()
    errors = len(main.failures) + len(main.known)
    lines.append(f"workload {workload}, seed {seed}: {main.attempted} ops, {main.decks}"
                 f" whole deck(s) of {bench.deck_size()}, {sum(raw):.3f} s in operations")
    lines.append(f"error_rate = {errors / main.attempted:.6g} ({errors} of {main.attempted},"
                 f" {len(main.known)} of them a known defect); success_rate = 1 - error_rate")
    if not trace:
        scaled = main.scaled()
        probe = main.probe
        lines.append(f"probe: {len(probe.seconds)} samples of the reference kernel, mean"
                     f" {statistics.fmean(probe.seconds) * 1e3:.3f} ms, median"
                     f" {statistics.median(probe.seconds) * 1e3:.3f} ms"
                     f" ({speed.REFERENCE_S * 1e3:.3f} ms at the reference speed);"
                     f" {sum(probe.seconds):.3f} s in samples")
        at_ref = deck_metrics(main, scaled)
        unscaled = deck_metrics(main, raw)
        per_entry = main.deck_latencies(scaled)
        metrics = {
            "ops_per_s": (at_ref["ops_per_s"], "1/s"),
            "op_p50_s": (at_ref["op_p50_s"], "s"),
            "op_tail_s": (at_ref["op_tail_s"], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": (main.success_rate(), "ratio"),
        }
        lines.append("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in unscaled.items())
                     + f", passed ops / time in operations = {main.passed / sum(raw):.6g}")
        lines.append("setup rounds at the reference speed: "
                     + ", ".join(f"{s:.4f}" for s in setups) + " s")
        lines.append(f"op_p50_s falls on {neighbours(per_entry, at_ref['op_p50_s'])}")
        lines.append(f"op_tail_s is p{TAIL_PERCENT} of the deck, between"
                     f" {neighbours(per_entry, at_ref['op_tail_s'])}")
    else:
        wall = sum(raw)
        units = dict(spans.layer_metric_names())
        metrics = {name: (value, units[name])
                   for name, value in tracer.layer_metrics(wall).items()}
        traced = deck_metrics(main, raw)["ops_per_s"]
        cost = spans.span_cost_s()
        overhead = cost * len(tracer.spans)
        untraced = traced * wall / (wall - overhead)
        metrics["trace.ops_per_s"] = (traced, "1/s")
        metrics["trace.span_cost_s"] = (cost, "s")
        metrics["trace.overhead_share"] = (overhead / wall, "ratio")
        metrics["trace.overhead_ops_per_s"] = (traced - untraced, "1/s")
        lines.append(f"tracing overhead: {len(tracer.spans)} spans x {cost * 1e6:.2f} us"
                     f" = {overhead:.4f} s of {wall:.3f} s; ops_per_s with that time taken"
                     f" out: {untraced:.6g}")
        dump = WORK / f"trace-{workload}-seed{seed}.json"
        tracer.dump(dump, labels)
        lines.append(f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
        lines.extend(busy_table(tracer.busy_by_op(labels)))
    lines.append(f"repeat_share = {main.repeats / main.attempted:.4f}"
                 " (ops whose inputs an earlier op of this run already used)")
    for failure in main.failures[:20]:
        lines.append(f"FAILED {failure}")
    for failure in main.known[:5]:
        lines.append(f"FAILED (known defect) {failure}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not main.failures,
        "attempted": main.attempted,
        "failed": len(main.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def busy_table(by_label):
    """Per operation label: busy seconds of its covered functions, largest first."""
    out = ["busy seconds by operation (traced phase):"]
    for label in sorted(by_label):
        row = sorted(by_label[label].items(), key=lambda kv: -kv[1])
        out.append(f"  {label}: " + ", ".join(f"{n} {s:.4f}" for n, s in row))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into is not None:
        setup_round(args.workload, args.setup_into)
        return 0
    import_library()
    if args.seed is None or args.seconds is None:
        parser.error("--seed and --seconds are required")
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
