"""Span recorder that times oaforge's public functions from outside.

`Tracer.install()` replaces each covered function, in its defining module and
in every other loaded oaforge module that imported it by name, with a wrapper
that appends one span (name, start, end, parent, op id, error) to an
in-memory list.  Work units (bytes, counting operations, cells, subsets) are
computed from the arguments and the result after the span has ended, so the
arithmetic is not charged to the layer.  `uninstall()` restores the originals.
Nothing is written until the caller asks for `dump()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from math import comb

# (module, function) pairs timed as layers; order fixes the metric order
COVERED = (
    ("diffmatrix", "dm_for"),
    ("diffmatrix", "develop_chai1"),
    ("algebraic", "sylvester_oa2"),
    ("algebraic", "sylvester_oa3"),
    ("algebraic", "q4_matrix"),
    ("algebraic", "bush_columns"),
    ("algebraic", "projective_columns"),
    ("algebraic", "linear_oa"),
    ("expand", "expand_shift"),
    ("arrays", "verify_large_set"),
    ("fixtures", "fixture_loa"),
    ("formats", "write_array"),
    ("formats", "read_array"),
    ("compose", "plan_theorem"),
    ("compose", "execute_plan"),
    ("compose", "juxtapose"),
    ("compose", "kronecker"),
    ("compose", "cosets_strength1"),
)

QUANTITIES = ("calls", "busy_s", "errors", "share")


def _rows_times_subsets(n_rows: int, k: int, t: int) -> int:
    return n_rows * comb(k, t) if t > 0 else 0


def _large_set_ops(ls, t) -> int:
    return _rows_times_subsets(ls.m * ls.n, ls.profile.k, t)


def _artifact_ops(obj, t) -> int:
    rows = obj.m * obj.n if hasattr(obj, "members") else obj.n
    return _rows_times_subsets(rows, obj.profile.k, t)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _write_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _read_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _verify_ops(args, kwargs, result):
    return _large_set_ops(_arg(args, kwargs, 0, "ls"), _arg(args, kwargs, 1, "t"))


def _plan_ops(args, kwargs, result):
    return _artifact_ops(result, _arg(args, kwargs, 0, "plan").claim.t)


def _juxtapose_ops(args, kwargs, result):
    return _large_set_ops(result, result.t)


def _kronecker_ops(args, kwargs, result):
    return _artifact_ops(result, result.t)


def _expand_cells(args, kwargs, result):
    return result.m * result.n * result.profile.k


def _linear_subsets(args, kwargs, result):
    gc = _arg(args, kwargs, 0, "gc")
    return comb(len(gc.columns), gc.t)


# function -> (quantity, unit, fn(args, kwargs, result) -> amount)
WORK_UNITS = {
    "formats.write_array": ("bytes", "B", _write_bytes),
    "formats.read_array": ("bytes", "B", _read_bytes),
    "arrays.verify_large_set": ("count_ops", "count", _verify_ops),
    "compose.execute_plan": ("count_ops", "count", _plan_ops),
    "compose.kronecker": ("count_ops", "count", _kronecker_ops),
    "compose.juxtapose": ("count_ops", "count", _juxtapose_ops),
    "expand.expand_shift": ("cells", "count", _expand_cells),
    "algebraic.linear_oa": ("subsets", "count", _linear_subsets),
}

# function -> (quantity, unit, divisor): its work units per busy second
RATES = {
    "formats.write_array": ("mb_per_s", "MB/s", 1e6),
    "formats.read_array": ("mb_per_s", "MB/s", 1e6),
    "arrays.verify_large_set": ("mops_per_s", "Mops/s", 1e6),
}

QUANTITY_UNITS = {"calls": "count", "busy_s": "s", "errors": "count", "share": "ratio"}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = []
    for module, func in COVERED:
        name = f"{module}.{func}"
        out.extend((f"{name}.{q}", QUANTITY_UNITS[q]) for q in QUANTITIES)
        for table in (WORK_UNITS, RATES):
            if name in table:
                out.append((f"{name}.{table[name][0]}", table[name][1]))
    return out


class Tracer:
    """In-memory spans around the COVERED functions; see the module doc."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, error, outer]
        self.work: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        for module, func in COVERED:
            mod = importlib.import_module(f"oaforge.{module}")
            orig = getattr(mod, func)
            wrapper = self._wrap(f"{module}.{func}", orig)
            for m in list(sys.modules.values()):
                name = getattr(m, "__name__", "")
                if name != "oaforge" and not name.startswith("oaforge."):
                    continue
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        units = WORK_UNITS.get(name)
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = active.get(name, 0) == 0
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1,
                    self.op, 0, outer]
            stack.append(len(spans))
            spans.append(span)
            active[name] = active.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                active[name] -= 1
            if units is not None:
                self.work[name] = self.work.get(name, 0) + units[2](args, kwargs, result)
            return result

        return wrapper

    def busy(self) -> dict[str, float]:
        """Outermost-span time per function (nested self-calls not recounted)."""
        out: dict[str, float] = {}
        for name, start, end, _, _, _, outer in self.spans:
            if outer:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        busy = self.busy()
        calls: dict[str, int] = {}
        errors: dict[str, int] = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
            errors[span[0]] = errors.get(span[0], 0) + span[5]
        out: dict[str, float] = {}
        for module, func in COVERED:
            name = f"{module}.{func}"
            b = busy.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = b
            out[f"{name}.errors"] = errors.get(name, 0)
            out[f"{name}.share"] = b / wall_s if wall_s > 0 else 0.0
            if name in WORK_UNITS:
                out[f"{name}.{WORK_UNITS[name][0]}"] = self.work.get(name, 0)
            if name in RATES:
                quantity, _, divisor = RATES[name]
                out[f"{name}.{quantity}"] = (self.work.get(name, 0) / divisor / b
                                             if b > 0 else 0.0)
        return out

    def busy_by_op(self, labels: dict[int, str]) -> dict[str, dict[str, float]]:
        """Busy seconds per function, grouped by the label of each span's op."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _, op, _, outer in self.spans:
            if outer and op is not None:
                row = out.setdefault(labels[op], {})
                row[name] = row.get(name, 0.0) + (end - start)
        return out

    def dump(self, path, labels: dict[int, str]):
        """Write every span and the per-op-label breakdown as one JSON file."""
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "error"],
            "spans": [s[:6] for s in self.spans],
            "op_labels": {str(k): v for k, v in labels.items()},
            "busy_by_label": self.busy_by_op(labels),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def span_cost_s(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds one span adds to a call: a no-op timed bare and wrapped in
    alternating rounds, the median difference per call.  The work-unit
    arithmetic after a span is not included; it is a file size or a product."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("noop", noop)
    diffs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.spans.clear()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(diffs)
