"""Command-line surface.

Exit codes: 0 success / verified, 1 verification failure (one JSON record per
failure on standard output), 2 usage error.  `construct` and `expand` run
plan trees through compose.run_tree; `expand`'s leaf is the Seed it read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog as cat, compose, diffmatrix, fixtures as fix, work
from .arrays import (
    LargeSet,
    SymbolMatrix,
    brute_force_strength,
    project_columns,
    verify_large_set,
    verify_strength,
)
from .errors import (
    BudgetExceededError,
    ConstraintError,
    DMUnavailableError,
    OAForgeError,
    ParseError,
    VerificationError,
)
from .expand import find_resolvable_projection, require_resolvable
from .formats import read_array, write_array
from .gf import parse_order


def _columns(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _order(text: str) -> tuple[int, int]:
    try:
        return parse_order(text)
    except ValueError as exc:  # argparse would drop the message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _budget(text: str) -> int:
    ops = float(text)
    if not 0 <= ops < float("inf"):  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return int(ops)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, like every other usage error."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # the global flags, accepted before and after the subcommand (the later
    # one wins); their defaults are set in main()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=_budget, default=argparse.SUPPRESS,
                        help="counting-operation / search-node budget (default 1e8)")
    common.add_argument("--fail-fast", action="store_true", default=argparse.SUPPRESS,
                        help="stop at the first failing column subset")
    parser = _Parser(
        prog="oaforge",
        parents=[common],
        description="Construct and exhaustively verify mixed-level orthogonal"
                    " arrays, large sets, and difference matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(parents=[common], **kw))

    c = sub.add_parser("construct", help="run one constructor")
    c.add_argument("recipe", choices=["sylvester2", "sylvester3", "projective",
                                      "bush", "q4t3", "chai1", "chai2"])
    c.add_argument("--n", type=int, help="exponent (sylvester: order 2^n;"
                                         " projective: dimension)")
    c.add_argument("--k", type=int, help="number of columns")
    c.add_argument("--q", type=_order, help="field order, 'p^e' or a prime power")
    c.add_argument("--t", type=int, help="strength (bush)")
    c.add_argument("--v", type=int, help="group order (chai1/chai2)")
    c.add_argument("--dm-file", type=Path, help="difference matrix to develop")
    c.add_argument("--keep", type=_columns,
                   help="project onto these columns (in order) before output")
    c.add_argument("--expand", action="store_true",
                   help="emit the expanded large set instead of the array")
    c.add_argument("-o", "--output", type=Path)

    e = sub.add_parser("expand", help="expand an array into its large set")
    e.add_argument("oa_file", type=Path)
    e.add_argument("--columns", type=_columns,
                   help="resolvable projection columns (default: search)")
    e.add_argument("--keep", type=_columns,
                   help="project onto these columns (in order) first")
    e.add_argument("-o", "--output", type=Path, required=True)

    v = sub.add_parser("verify", help="verify an artifact file")
    v.add_argument("kind", choices=["oa", "loa", "dm"])
    v.add_argument("file", type=Path)
    v.add_argument("--strength", type=int,
                   help="strength to check (default: the file's claimed t)")

    o = sub.add_parser("oracle", help="brute-force strength re-count")
    o.add_argument("file", type=Path)
    o.add_argument("--strength", type=int)

    p = sub.add_parser("compose", help="combine two large sets")
    p.add_argument("operation", choices=["juxtapose", "kronecker"])
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)

    t = sub.add_parser("theorem", help="execute a composite recipe")
    t.add_argument("id", choices=list(compose.THEOREM_IDS))
    t.add_argument("--params", required=True,
                   help="comma-separated name=value pairs, e.g. v=4,k=5")
    t.add_argument("-o", "--output", type=Path)

    g = sub.add_parser("catalog", help="list/reproduce the result tables")
    g.add_argument("query", choices=["table1", "table2", "table3", "table4",
                                     "table5", "table6", "theorems", "all"])
    g.add_argument("--run", action="store_true",
                   help="execute every synthesizable entry within budget")

    s = sub.add_parser("search", help="backtracking searches")
    s.add_argument("what", choices=["dm"])
    s.add_argument("--v", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--group", help="cyclic factorization, e.g. Z2xZ2 (default Zv)")
    s.add_argument("-o", "--output", type=Path)

    f = sub.add_parser("fixtures", help="check the installed reference corpus")
    f.add_argument("--dir", type=Path, help="alternate corpus directory")
    f.add_argument("--list", action="store_true", help="list corpus files")
    return parser


def _emit(record: dict):
    print(json.dumps(record, sort_keys=True))


def _report_strength(report) -> int:
    if report.ok:
        print(f"ok: strength {report.t} verified"
              f" ({report.checked_subsets} column subsets)")
        return 0
    for failure in report.failures:
        _emit(failure.as_record())
    return 1


def _large_set_ok(m: int, n: int, universe: int, t: int) -> int:
    print(f"ok: large set verified (M={m}, N={n}, universe={universe}, strength {t})")
    return 0


def _report_large_set(report) -> int:
    if report.ok:
        return _large_set_ok(report.m, report.n, report.universe, report.t)
    for record in report.records():
        _emit(record)
    if report.first_bad_report is not None:
        for failure in report.first_bad_report.failures:
            _emit(failure.as_record())
    return 1


def _label(obj) -> str:
    label = f"({obj.n},{obj.profile.format()},{obj.t})"
    return f"LOA{label} M={obj.m}" if isinstance(obj, LargeSet) else f"OA{label}"


def _write(obj, path: Path | None, label: str):
    if path is None:
        print(f"{label} (no output file requested)")
    else:
        write_array(obj, path)
        print(f"{label} -> {path}")


def _run_tree(root, path: Path | None) -> int:
    """Run a plan tree, print its ok line and write its artifact."""
    out = compose.run_tree(root)
    if isinstance(out, LargeSet):
        _large_set_ok(out.m, out.n, out.profile.universe_size, out.t)
        _write(out, path, _label(out))
    else:
        _write(out.matrix, path,
               f"{_label(out.matrix)}, resolvable columns {out.projection.columns}")
    return 0


def _cmd_construct(args) -> int:
    names = {name for keys, defaults, _ in compose.LEAVES.values()
             for name in (*keys, *(defaults or ()))}
    params = {name: value for name, value in vars(args).items()
              if name in names and value is not None}
    if "q" in params:  # parse_order gives (p, e)
        params["q"] = params["q"][0] ** params["q"][1]
    root = compose.leaf(args.recipe, **params)
    if args.keep:
        root = compose.Project(root, args.keep)
    if args.expand:
        root = compose.Expand(root)
    try:
        return _run_tree(root, args.output)
    except VerificationError as exc:
        a = getattr(exc, "candidate", None)
        if a is None:
            raise
        print(f"self-check verdict: NOT an OA({a.n},{a.profile.format()},2);"
              " failing column pairs below")
        for failure in exc.report.failures:
            _emit(failure.as_record())
        _write(a.with_t(0), args.output, f"candidate array ({a.n} x {a.k}) emitted unverified")
        return 1


def _cmd_expand(args) -> int:
    a = read_array(args.oa_file)
    if isinstance(a, LargeSet):
        raise OAForgeError("expand expects a single array, not a large set")
    if args.keep:
        a = project_columns(a, args.keep)
    if args.columns:
        proj = require_resolvable(a, args.columns)
    else:
        proj = find_resolvable_projection(a)
        if proj is None:
            print("no resolvable projection exists")
            return 1
        print(f"using resolvable columns {proj.columns}")
    return _run_tree(compose.Expand(compose.Seed(a, proj, args.budget)), args.output)


def _cmd_verify(args) -> int:
    if args.kind == "dm":
        dm = diffmatrix.read_dm(args.file)
        report = diffmatrix.verify_dm(dm)
        if report.ok:
            print(f"ok: ({dm.v},{dm.k},1) difference matrix over"
                  f" {dm.group.label()}")
            return 0
        for failure in report.failures:
            _emit(failure.as_record())
        return 1
    obj = read_array(args.file)
    if args.kind == "oa":
        if not isinstance(obj, SymbolMatrix):
            raise OAForgeError(f"{args.file} holds a large set; use 'verify loa'")
        t = args.strength if args.strength is not None else (obj.t or 0)
        report = verify_strength(obj, t, fail_fast=args.fail_fast,
                                 budget=args.budget)
        return _report_strength(report)
    if not isinstance(obj, LargeSet):
        raise OAForgeError(f"{args.file} holds a single array; use 'verify oa'")
    t = args.strength if args.strength is not None else (obj.t or 0)
    report = verify_large_set(obj, t, budget=args.budget)
    return _report_large_set(report)


def _cmd_oracle(args) -> int:
    obj = read_array(args.file)
    if not isinstance(obj, SymbolMatrix):
        raise OAForgeError("the oracle checks single arrays")
    t = args.strength if args.strength is not None else (obj.t or 0)
    report = brute_force_strength(obj, t, budget=args.budget)
    return _report_strength(report)


def _cmd_compose(args) -> int:
    first = read_array(args.first)
    second = read_array(args.second)
    if not isinstance(first, LargeSet) or not isinstance(second, LargeSet):
        raise OAForgeError("compose expects two large-set files")
    engine = compose.juxtapose if args.operation == "juxtapose" else compose.kronecker
    out = engine(first, second)
    _write(out, args.output, _label(out))
    return 0


def _cmd_theorem(args) -> int:
    plan = compose.plan_theorem(args.id, compose.parse_params(args.params))
    artifact = compose.execute_plan(plan)
    _write(artifact, args.output, f"{_label(artifact)} verified")
    return 0


def _cmd_catalog(args) -> int:
    entries = cat.catalog(args.query)
    if not args.run:
        for entry in entries:
            line = f"{entry.source}: {entry.result} [{entry.params}]" \
                   f" status={entry.status}"
            if entry.command:
                line += f"\n    command: {entry.command}"
            if entry.note:
                line += f"\n    note: {entry.note}"
            print(line)
        return 0
    failures = 0
    for entry, outcome in cat.run_entries(entries, budget=args.budget):
        print(f"{entry.source}: {entry.result} -> {outcome}")
        if outcome.startswith("failed"):
            failures += 1
    return 1 if failures else 0


def _cmd_search(args) -> int:
    group = diffmatrix.parse_group(args.group) if args.group else None
    try:
        dm = diffmatrix.search_dm(args.v, args.k, budget=args.budget, group=group)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}")
        return 1
    if dm is None:
        print(f"proven: no ({args.v},{args.k},1) difference matrix over"
              f" {(group or diffmatrix.AbelianGroup((args.v,))).label()}"
              " (full exhaustion)")
        return 0
    print(f"found ({dm.v},{dm.k},1) difference matrix over {dm.group.label()}")
    if args.output:
        diffmatrix.write_dm(dm, args.output)
        print(f"-> {args.output}")
    return 0


def _cmd_fixtures(args) -> int:
    if args.list:
        directory = args.dir or fix.fixture_dir()
        for name in fix.fixture_names():
            path = directory / f"{name}.txt"
            print(f"{name}: {path}" + ("" if path.exists() else " (missing)"))
        return 0
    report = fix.fixtures_check(args.dir)
    if report.corpus_empty:
        print("no fixtures installed")
        return 1
    for result in report.results:
        print(f"{result.name}: {result.status}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        argv, argparse.Namespace(budget=work.DEFAULT_BUDGET, fail_fast=False))
    handlers = {
        "construct": _cmd_construct,
        "expand": _cmd_expand,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "compose": _cmd_compose,
        "theorem": _cmd_theorem,
        "catalog": _cmd_catalog,
        "search": _cmd_search,
        "fixtures": _cmd_fixtures,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        _emit({"kind": "parse-error", "message": str(exc), "line": exc.line})
        return 1
    except (ConstraintError, DMUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OAForgeError as exc:
        record = {"kind": type(exc).__name__, "message": str(exc)}
        report = getattr(exc, "report", None)
        if report is not None and hasattr(report, "failures"):
            for failure in report.failures[:32]:
                _emit(failure.as_record())
        _emit(record)
        return 1
    except OSError as exc:  # a path that cannot be opened, read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
