"""epsolve: command-line workbench for recursive domain equations over
finite pointed posets.

Exit codes: 0 all checks pass, 1 a property or verdict failed, 2 usage or
input error, or a size cap hit.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from .chains import Cocone, check_local_determination, cocone_from_json
from .demo import yoneda_demo_report
from .equations import (
    EquationSyntaxError,
    json_bytes,
    parse_equation,
    parse_functor,
    report_json_bytes,
    solve_report,
)
from .errors import CapExceeded
from .finposet import DEFAULT_ELEM_CAP
from .functors import preserves_cocone
from .suite import run_all


def _write_json(path: str, payload: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(json_bytes(payload))


def _print_stage_table(stages) -> None:
    print(f"{'n':>3} {'size':>5} {'defect':>7}  canonical_form")
    for s in stages:
        print(f"{s['n']:>3} {s['size']:>5} {s['defect']:>7}  {s['canonical_form']}")


def _load_cocone(path: str) -> Cocone:
    """Read a cocone file.  Text that is not JSON, and JSON of the wrong
    shape or failing its checks, becomes a ValueError naming the file,
    reported by `main` as an input error."""
    with open(path) as fh:
        try:
            return cocone_from_json(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ValueError(f"{path}: malformed cocone ({type(exc).__name__}: {exc})") from exc


def cmd_solve(args) -> int:
    spec = parse_equation(args.equation, depth=args.depth, elem_cap=args.max_size)
    report = solve_report(spec, seed=args.seed)
    print(f"equation: {report.equation}")
    print(f"stabilized_at: {report.stabilized_at}")
    _print_stage_table(report.stages)
    if report.ld is not None:
        print(f"locally determined: {report.ld['verdict']} defects={report.ld['defects']}")
    else:
        print("no stabilization witness; defect matrix by approximation depth:")
        for depth, row in enumerate(report.defect_matrix):
            print(f"  depth {depth}: {row}")
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(report_json_bytes(report))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "size", "canonical_form", "defect"])
            for s in report.stages:
                w.writerow([s["n"], s["size"], s["canonical_form"], s["defect"]])
    return 0


def cmd_check_ld(args) -> int:
    k = _load_cocone(args.cocone)
    report = check_local_determination(k)
    print(f"kind: {report.kind.value}")
    print(f"verdict: {report.verdict}")
    print(f"defects: {list(report.defects)}")
    if report.adj_residuals is not None:
        print(f"adj_residuals: {[list(r) for r in report.adj_residuals]}")
    if args.json:
        _write_json(args.json, report.to_json())
    return 0 if report.verdict else 1


def cmd_preserve(args) -> int:
    functor = parse_functor(args.functor)
    k = _load_cocone(args.cocone)
    res = preserves_cocone(functor, k, elem_cap=args.max_size)
    print(f"functor: {functor}")
    print(f"image apex size: {len(res.image.apex)}")
    print(f"colimiting: {res.colimiting}")
    print(f"locally determined: {res.locally_determined.verdict}")
    print(f"defects: {list(res.locally_determined.defects)}")
    if args.json:
        _write_json(
            args.json,
            {
                "functor": str(functor),
                "colimiting": res.colimiting,
                "locally_determined": res.locally_determined.to_json(),
            },
        )
    return 0 if res.colimiting and res.locally_determined.verdict else 1


def cmd_verify_theorems(args) -> int:
    results = run_all(
        seed=args.seed,
        chain_count=args.chains,
        max_size=args.max_size,
        max_len=args.max_len,
        lub_cases=args.lub_cases,
    )
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}: {status} ({r.cases} cases)")
        if not r.passed:
            all_pass = False
            for f in r.failures[:3]:
                print(f"  counterexample: {json.dumps(f, sort_keys=True, default=str)}")
    if args.json:
        _write_json(args.json, {"results": [r.to_json() for r in results]})
    return 0 if all_pass else 1


def cmd_yoneda_demo(args) -> int:
    rep = yoneda_demo_report()
    sys.stdout.write(json_bytes(rep).decode())
    if args.json:
        _write_json(args.json, rep)
    ok = (
        rep["fully_faithful"]
        and rep["proof_step_canonical"]
        and not rep["proof_step_counterexample"]
    )
    return 0 if ok else 1


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="epsolve",
        description="workbench for recursive domain equations over finite posets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="iterate an equation from the one-point poset")
    p.add_argument("equation")
    p.add_argument("--depth", type=_int_at_least(0), default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=_int_at_least(0), default=DEFAULT_ELEM_CAP)
    p.add_argument("--json", metavar="PATH", default=None)
    p.add_argument("--csv", metavar="PATH", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-ld", help="local-determination check of a cocone")
    p.add_argument("--cocone", metavar="PATH", required=True)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_check_ld)

    p = sub.add_parser("preserve", help="apply a functor to a cocone and recheck")
    p.add_argument("functor")
    p.add_argument("--cocone", metavar="PATH", required=True)
    p.add_argument("--max-size", type=_int_at_least(0), default=DEFAULT_ELEM_CAP)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_preserve)

    p = sub.add_parser("verify-theorems", help="run the seeded property suites")
    p.add_argument("--chains", type=_int_at_least(0), default=200)
    p.add_argument("--lub-cases", type=_int_at_least(0), default=50)
    p.add_argument("--seed", type=int, default=0)
    # a poset has at least one element, and a chain at least one link
    p.add_argument("--max-size", type=_int_at_least(1), default=4)
    p.add_argument("--max-len", type=_int_at_least(2), default=5)
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser("yoneda-demo", help="two-object Yoneda worked example")
    p.add_argument("--json", metavar="PATH", default=None)
    p.set_defaults(func=cmd_yoneda_demo)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EquationSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError as exc:
        # an equation or functor nested hundreds of levels deep
        print(f"error: input nested too deeply ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
