"""Equation syntax, the initial chain, and run reports."""
import pytest

from epsolve.equations import (
    EquationSyntaxError,
    NAMED_POSETS,
    iterate,
    parse_equation,
    parse_functor,
    report_json_bytes,
    run_solver_determinism,
    solve_report,
)
from epsolve.errors import CapExceeded
from epsolve.functors import Compose, Const, Fun, Id, Lift, Prod, Sum
from epsolve.finposet import one_point


# ---------------------------------------------------------------------------
# parsing

def test_parse_plus_sugar():
    spec = parse_equation("D = lift(unit + D)")
    assert spec.body == Lift(Sum(Const(one_point(), "unit"), Id()))


def test_parse_fun():
    assert parse_equation("D = fun(D, D)").body == Fun(Id(), Id())


def test_parse_all_combinators():
    body = parse_equation("D = compose(lift(D), prod(D, sum(unit, const(2-chain))))").body
    assert body == Compose(
        Lift(Id()),
        Prod(Id(), Sum(Const(one_point(), "unit"), Const(NAMED_POSETS["2-chain"], "2-chain"))),
    )


def test_parse_parenthesized_expr():
    assert parse_equation("D = (D + unit)").body == Sum(Id(), Const(one_point(), "unit"))


def test_unterminated_call_errors_at_column_10():
    with pytest.raises(EquationSyntaxError) as exc:
        parse_equation("D = lift(")
    assert exc.value.column == 10


def test_unknown_poset_name_rejected():
    with pytest.raises(EquationSyntaxError):
        parse_equation("D = const(5-chain)")


def test_trailing_input_rejected():
    with pytest.raises(EquationSyntaxError):
        parse_equation("D = D D")


def test_parse_functor_bare():
    assert parse_functor("lift(D)") == Lift(Id())
    with pytest.raises(EquationSyntaxError):
        parse_functor("D = D")


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        parse_equation("D = D", depth=-1)


# ---------------------------------------------------------------------------
# iteration

def test_constant_equation_stabilizes_immediately():
    d = iterate(parse_equation("D = D"))
    assert d.stab_index == 0
    assert all(p == one_point() for p in d.objects)


def test_lift_equation_grows_by_one():
    d = iterate(parse_equation("D = lift(D)", depth=4))
    assert [len(p) for p in d.objects] == [1, 2, 3, 4, 5]
    assert d.stab_index is None


def test_fun_equation_fixpoint_at_point():
    d = iterate(parse_equation("D = fun(D, D)", depth=4))
    assert [len(p) for p in d.objects] == [1, 1, 1, 1, 1]
    assert d.stab_index == 0


def test_lift_sum_equation_growth():
    # |1 + D| = |D| + 2 (disjoint union plus a fresh bottom); lift adds one,
    # so each stage adds three elements
    d = iterate(parse_equation("D = lift(unit + D)", depth=4))
    assert [len(p) for p in d.objects] == [1, 4, 7, 10, 13]


def test_iterate_links_are_ep():
    from epsolve.opairs import is_ep_pair

    d = iterate(parse_equation("D = lift(D)", depth=4))
    for f in d.links:
        assert f.kind.value == "EP"
        assert is_ep_pair(f.l, f.r)


def test_iterate_reads_stages_off_links(monkeypatch):
    import epsolve.equations as equations

    calls = []
    real = equations.apply_obj

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(equations, "apply_obj", counting)
    d = iterate(parse_equation("D = lift(D)", depth=10))
    assert len(calls) == 1
    assert [len(p) for p in d.objects] == list(range(1, 12))
    assert all(f.tgt == p for f, p in zip(d.links, d.objects[1:]))


def test_iterate_respects_elem_cap():
    with pytest.raises(CapExceeded):
        iterate(parse_equation("D = prod(D, const(2-chain))", depth=12, elem_cap=64))


# ---------------------------------------------------------------------------
# reports

def test_solve_report_lift():
    report = solve_report(parse_equation("D = lift(D)", depth=4), seed=0)
    assert [s["size"] for s in report.stages] == [1, 2, 3, 4, 5]
    assert [s["defect"] for s in report.stages] == [4, 3, 2, 1, 0]
    assert report.stabilized_at is None
    assert report.ld is None
    assert report.defect_matrix[2] == [2, 1, 0]


def test_solve_report_stabilizing():
    report = solve_report(parse_equation("D = fun(D, D)", depth=3), seed=0)
    assert report.stabilized_at == 0
    assert report.ld is not None and report.ld["verdict"] is True


def test_report_bytes_deterministic():
    spec = parse_equation("D = lift(unit + D)", depth=3)
    a = report_json_bytes(solve_report(spec, seed=1))
    b = report_json_bytes(solve_report(parse_equation("D = lift(unit + D)", depth=3), seed=1))
    assert a == b
    assert a.endswith(b"\n")


def test_solver_determinism_property():
    result = run_solver_determinism()
    assert result.passed, result.failures
