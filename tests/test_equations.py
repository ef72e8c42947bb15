"""Equation syntax, the initial chain, and run reports."""
import dataclasses
import hashlib
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epsolve.chains import check_local_determination, colimit_finite, thread_approximant
from epsolve.equations import (
    EquationSpec,
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
from epsolve.functors import Compose, Const, Fun, Id, Lift, Prod, Sum, has_fun
from epsolve.finposet import one_point
from epsolve.suite import functor_family


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


def test_error_position_counts_lines():
    with pytest.raises(EquationSyntaxError) as exc:
        parse_equation("D = lift(D)\n  + x(")
    assert (exc.value.line, exc.value.column) == (2, 5)
    assert str(exc.value) == "expected a functor term, found 'x' at line 2, column 5"


@pytest.mark.parametrize("text,found", [("D = const()", "')'"), ("D = const(", "'end of input'")])
def test_const_without_a_name_asks_for_one(text, found):
    with pytest.raises(EquationSyntaxError) as exc:
        parse_equation(text)
    assert str(exc.value) == f"expected a poset name, found {found} at line 1, column 11"


def test_printed_functors_parse_back_to_themselves():
    """The one concrete syntax: str prints what the parser reads."""
    consts = [(NAMED_POSETS[name], name) for name in ("1", "2-chain", "diamond", "flat2")]
    family = functor_family(2, consts)
    assert len(family) == 110
    for e in family:
        assert parse_functor(str(e)) is e


def test_trailing_input_rejected():
    with pytest.raises(EquationSyntaxError):
        parse_equation("D = D D")


def test_parse_functor_bare():
    # functor expressions are interned, so an equal tree is the same node
    assert parse_functor("lift(D)") is Lift(Id())
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


def test_iterate_builds_each_function_space_once():
    # stage n's function space is link n's target and again link n+1's source
    from epsolve.finposet import function_space_maps
    from epsolve.functors import pr_apply_mor

    function_space_maps.cache_clear()
    pr_apply_mor.cache_clear()
    d = iterate(parse_equation("D = fun(const(diamond),D)", depth=3))
    assert len(d.links) == 3
    info = function_space_maps.cache_info()
    assert info.misses == info.currsize == 3


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


# ---------------------------------------------------------------------------
# defect matrix: closed form against the checker

_LEAVES = st.sampled_from(
    [Id(), Const(one_point(), "unit")]
    + [Const(NAMED_POSETS[name], name) for name in ("2-chain", "flat2")]
)


def _bodies(with_fun: bool):
    """Bodies without fun, or bodies with a fun node at or just below the root."""
    combinators = [Sum, Prod] + ([Fun] if with_fun else [])
    trees = st.recursive(
        _LEAVES,
        lambda sub: st.one_of(
            st.builds(Lift, sub),
            st.builds(lambda c, a, b: c(a, b), st.sampled_from(combinators), sub, sub),
        ),
        max_leaves=4,
    )
    if not with_fun:
        return trees
    funs = st.builds(Fun, trees, trees)
    return st.one_of(funs, st.builds(Lift, funs), st.builds(Sum, funs, trees), st.builds(Prod, trees, funs))


def _iterate_or_skip(spec):
    """iterate(spec), skipping draws that hit the cap or whose stage names
    outgrow a few thousand characters: each stage's element names nest the
    previous stage's, so under fun they grow geometrically with depth, even
    on one-element stages."""
    for k in range(spec.depth + 1):
        try:
            d = iterate(dataclasses.replace(spec, depth=k))
        except CapExceeded:
            assume(False)
        assume(sum(map(len, d.objects[-1].elems)) <= 5_000)
    return d


@pytest.mark.parametrize("with_fun", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_defect_matrix_matches_the_checker(with_fun, data):
    """Every row of the reported matrix is the LD checker's defects on that
    row's thread approximant.  Canonical forms play no part in the matrix,
    and their ordering search can take seconds on a symmetric stage, so they
    are stubbed out here."""
    body = data.draw(_bodies(with_fun))
    assert has_fun(body) == with_fun
    spec = EquationSpec("D = <drawn>", body, data.draw(st.integers(0, 10)), 64)
    d = _iterate_or_skip(spec)
    with mock.patch("epsolve.equations.canonical_form", lambda p: ""):
        report = solve_report(spec)
    assert report.defect_matrix == [
        list(check_local_determination(thread_approximant(d, r)).defects)
        for r in range(len(d.objects))
    ]


def test_solve_report_checks_one_approximant(monkeypatch):
    import epsolve.chains as chains
    import epsolve.equations as equations

    counts = {"approximant": 0, "ld": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(equations, "thread_approximant", counting("approximant", thread_approximant))
    monkeypatch.setattr(
        chains, "check_local_determination_ep", counting("ld", chains.check_local_determination_ep)
    )
    # one growing body, two stabilized ones: a stabilized solve reuses the final row
    for text, depth, last_row in [
        ("D = lift(D)", 20, [20 - n for n in range(21)]),
        ("D = fun(D,D)", 3, [0] * 4),
        ("D = const(diamond)", 5, [3] + [0] * 5),
    ]:
        counts.update(approximant=0, ld=0)
        report = solve_report(parse_equation(text, depth=depth))
        assert counts == {"approximant": 1, "ld": 1}, text
        assert report.defect_matrix[-1] == last_row


def test_solving_renders_no_element_names(monkeypatch):
    """Stages are compared by position; their names are rendered only when read."""
    import epsolve.finposet as finposet

    rendered = []
    real = finposet._render
    monkeypatch.setattr(finposet, "_render", lambda term: rendered.append(term) or real(term))
    report = solve_report(parse_equation("D = lift(D)", depth=50))
    assert len(report.stages) == 51 and rendered == []


@pytest.mark.parametrize(
    "text,depth",
    [("D = fun(D,D)", 3), ("D = prod(D,unit)", 5), ("D = const(diamond)", 4),
     ("D = lift(const(2-chain))", 4), ("D = sum(const(flat2),unit)", 3),
     ("D = fun(const(diamond),D)", 3)],
)
def test_stabilized_ld_is_the_canonical_colimits_report(text, depth):
    """The canonical colimit's report, computed the old way, is the oracle."""
    spec = parse_equation(text, depth=depth)
    report = solve_report(spec)
    assert report.stabilized_at is not None
    assert report.ld == check_local_determination(colimit_finite(iterate(spec))).to_json()


# sha256 of report_json_bytes(solve_report(..., seed=0)), pinned from reports
# in which every defect row ran the LD checker
GOLDEN_REPORTS = [
    ("D = lift(D)", 24, "ccafa6ffd44584484de96f963251f3effa2202ce6dd5ce460cebc8aaee995028"),
    ("D = sum(D,const(2-chain))", 16, "afe8498f2f21ccaaef3b770727e8a4874908460acbea6b351da8572193d7433e"),
    ("D = lift(sum(D,unit))", 16, "519d6ac6bab0f85680e70183b52fb5857a24d5dbca2edfc21983cd3172a71004"),
    ("D = sum(lift(D),const(3-chain))", 12, "b999c8157b32e27ccf163d0020f0b39ed2b1758f7fd2b3a5a70601c93e614df8"),
    ("D = lift(fun(D,D))", 3, "a4f2cbcbf47f9413121f7a4ef28aadb6448300c58d79c58a6da49e70fa2a62a6"),
    ("D = fun(D,D)", 3, "26528f86e32414d3a05f3fdf8b52ecd98b41bc455ff70e4269231a6b1c399613"),
    # stages whose refinement classes are not singletons, so the canonical
    # form is the least leaf of the individualization-refinement search
    ("D = sum(D,D)", 2, "a9bcea18a5778267edeca39e8ae86c67a9610a0e816416169ba24876ec996d39"),
    ("D = sum(D,D)", 3, "cd0dcbaefe6647fdd845b55c0274481ef6053596dc8fbaccd67a457e41d6e3e2"),
    ("D = lift(prod(D,D))", 3, "379e60a7b10cbc31248b02fc88c4b4e24abdd80c66497a9aa81ad9a1f4838431"),
    ("D = prod(D,const(diamond))", 1, "07cd465f764def2e3d058b31da7a15e7d6a8797ca9f81cda7eb4ab9a158424f0"),
    ("D = fun(const(diamond),D)", 3, "a69a9483642fe40c288ef8efd27c7a78c7300bc1f799ec96cb1d09c084834c4d"),
]


@pytest.mark.parametrize("text,depth,digest", GOLDEN_REPORTS)
def test_golden_report_bytes(text, depth, digest):
    report = solve_report(parse_equation(text, depth=depth), seed=0)
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == digest
