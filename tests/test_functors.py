"""Functor combinators: object/morphism actions, laws, local continuity,
cocone preservation."""
import pytest

from epsolve.chains import colimit_finite
from epsolve.errors import CapExceeded, NotPointed, ShapeMismatch
from epsolve.finposet import (
    DEFAULT_ELEM_CAP,
    MonotoneMap,
    antichain,
    canonical_form,
    chain_poset,
    compose,
    const_map,
    coproduct,
    diamond,
    flat,
    function_space,
    function_space_maps,
    identity,
    iso_check,
    lift,
    map_from_dict,
    one_point,
    product,
)
from epsolve.functors import (
    Compose,
    Const,
    Fun,
    Id,
    Lift,
    Prod,
    Sum,
    apply_mor,
    apply_obj,
    check_functor_laws,
    check_local_continuity,
    has_fun,
    pr_apply_mor,
    preserves_cocone,
)
from epsolve.opairs import (
    Kind,
    PairHom,
    bottom_inclusion_pair,
    enumerate_pairs,
    is_ep_pair,
    pair_identity,
    pair_leq,
)
from epsolve.suite import counterexample_cocone, functor_family
from tests.test_chains import n1_chain


def two():
    return chain_poset(2)


# ---------------------------------------------------------------------------
# object action

def test_apply_obj_identity():
    for p in (one_point(), two(), diamond()):
        assert apply_obj(Id(), p) == p


def test_apply_obj_lift_point_is_two_chain():
    got = apply_obj(Lift(Id()), one_point())
    assert iso_check(got, two()) is not None


def test_apply_obj_fun_self_on_two_chain():
    got = apply_obj(Fun(Id(), Id()), two())
    assert canonical_form(got) == canonical_form(chain_poset(3))


def test_apply_obj_structural():
    p = two()
    assert apply_obj(Const(diamond(), "d"), p) == diamond()
    assert apply_obj(Prod(Id(), Id()), p) == product(p, p)
    assert apply_obj(Sum(Id(), Id()), p) == coproduct(p, p)
    assert apply_obj(Compose(Lift(Id()), Lift(Id())), p) == lift(lift(p))


def test_apply_obj_cap():
    with pytest.raises(CapExceeded):
        apply_obj(Fun(Id(), Id()), diamond(), elem_cap=8)


def test_apply_obj_sizes_product_before_building(monkeypatch):
    import epsolve.finposet as finposet

    def unreachable(p, q):
        raise AssertionError(f"product of {len(p)}x{len(q)} built past the cap")

    monkeypatch.setattr(finposet, "product", unreachable)
    with pytest.raises(CapExceeded, match="object of size 1600 exceeds cap 512"):
        apply_obj(Prod(Id(), Id()), chain_poset(40), elem_cap=512)


def structural_obj(e, p, cap):
    """Object part by structural recursion over the poset constructions: an
    oracle for the objects that the pair action builds."""
    match e:
        case Id():
            out = p
        case Const(q, _):
            out = q
        case Lift(a):
            out = lift(structural_obj(a, p, cap))
        case Prod(a, b):
            pa, pb = structural_obj(a, p, cap), structural_obj(b, p, cap)
            if len(pa) * len(pb) > cap:
                raise CapExceeded("product past the cap")
            out = product(pa, pb)
        case Sum(a, b):
            out = coproduct(structural_obj(a, p, cap), structural_obj(b, p, cap))
        case Fun(a, b):
            out = function_space(structural_obj(a, p, cap), structural_obj(b, p, cap), cap)
        case Compose(outer, inner):
            out = structural_obj(outer, structural_obj(inner, p, cap), cap)
    if len(out) > cap:
        raise CapExceeded("object past the cap")
    return out


def _oracle(e, p, cap):
    try:
        return structural_obj(e, p, cap)
    except (CapExceeded, NotPointed) as exc:
        return type(exc)


ORACLE_POSETS = (one_point(), two(), chain_poset(3), flat(2), diamond(), antichain(2))
ORACLE_FUNCTORS = functor_family(2, [(one_point(), "unit"), (two(), "2-chain")])


@pytest.mark.parametrize("cap", [8, 64])
@pytest.mark.parametrize("kind", [Kind.EP, Kind.ADJ])
def test_pair_action_builds_the_structural_objects(kind, cap):
    pairs = [f for a in ORACLE_POSETS for b in ORACLE_POSETS for f in enumerate_pairs(a, b, kind)]
    assert len(pairs) >= 20
    for e in ORACLE_FUNCTORS:
        for f in pairs:
            src, tgt = _oracle(e, f.src, cap), _oracle(e, f.tgt, cap)
            errors = {x for x in (src, tgt) if isinstance(x, type)}
            if errors:
                with pytest.raises(tuple(errors)):
                    pr_apply_mor(e, f, cap)
                continue
            g = pr_apply_mor(e, f, cap)
            assert (g.src, g.tgt) == (src, tgt), (str(e), f)
            assert apply_obj(e, f.src, cap) is src
            assert apply_obj(e, f.tgt, cap) is tgt


def fun_by_composition(a, b, f, cap=DEFAULT_ELEM_CAP):
    """Oracle for pr_apply_mor on Fun(a, b): each leg by composing maps,
    h -> gb.l ∘ h ∘ ga.r and k -> gb.r ∘ k ∘ ga.l, looked up by map."""
    ga, gb = pr_apply_mor(a, f, cap), pr_apply_mor(b, f, cap)
    dom_fs, dom_maps = function_space_maps(ga.src, gb.src, cap)
    cod_fs, cod_maps = function_space_maps(ga.tgt, gb.tgt, cap)
    cod_pos = {m: i for i, m in enumerate(cod_maps)}
    dom_pos = {m: i for i, m in enumerate(dom_maps)}
    l_table = tuple(cod_pos[compose(gb.l, compose(h, ga.r))] for h in dom_maps)
    r_table = tuple(dom_pos[compose(gb.r, compose(k, ga.l))] for k in cod_maps)
    return PairHom(f.kind, MonotoneMap(dom_fs, cod_fs, l_table), MonotoneMap(cod_fs, dom_fs, r_table))


@pytest.mark.parametrize("kind", [Kind.EP, Kind.ADJ])
def test_fun_on_tables_matches_composition(kind):
    args = (Id(), Const(two(), "2-chain"), Lift(Id()))
    pairs = [f for a in ORACLE_POSETS for b in ORACLE_POSETS for f in enumerate_pairs(a, b, kind)]
    for a in args:
        for b in args:
            for f in pairs:
                assert pr_apply_mor(Fun(a, b), f) is fun_by_composition(a, b, f), (str(Fun(a, b)), f)


def test_preserves_cocone_reads_objects_off_the_pairs(monkeypatch):
    import epsolve.functors as functors

    calls = []
    real = functors.apply_obj

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(functors, "apply_obj", counting)
    res = preserves_cocone(Lift(Id()), colimit_finite(n1_chain()))
    assert calls == []
    assert res.image.chain.objects == (lift(one_point()), lift(two()))
    assert res.image.apex == lift(two())


def test_functor_family_members_are_distinct():
    family = functor_family(2, [(one_point(), "unit"), (two(), "2-chain")])
    # interned nodes: equal trees would be one object, and print the same
    assert len(set(family)) == len({str(e) for e in family}) == len(family) == 42
    assert Const(two(), "2-chain") is Const(two(), name="2-chain")
    assert Const(two()) is Const(two(), "const") is not Const(two(), "2-chain")


def test_has_fun():
    assert has_fun(Fun(Id(), Id()))
    assert has_fun(Lift(Prod(Id(), Fun(Id(), Id()))))
    assert not has_fun(Lift(Sum(Id(), Const(two(), "2-chain"))))


# ---------------------------------------------------------------------------
# morphism action on plain maps

def test_apply_mor_identity_functor():
    f = const_map(two(), two(), "v0")
    assert apply_mor(Id(), f) == f


def test_apply_mor_const_functor():
    f = const_map(two(), two(), "v0")
    assert apply_mor(Const(diamond(), "d"), f) == identity(diamond())


def test_apply_mor_lift_of_const_bottom():
    f = const_map(two(), two(), "v0")
    got = apply_mor(Lift(Id()), f)
    assert got.mapping() == {
        "lift-bottom": "lift-bottom",
        "up(v0)": "up(v0)",
        "up(v1)": "up(v0)",
    }


def test_apply_mor_rejects_mixed_variance():
    with pytest.raises(ShapeMismatch):
        apply_mor(Fun(Id(), Id()), identity(two()))


# ---------------------------------------------------------------------------
# morphism action on pairs

def test_pr_apply_mor_identity_functor():
    f = bottom_inclusion_pair(one_point(), two())
    assert pr_apply_mor(Id(), f) == f


def test_pr_apply_mor_lift_of_bottom_inclusion():
    f = bottom_inclusion_pair(one_point(), two())
    got = pr_apply_mor(Lift(Id()), f)
    assert is_ep_pair(got.l, got.r)
    assert got.l.mapping() == {"lift-bottom": "lift-bottom", "up(*)": "up(v0)"}
    assert got.r("up(v1)") == "up(*)"


def test_pr_apply_mor_fun_preserves_identity():
    p = two()
    got = pr_apply_mor(Fun(Id(), Id()), pair_identity(p))
    assert got == pair_identity(function_space(p, p))


def test_fun_builds_one_function_space_on_an_identity():
    from epsolve.finposet import function_space_maps

    function_space_maps.cache_clear()
    pr_apply_mor.cache_clear()
    got = apply_obj(Fun(Id(), Id()), diamond())
    assert function_space_maps.cache_info().misses == 1
    assert got == function_space(diamond(), diamond())
    # a non-identity pair builds both ends
    pr_apply_mor(Fun(Id(), Id()), bottom_inclusion_pair(one_point(), two()))
    assert function_space_maps.cache_info().misses == 3


def test_pr_apply_mor_preserves_kind():
    for kind in (Kind.EP, Kind.ADJ):
        for f in enumerate_pairs(two(), chain_poset(3), kind):
            for e in (Lift(Id()), Prod(Id(), Id()), Sum(Id(), Id()), Fun(Id(), Id())):
                g = pr_apply_mor(e, f)
                assert g.kind == kind
                from epsolve.opairs import _CHECKS

                assert _CHECKS[kind](g.l, g.r)


# ---------------------------------------------------------------------------
# laws and local continuity

def exhaustive_probes(max_elems=3):
    posets = [one_point(), two(), chain_poset(3), flat(2)]
    posets = [p for p in posets if len(p) <= max_elems]
    probes = []
    for a in posets:
        for b in posets:
            for c in posets:
                for f in enumerate_pairs(a, b, Kind.EP):
                    for g in enumerate_pairs(b, c, Kind.EP):
                        probes.append([f, g])
    return probes


@pytest.mark.parametrize(
    "e",
    [Id(), Lift(Id()), Prod(Id(), Const(chain_poset(2), "2-chain")), Sum(Id(), Id()), Fun(Id(), Id()), Compose(Lift(Id()), Id())],
    ids=str,
)
def test_functor_laws(e):
    assert check_functor_laws(e, exhaustive_probes())


@pytest.mark.parametrize(
    "e",
    [Id(), Lift(Id()), Prod(Id(), Id()), Sum(Id(), Id()), Fun(Id(), Id()), Compose(Lift(Id()), Lift(Id()))],
    ids=str,
)
def test_local_continuity_on_small_posets(e):
    for a in (one_point(), two(), flat(2)):
        for b in (one_point(), two(), flat(2)):
            assert check_local_continuity(e, a, b)


def test_pair_hom_order_is_discrete():
    # each leg determines the other antitonically, so comparable pairs agree
    for a in (two(), chain_poset(3), diamond()):
        for b in (two(), chain_poset(3), diamond()):
            for kind in (Kind.EP, Kind.ADJ):
                pairs = enumerate_pairs(a, b, kind)
                for f in pairs:
                    for g in pairs:
                        if pair_leq(f, g):
                            assert f == g


def test_broken_hom_action_fails_local_continuity(monkeypatch):
    # negative control: flip the map action on one comparable pair of maps
    import epsolve.functors as functors
    from epsolve.finposet import leq_map, monotone_maps

    a, b = two(), chain_poset(3)
    maps = monotone_maps(a, b)
    f0, g0 = next(
        (f, g) for f in maps for g in maps if f != g and leq_map(f, g)
    )
    flip = {f0: g0, g0: f0}

    def broken(e, f):
        return flip.get(f, f)

    monkeypatch.setattr(functors, "apply_mor", broken)
    assert not functors.check_local_continuity(Id(), a, b)


# ---------------------------------------------------------------------------
# cocone preservation

def test_identity_preserves_canonical_colimit():
    res = preserves_cocone(Id(), colimit_finite(n1_chain()))
    assert res.colimiting is True
    assert res.locally_determined.verdict is True


def test_lift_preserves_canonical_colimit():
    res = preserves_cocone(Lift(Id()), colimit_finite(n1_chain()))
    assert res.colimiting is True
    assert res.locally_determined.verdict is True
    assert len(res.image.apex) == 3


def test_identity_on_counterexample_not_colimiting():
    res = preserves_cocone(Id(), counterexample_cocone())
    assert res.colimiting is False
    assert res.locally_determined.verdict is False
