"""Posets, monotone maps, witnessed lubs, constructions, canonical forms,
interning."""
import dataclasses
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsolve.errors import CapExceeded, InvalidPoset, NotPointed, ShapeMismatch, WitnessError
from epsolve.finposet import (
    FinPoset,
    MapChain,
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
    is_monotone,
    iso_check,
    leq_map,
    lift,
    lub_map_chain,
    make_poset,
    map_from_dict,
    map_from_json,
    map_to_json,
    monotone_maps,
    one_point,
    poset_from_json,
    poset_to_json,
    product,
    validate_map_chain,
    validate_poset,
)


def two():
    return chain_poset(2)


def three():
    return chain_poset(3)


# ---------------------------------------------------------------------------
# validation

def test_two_chain_valid():
    assert validate_poset(two()) is None


def test_missing_reflexivity_detected():
    p = FinPoset(("a", "b"), ((False, False), (False, True)))
    v = validate_poset(p)
    assert v is not None and v.axiom == "reflexivity" and v.witness == ("a",)


def test_antisymmetry_violation_detected():
    p = FinPoset(("a", "b"), ((True, True), (True, True)))
    v = validate_poset(p)
    assert v is not None and v.axiom == "antisymmetry"
    assert set(v.witness) == {"a", "b"}


def test_transitivity_violation_detected():
    p = FinPoset(
        ("a", "b", "c"),
        ((True, True, False), (False, True, True), (False, False, True)),
    )
    v = validate_poset(p)
    assert v is not None and v.axiom == "transitivity"


def test_bottom_must_be_least():
    p = FinPoset(("a", "b"), ((True, False), (False, True)), bottom="a")
    v = validate_poset(p)
    assert v is not None and v.axiom == "bottom-least"


def test_make_poset_takes_transitive_closure():
    p = make_poset(("a", "b", "c"), [("a", "b"), ("b", "c")], bottom="a")
    assert p.le("a", "c")


def test_make_poset_rejects_cycles():
    with pytest.raises(InvalidPoset):
        make_poset(("a", "b"), [("a", "b"), ("b", "a")])


def test_product_rejects_colliding_names():
    # "(a" + "," + "b,c)" and "(a,b" + "," + "c)" render alike
    p = make_poset(("a", "a,b"), [])
    q = make_poset(("b,c", "c"), [])
    with pytest.raises(InvalidPoset) as exc:
        product(p, q)
    assert exc.value.args[0].axiom == "distinct-elems"
    assert exc.value.args[0].witness == ("(a,b,c)",)


def test_function_space_rejects_colliding_names():
    # {a:x,b:x,b:x} names both a->"x,b:x", b->"x" and a->"x", b->"x,b:x"
    with pytest.raises(InvalidPoset):
        function_space(make_poset(("a", "b"), []), make_poset(("x,b:x", "x"), []))


def test_catalog_shapes():
    assert len(one_point()) == 1 and one_point().bottom == "*"
    assert len(diamond()) == 4
    assert len(flat(2)) == 3
    assert antichain(2).bottom is None


# ---------------------------------------------------------------------------
# monotone maps

def test_identity_is_monotone():
    for p in (two(), three(), diamond(), flat(3)):
        assert is_monotone(identity(p))


def test_swap_on_two_chain_not_monotone():
    swap = map_from_dict(two(), two(), {"v0": "v1", "v1": "v0"})
    assert not is_monotone(swap)


def test_const_bottom_is_monotone():
    assert is_monotone(const_map(two(), two(), "v0"))


def test_compose_identity_neutral():
    f = const_map(three(), two(), "v1")
    assert compose(identity(two()), f) == f
    assert compose(f, identity(three())) == f


def test_compose_const_bottom_absorbs():
    f = map_from_dict(two(), three(), {"v0": "v0", "v1": "v2"})
    cb = const_map(three(), two(), "v0")
    assert compose(cb, f) == const_map(two(), two(), "v0")


def test_compose_bottom_inclusions():
    # evaluate the tables: 1 -> 2-chain -> 3-chain lands on the 3-chain bottom
    i1 = const_map(one_point(), two(), "v0")
    i2 = map_from_dict(two(), three(), {"v0": "v0", "v1": "v1"})
    assert compose(i2, i1) == const_map(one_point(), three(), "v0")


def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compose(const_map(two(), two(), "v0"), const_map(two(), three(), "v0"))


def test_leq_map_examples():
    ident = identity(two())
    cb = const_map(two(), two(), "v0")
    ct = const_map(two(), two(), "v1")
    assert leq_map(cb, ident) and not leq_map(ident, cb)
    assert leq_map(ident, ct) and not leq_map(ct, ident)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_compose_associative(seed):
    rng = random.Random(seed)
    from epsolve.suite import random_poset

    p, q, r, s = (random_poset(rng, 3) for _ in range(4))
    fs = monotone_maps(p, q)
    gs = monotone_maps(q, r)
    hs = monotone_maps(r, s)
    if not (fs and gs and hs):
        return
    f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


# ---------------------------------------------------------------------------
# witnessed lubs

def test_lub_two_term_chain():
    cb = const_map(two(), two(), "v0")
    assert lub_map_chain(MapChain((cb, identity(two())), 1)) == identity(two())


def test_lub_constant_chain():
    f = const_map(two(), two(), "v0")
    assert lub_map_chain(MapChain((f,), 0)) == f


def test_lub_three_term_chain_on_three_chain():
    p = three()
    cb = const_map(p, p, "v0")
    e = map_from_dict(p, p, {"v0": "v0", "v1": "v0", "v2": "v2"})
    assert leq_map(cb, e) and leq_map(e, identity(p))
    assert lub_map_chain(MapChain((cb, e, identity(p)), 2)) == identity(p)


def test_lub_rejects_non_increasing():
    ident = identity(two())
    cb = const_map(two(), two(), "v0")
    with pytest.raises(WitnessError):
        validate_map_chain(MapChain((ident, cb), 1))


def test_lub_rejects_false_witness():
    cb = const_map(two(), two(), "v0")
    with pytest.raises(WitnessError):
        lub_map_chain(MapChain((cb, identity(two())), 0))


# ---------------------------------------------------------------------------
# constructions

def test_product_of_two_chains_is_diamond():
    p = product(two(), two())
    assert len(p) == 4
    assert p.bottom == "(v0,v0)"
    tops = [e for e in p.elems if all(p.le(x, e) for x in p.elems)]
    assert tops == ["(v1,v1)"]
    assert canonical_form(p) == canonical_form(diamond())


def test_coproduct_of_points_has_three_elements():
    s = coproduct(one_point(), one_point())
    assert len(s) == 3
    assert s.bottom == "sum-bottom"
    assert not s.le("inl(*)", "inr(*)") and not s.le("inr(*)", "inl(*)")


def test_coproduct_requires_pointed():
    with pytest.raises(NotPointed):
        coproduct(antichain(2), one_point())


def test_lift_two_chain_is_three_chain():
    assert canonical_form(lift(two())) == canonical_form(three())
    assert lift(two()).bottom == "lift-bottom"


# ---------------------------------------------------------------------------
# function spaces

def brute_force_monotone_tables(p, q):
    """Independent oracle: filter all |q|^|p| tables by direct definition."""
    out = []
    for tab in itertools.product(range(len(q)), repeat=len(p)):
        if all(
            q.leq[tab[i]][tab[j]]
            for i in range(len(p))
            for j in range(len(p))
            if p.leq[i][j]
        ):
            out.append(tab)
    return out


def test_function_space_two_two_is_three_chain():
    fs = function_space(two(), two())
    assert len(fs) == 3
    assert canonical_form(fs) == canonical_form(three())
    assert fs.bottom == "{v0:v0,v1:v0}"


def test_function_space_from_point():
    q = diamond()
    assert iso_check(function_space(one_point(), q), q) is not None


def test_function_space_three_three_has_ten_elements():
    assert len(function_space(three(), three())) == 10
    assert len(brute_force_monotone_tables(three(), three())) == 10


def test_monotone_maps_match_brute_force():
    for p, q in [(two(), three()), (diamond(), two()), (flat(2), two())]:
        got = sorted(f.table for f in monotone_maps(p, q))
        assert got == sorted(brute_force_monotone_tables(p, q))


def test_function_space_cap():
    with pytest.raises(CapExceeded):
        function_space(three(), three(), cap=5)


def test_function_space_enumeration_stops_at_cap(monkeypatch):
    import epsolve.finposet as finposet

    built = []

    def counting(*args):
        built.append(args)
        assert len(built) <= 11, "enumeration ran past cap + 1 maps"
        return MonotoneMap(*args)

    monkeypatch.setattr(finposet, "MonotoneMap", counting)
    with pytest.raises(CapExceeded, match="more than 10 monotone maps"):
        function_space_maps(antichain(8), antichain(8), cap=10)
    assert len(built) == 11


def test_function_space_maps_aligned():
    fs, maps = function_space_maps(two(), two())
    assert len(fs) == len(maps)
    for name, f in zip(fs.elems, maps):
        assert name == "{" + ",".join(f"{d}:{c}" for d, c in f.mapping().items()) + "}"


# ---------------------------------------------------------------------------
# canonical forms and isomorphism

def test_canonical_form_relabel_invariant():
    relabeled = make_poset(("x", "y"), [("x", "y")], bottom="x")
    assert canonical_form(two()) == canonical_form(relabeled)


def test_iso_check_distinguishes_chain_from_antichain():
    assert iso_check(two(), antichain(2)) is None


def test_iso_check_diamond_vs_product():
    w = iso_check(diamond(), product(two(), two()))
    assert w is not None
    assert_order_iso(w)


def assert_order_iso(w: MonotoneMap):
    assert sorted(w.table) == list(range(len(w.dom)))
    for a in w.dom.elems:
        for b in w.dom.elems:
            assert w.dom.le(a, b) == w.cod.le(w(a), w(b))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_canonical_form_agrees_with_iso_search(seed):
    rng = random.Random(seed)
    from epsolve.suite import random_poset

    p = random_poset(rng, 5)
    q = random_poset(rng, 5)
    w = iso_check(p, q)
    assert (canonical_form(p) == canonical_form(q)) == (w is not None)
    if w is not None:
        assert_order_iso(w)


def _refine_ranks_unshortened(p):
    """Refinement that runs until the class count stops growing, with no
    early exit at a discrete partition."""
    n = len(p)
    bot = p.elems.index(p.bottom) if p.bottom is not None else -1
    key = [
        (sum(p.leq[j][i] for j in range(n)), sum(p.leq[i][j] for j in range(n)), i == bot)
        for i in range(n)
    ]
    while True:
        ranks = {k: r for r, k in enumerate(sorted(set(key)))}
        rk = [ranks[k] for k in key]
        new = [
            (
                rk[i],
                tuple(sorted(rk[j] for j in range(n) if p.leq[j][i])),
                tuple(sorted(rk[j] for j in range(n) if p.leq[i][j])),
            )
            for i in range(n)
        ]
        if len(set(new)) == len(set(key)):
            return rk
        key = new


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_refine_ranks_matches_unshortened_loop(seed):
    from epsolve.finposet import _refine_ranks
    from epsolve.suite import random_poset

    rng = random.Random(seed)
    for p in (random_poset(rng, 8), lift(random_poset(rng, 4, pointed=True)), antichain(rng.randint(1, 4))):
        assert _refine_ranks(p) == _refine_ranks_unshortened(p)


# ---------------------------------------------------------------------------
# JSON

def test_poset_json_round_trip():
    for p in (one_point(), two(), diamond(), antichain(2)):
        assert poset_from_json(poset_to_json(p)) == p


def test_poset_json_rejects_invalid():
    bad = poset_to_json(two())
    bad["leq"][0][0] = False
    with pytest.raises(InvalidPoset):
        poset_from_json(bad)


def test_map_json_round_trip():
    f = map_from_dict(two(), three(), {"v0": "v0", "v1": "v2"})
    assert map_from_json(map_to_json(f)) == f


# ---------------------------------------------------------------------------
# interning: equal fields give one object, and == is identity

def test_poset_construction_is_interned():
    e, l = ("a", "b"), ((True, True), (False, True))
    p = FinPoset(e, l)
    assert p is FinPoset(e, l, None) is FinPoset(elems=e, leq=l, bottom=None)
    assert p is FinPoset(e, leq=l) is dataclasses.replace(p)
    assert p is make_poset(("a", "b"), [("a", "b")])
    assert p != FinPoset(e, l, "a") and p != FinPoset(("a", "c"), l)


def test_map_construction_is_interned():
    f = MonotoneMap(two(), three(), (0, 2))
    assert f is MonotoneMap(dom=two(), cod=three(), table=(0, 2))
    assert f is map_from_dict(two(), three(), {"v0": "v0", "v1": "v2"})
    assert f is map_from_json(map_to_json(f))
    assert compose(identity(three()), f) is f
    assert f != MonotoneMap(two(), three(), (0, 1))


def test_poset_json_round_trip_is_the_same_object():
    assert poset_from_json(poset_to_json(diamond())) is diamond()


def test_unreferenced_poset_is_collected():
    p = FinPoset(("only-here",), ((True,),))
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None
    q = FinPoset(("only-here",), ((True,),))
    assert q is FinPoset(("only-here",), ((True,),), None)
