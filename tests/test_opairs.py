"""Embedding-projection and adjoint pairs: predicates, algebra, enumeration,
interning."""
import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsolve import finposet
from epsolve.errors import CapExceeded, InvalidPair, ShapeMismatch
from epsolve.finposet import (
    FinPoset,
    MonotoneMap,
    antichain,
    chain_poset,
    const_map,
    diamond,
    flat,
    identity,
    map_from_dict,
    monotone_maps,
    one_point,
)
from epsolve.opairs import (
    Kind,
    PairHom,
    bottom_inclusion_pair,
    derived_right_leg,
    enumerate_pairs,
    is_adjoint_pair,
    is_ep_pair,
    is_iso_pair,
    pair_compose,
    pair_from_json,
    pair_identity,
    pair_inverse,
    pair_leq,
    pair_to_json,
)
from tests.test_finposet import small_posets


def two():
    return chain_poset(2)


def three():
    return chain_poset(3)


# ---------------------------------------------------------------------------
# the two predicates

def test_bottom_inclusion_is_ep():
    l = const_map(one_point(), two(), "v0")
    r = const_map(two(), one_point(), "*")
    assert is_ep_pair(l, r)
    assert is_adjoint_pair(l, r)  # every ep pair is an adjoint pair


def test_collapse_with_top_section_is_adjoint_not_ep():
    # pointwise: r∘l = const-⊤ >= id on the 2-chain, l∘r = id on the point
    l = const_map(two(), one_point(), "*")
    r = const_map(one_point(), two(), "v1")
    assert not is_ep_pair(l, r)
    assert is_adjoint_pair(l, r)


def test_top_inclusion_is_neither():
    # pointwise: l∘r = const-⊤ on the 2-chain is not below the identity
    l = const_map(one_point(), two(), "v1")
    r = const_map(two(), one_point(), "*")
    assert not is_ep_pair(l, r)
    assert not is_adjoint_pair(l, r)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_predicates_match_defining_equations(seed):
    # oracle: the defining (in)equations written out pointwise over every
    # pair of monotone maps between two small random posets
    rng = random.Random(seed)
    from epsolve.suite import random_poset

    a, b = random_poset(rng, 3), random_poset(rng, 3)
    for l in monotone_maps(a, b):
        for r in monotone_maps(b, a):
            lr_below_id = all(b.le(l(r(y)), y) for y in b.elems)
            rl_is_id = all(r(l(x)) == x for x in a.elems)
            id_below_rl = all(a.le(x, r(l(x))) for x in a.elems)
            assert is_ep_pair(l, r) == (rl_is_id and lr_below_id)
            assert is_adjoint_pair(l, r) == (lr_below_id and id_below_rl)


def test_predicates_reject_bad_shapes():
    l, r = const_map(one_point(), two(), "v0"), const_map(three(), one_point(), "*")
    with pytest.raises(ShapeMismatch):
        is_ep_pair(l, r)
    with pytest.raises(ShapeMismatch):
        PairHom(Kind.ADJ, l, r)


def test_pair_hom_rejects_invalid():
    # legs that form no pair of either kind: l sends the point to the top
    l, r = const_map(one_point(), two(), "v1"), const_map(two(), one_point(), "*")
    for kind in Kind:
        with pytest.raises(InvalidPair, match=f"^not a valid {kind.value} pair$"):
            PairHom(kind, l, r)
        with pytest.raises(InvalidPair, match=f"^not a valid {kind.value} pair$"):
            PairHom(kind=kind, l=l, r=r)
    # a rejected pair leaves nothing in the intern table
    assert not any(
        key[0] is PairHom and key[2] is l and key[3] is r for key in finposet._INTERNED.keys()
    )


# ---------------------------------------------------------------------------
# algebra

def test_pair_compose_identity_neutral():
    f = bottom_inclusion_pair(one_point(), two())
    assert pair_compose(pair_identity(two()), f) == f
    assert pair_compose(f, pair_identity(one_point())) == f


def test_compose_bottom_inclusions():
    # evaluate both legs of 1 -> 2-chain -> 3-chain
    f = bottom_inclusion_pair(one_point(), two())
    g = PairHom(
        Kind.EP,
        map_from_dict(two(), three(), {"v0": "v0", "v1": "v2"}),
        map_from_dict(three(), two(), {"v0": "v0", "v1": "v0", "v2": "v1"}),
    )
    gf = pair_compose(g, f)
    assert gf.l == const_map(one_point(), three(), "v0")
    assert gf.r == const_map(three(), one_point(), "*")
    assert gf == bottom_inclusion_pair(one_point(), three())


def test_composition_of_valid_pairs_is_valid():
    for a, b, c in [(one_point(), two(), three()), (two(), three(), diamond())]:
        for f in enumerate_pairs(a, b, Kind.EP):
            for g in enumerate_pairs(b, c, Kind.EP):
                h = pair_compose(g, f)
                assert is_ep_pair(h.l, h.r)


def test_pair_compose_rejects_kind_and_shape_mismatch():
    f = bottom_inclusion_pair(one_point(), two())
    with pytest.raises(ShapeMismatch):
        pair_compose(PairHom(Kind.ADJ, f.l, f.r), f)
    with pytest.raises(ShapeMismatch):
        pair_compose(f, f)


def test_pair_leq_reflexive():
    f = bottom_inclusion_pair(one_point(), two())
    assert pair_leq(f, f)


def test_point_to_two_chain_hom_is_a_point():
    # brute force over all map pairs: exactly one ep pair 1 -> 2-chain
    found = [
        (l, r)
        for l in monotone_maps(one_point(), two())
        for r in monotone_maps(two(), one_point())
        if is_ep_pair(l, r)
    ]
    assert len(found) == 1
    assert enumerate_pairs(one_point(), two(), Kind.EP) == (
        bottom_inclusion_pair(one_point(), two()),
    )


def test_pair_leq_is_partial_order_on_hom():
    pairs = enumerate_pairs(two(), three(), Kind.EP)
    assert pairs
    for f in pairs:
        assert pair_leq(f, f)
        for g in pairs:
            if pair_leq(f, g) and pair_leq(g, f):
                assert f == g
            for h in pairs:
                if pair_leq(f, g) and pair_leq(g, h):
                    assert pair_leq(f, h)


def test_is_iso_and_inverse():
    i = pair_identity(diamond())
    assert is_iso_pair(i)
    assert pair_inverse(i) == i
    assert not is_iso_pair(bottom_inclusion_pair(one_point(), two()))
    with pytest.raises(InvalidPair):
        pair_inverse(bottom_inclusion_pair(one_point(), two()))


# ---------------------------------------------------------------------------
# enumeration

def brute_force_pairs(a, b, kind):
    """Independent oracle: the full double loop over both hom-sets."""
    check = is_ep_pair if kind == Kind.EP else is_adjoint_pair
    return sorted(
        (l.table, r.table)
        for l in monotone_maps(a, b)
        for r in monotone_maps(b, a)
        if check(l, r)
    )


@pytest.mark.parametrize("kind", [Kind.EP, Kind.ADJ])
def test_enumerate_pairs_matches_brute_force(kind):
    posets = [one_point(), two(), three(), diamond(), flat(2)]
    for a in posets:
        for b in posets:
            got = sorted((f.l.table, f.r.table) for f in enumerate_pairs(a, b, kind))
            assert got == brute_force_pairs(a, b, kind)


def test_enumerate_pairs_contains_identity():
    for p in (one_point(), two(), diamond()):
        assert pair_identity(p) in enumerate_pairs(p, p, Kind.EP)


def test_no_ep_pair_into_smaller_poset():
    assert enumerate_pairs(two(), one_point(), Kind.EP) == ()


def test_adjoint_pair_into_smaller_poset_exists():
    assert enumerate_pairs(two(), one_point(), Kind.ADJ)


def walk_and_filter(a, b, kind):
    """Oracle for the order of enumerate_pairs: every monotone map a -> b
    as a left leg, kept when its derived right leg passes the kind's check."""
    check = is_ep_pair if kind == Kind.EP else is_adjoint_pair
    out = []
    for l in monotone_maps(a, b):
        r = derived_right_leg(l)
        if r is not None and check(l, r):
            out.append(PairHom(kind, l, r))
    return tuple(out)


any_posets = st.booleans().flatmap(lambda pointed: small_posets(5, pointed))


@given(any_posets, any_posets)
@settings(max_examples=200, deadline=None)
def test_enumerate_pairs_is_walk_and_filter_in_order(a, b):
    # one walk over left legs yields both kinds; the tuple, order included, is
    # the filtered walk over every monotone map, so seeded draws from it hold
    for kind in Kind:
        assert enumerate_pairs(a, b, kind) == walk_and_filter(a, b, kind)


def test_enumeration_builds_only_kept_pairs(monkeypatch):
    # no monotone map walked, no right leg derived, two legs built per pair;
    # 3-chain into flat(6): 19 monotone maps, no ep pair, 13 adjoint pairs
    import epsolve.opairs as opairs

    def no_derive(l):
        raise AssertionError("derived_right_leg called")

    built = []

    def counting(*args):
        built.append(args)
        return MonotoneMap(*args)

    for a, b in [(three(), flat(6)), (diamond(), diamond()), (two(), one_point()), (flat(2), three())]:
        for kind in Kind:
            enumerate_pairs.cache_clear()
            monotone_maps.cache_clear()
            built.clear()
            monkeypatch.setattr(opairs, "derived_right_leg", no_derive)
            monkeypatch.setattr(opairs, "MonotoneMap", counting)
            got = enumerate_pairs(a, b, kind)
            monkeypatch.undo()
            assert monotone_maps.cache_info().misses == 0
            assert len(built) == 2 * len(got)
            assert got == walk_and_filter(a, b, kind)


def test_enumeration_cap(monkeypatch):
    import epsolve.opairs as opairs

    enumerate_pairs.cache_clear()
    monkeypatch.setattr(opairs, "HARD_ENUM_LIMIT", 5)
    # the six permutations of a 3-antichain
    with pytest.raises(CapExceeded, match="more than 5 ADJ pairs from 3 to 3 elements"):
        enumerate_pairs(antichain(3), antichain(3), Kind.ADJ)
    monkeypatch.setattr(opairs, "HARD_ENUM_LIMIT", 6)
    assert len(enumerate_pairs(antichain(3), antichain(3), Kind.EP)) == 6


def test_enumeration_walks_a_long_source_without_recursion():
    # the walk has one position per element of the source
    (f,) = enumerate_pairs(chain_poset(1200), one_point(), Kind.ADJ)
    assert f.r.table == (1199,)


def test_enumeration_leaves_no_reference_cycle():
    gc.collect()
    enumerate_pairs.__wrapped__(diamond(), flat(3), Kind.ADJ)
    assert gc.collect() == 0


def test_adjoint_enumeration_past_the_monotone_map_limit():
    # 7^7 monotone maps pass HARD_ENUM_LIMIT; the 7! pairs do not
    pairs = enumerate_pairs(antichain(7), antichain(7), Kind.ADJ)
    assert len(pairs) == 5040 and all(is_iso_pair(f) for f in pairs)


@pytest.mark.parametrize("kind", list(Kind))
def test_enumeration_of_empty_posets(kind):
    # a leaf with an empty domain still needs a right-leg value for each b
    empty = FinPoset((), ())
    assert len(enumerate_pairs(empty, empty, kind)) == 1
    assert enumerate_pairs(empty, one_point(), kind) == ()
    assert enumerate_pairs(one_point(), empty, kind) == ()


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_derived_right_leg_is_the_unique_partner(seed):
    rng = random.Random(seed)
    from epsolve.suite import random_poset

    a = random_poset(rng, 4)
    b = random_poset(rng, 4)
    for l in monotone_maps(a, b):
        partners = [r for r in monotone_maps(b, a) if is_adjoint_pair(l, r)]
        r = derived_right_leg(l)
        if partners:
            assert len(partners) == 1 and r == partners[0]
        else:
            assert r is None or not is_adjoint_pair(l, r)


# ---------------------------------------------------------------------------
# JSON

def test_pair_json_round_trip():
    f = bottom_inclusion_pair(one_point(), two())
    assert pair_from_json(pair_to_json(f)) == f


def test_pair_construction_is_interned():
    f = bottom_inclusion_pair(one_point(), two())
    assert f is PairHom(Kind.EP, f.l, f.r) is PairHom(kind=Kind.EP, l=f.l, r=f.r)
    assert f is pair_from_json(pair_to_json(f)) is dataclasses.replace(f)
    assert f is enumerate_pairs(one_point(), two(), Kind.EP)[0]
    assert f != PairHom(Kind.ADJ, f.l, f.r)


def test_keyword_construction_of_a_live_pair_runs_no_check(monkeypatch):
    import epsolve.opairs as opairs

    f = bottom_inclusion_pair(one_point(), two())
    checked = []
    monkeypatch.setitem(opairs._CHECKS, Kind.EP, lambda l, r: checked.append((l, r)) or True)
    assert PairHom(kind=Kind.EP, l=f.l, r=f.r) is f
    assert PairHom(Kind.EP, f.l, r=f.r) is f
    assert dataclasses.replace(f) is f
    assert checked == []


def test_pair_json_rejects_invalid():
    f = bottom_inclusion_pair(one_point(), two())
    bad = pair_to_json(f)
    bad["l"]["table"]["*"] = "v1"  # turn l into the top inclusion
    with pytest.raises(InvalidPair):
        pair_from_json(bad)


def test_pair_json_with_a_non_monotone_leg_is_a_shape_mismatch():
    bad = pair_to_json(pair_identity(two()))
    bad["r"]["table"] = {"v0": "v1", "v1": "v0"}
    with pytest.raises(ShapeMismatch, match="not monotone"):
        pair_from_json(bad)
