"""Finite O-categories, presheaves, the enriched Yoneda checks and the
proof-step replay."""
import hashlib
import itertools
import json
import random
import re

import pytest

from epsolve.chains import Cocone, OmegaChain, colimit_finite
from epsolve.demo import embedded_canonical_colimit, two_object_category, yoneda_demo_report
from epsolve.equations import json_bytes
from epsolve.errors import InvalidCategory, ShapeMismatch
from epsolve.finposet import chain_poset, compose, flat, identity, one_point
from epsolve.opairs import Kind, bottom_inclusion_pair, pair_identity
from epsolve.presheaf import (
    FinOCategory,
    NatTrans,
    build_poset_category,
    category_to_json,
    check_fully_faithful,
    enumerate_nat_trans,
    is_natural,
    nat_compose,
    nat_leq,
    pointwise_lub,
    validate_category,
    validate_presheaf,
    yoneda,
    yoneda_mor,
)
from epsolve.suite import counterexample_cocone


@pytest.fixture(scope="module")
def kctx():
    return two_object_category()


def one_object_category():
    return build_poset_category({"one": one_point()})


# ---------------------------------------------------------------------------
# categories

def test_one_object_category_valid():
    kc = one_object_category()
    assert kc.cat.objects == ("one",)
    assert len(kc.cat.hom[("one", "one")]) == 1


def test_two_object_hom_sizes(kctx):
    k = kctx.cat
    sizes = {(a, b): len(k.hom[(a, b)]) for a in k.objects for b in k.objects}
    assert sizes == {
        ("one", "one"): 1,
        ("one", "two"): 2,
        ("two", "one"): 1,
        ("two", "two"): 3,
    }


def _with_row(k: FinOCategory, key: tuple, f: int, row) -> FinOCategory:
    """k with row f of the composition table at key replaced."""
    table = list(k.comp[key])
    table[f] = row
    return FinOCategory(k.objects, k.hom, {**k.comp, key: tuple(table)}, k.ids)


def test_corrupted_composition_rejected(kctx):
    k = kctx.cat
    key = ("one", "two", "two")
    row = k.comp[key][0]
    other = next(t for t in range(len(k.hom[("one", "two")])) if t != row[0])
    with pytest.raises(InvalidCategory):
        validate_category(_with_row(k, key, 0, (other, *row[1:])))


def test_identity_not_a_position_rejected(kctx):
    k = kctx.cat
    for bad in (-1, len(k.hom[("two", "two")]), True, k.hom[("two", "two")].elems[0]):
        ids = dict(k.ids, two=bad)
        with pytest.raises(InvalidCategory):
            validate_category(FinOCategory(k.objects, k.hom, k.comp, ids))


def test_composite_not_a_position_rejected(kctx):
    k = kctx.cat
    key = ("one", "two", "two")
    row = k.comp[key][0]
    for bad in (-1, len(k.hom[("one", "two")]), True):
        with pytest.raises(InvalidCategory, match="positions"):
            validate_category(_with_row(k, key, 0, (bad, *row[1:])))


def _validate_by_triples(k: FinOCategory) -> None:
    """Independent oracle: the laws checked one composite at a time, by the
    O(|objects|^4 h^3) loops that `validate_category`'s row checks replace,
    with monotonicity tested jointly in both arguments."""
    for a in k.objects:
        i = k.ids[a]
        if not (type(i) is int and 0 <= i < len(k.hom[(a, a)])):
            raise InvalidCategory(f"identity of {a} is not a position in hom({a},{a})")
    for (a, b, c), table in k.comp.items():
        if not all(type(h) is int and 0 <= h < len(k.hom[(a, c)]) for row in table for h in row):
            raise InvalidCategory(f"a composite {a}->{b}->{c} is not a position in hom({a},{c})")
    for a, b in itertools.product(k.objects, repeat=2):
        for f in range(len(k.hom[(a, b)])):
            if k.compose(a, a, b, k.ids[a], f) != f:
                raise InvalidCategory(f"left unit fails at {f}: {a}->{b}")
            if k.compose(a, b, b, f, k.ids[b]) != f:
                raise InvalidCategory(f"right unit fails at {f}: {a}->{b}")
    for a, b, c, d in itertools.product(k.objects, repeat=4):
        for f in range(len(k.hom[(a, b)])):
            for g in range(len(k.hom[(b, c)])):
                gf = k.compose(a, b, c, f, g)
                for h in range(len(k.hom[(c, d)])):
                    if k.compose(a, c, d, gf, h) != k.compose(a, b, d, f, k.compose(b, c, d, g, h)):
                        raise InvalidCategory(f"associativity fails at ({f},{g},{h})")
    for a, b, c in itertools.product(k.objects, repeat=3):
        up_ab, up_bc, up_ac = k.hom[(a, b)].up, k.hom[(b, c)].up, k.hom[(a, c)].up
        for f1, f2 in itertools.product(range(len(up_ab)), repeat=2):
            for g1, g2 in itertools.product(range(len(up_bc)), repeat=2):
                if up_ab[f1] >> f2 & 1 and up_bc[g1] >> g2 & 1:
                    if not up_ac[k.compose(a, b, c, f1, g1)] >> k.compose(a, b, c, f2, g2) & 1:
                        raise InvalidCategory(f"composition not monotone at ({f1},{g1}) <= ({f2},{g2})")


def _error(check, k: FinOCategory) -> str | None:
    try:
        check(k)
    except InvalidCategory as exc:
        return str(exc)
    return None


def test_row_checks_agree_with_the_triple_loop_oracle():
    k = build_poset_category({"one": one_point(), "two": chain_poset(2), "three": chain_poset(3)}).cat
    assert _error(validate_category, k) is None and _error(_validate_by_triples, k) is None
    rng = random.Random(0)
    keys = sorted(k.comp)
    same_law = 0
    for _ in range(50):
        # one entry of one row set to another position, or outside a one-element hom(a, c)
        key = rng.choice(keys)
        f = rng.randrange(len(k.comp[key]))
        row = list(k.comp[key][f])
        g = rng.randrange(len(row))
        n = len(k.hom[(key[0], key[2])])
        row[g] = rng.choice([h for h in range(n) if h != row[g]] or [-1, n])
        bad = _with_row(k, key, f, tuple(row))
        got, want = _error(validate_category, bad), _error(_validate_by_triples, bad)
        assert (got is None) == (want is None), (key, f, row)
        # units and associativity report the oracle's first witness
        if want is not None and want.startswith(("left", "right", "associativity")):
            assert got == want
            same_law += 1
    assert same_law > 10


def _three_object_category(n_ab: int, n_bc: int, abc: tuple) -> FinOCategory:
    """Objects a, b, c whose only morphisms besides the identities are
    n_ab chained ones a -> b, n_bc chained ones b -> c and two a -> c; the
    composites of a -> b -> c are the rows `abc`."""
    objs = ("a", "b", "c")
    sizes = {("a", "b"): n_ab, ("b", "c"): n_bc, ("a", "c"): 2}
    hom = {(x, y): chain_poset(1 if x == y else sizes.get((x, y), 0)) for x in objs for y in objs}

    def rows(x, y, z):
        if (x, y, z) == ("a", "b", "c"):
            return abc
        if x == y:
            return (tuple(range(len(hom[(y, z)]))),)
        return tuple((f,) if y == z else () for f in range(len(hom[(x, y)])))

    comp = {(x, y, z): rows(x, y, z) for x, y, z in itertools.product(objs, repeat=3)}
    return FinOCategory(objs, hom, comp, dict.fromkeys(objs, 0))


def test_three_object_hand_category_valid():
    validate_category(_three_object_category(2, 1, ((0,), (1,))))
    validate_category(_three_object_category(1, 2, ((0, 1),)))


def test_planted_breaks_rejected(kctx):
    k = kctx.cat
    ids, two = k.ids, ("two", "two", "two")
    assoc = _with_row(k, two, 0, (0, 0, 0))  # const v1 ∘ const v0 read as const v0
    shape = "comp two->two->two is not 3 rows of 3 positions"
    breaks = [
        ("left unit fails at 0: two->two", _with_row(k, two, ids["two"], (2, 1, 2))),
        ("associativity fails at (0,0,2)", assoc),
        # f0 <= f1 but g∘f0 = h1 > h0 = g∘f1
        ("first argument not monotone at 0 <= 1", _three_object_category(2, 1, ((1,), (0,)))),
        # g0 <= g1 but g0∘f = h1 > h0 = g1∘f
        ("second argument not monotone at 0 <= 1", _three_object_category(1, 2, ((1, 0),))),
        (shape, _with_row(k, two, 0, k.comp[two][0][:-1])),  # a short row
        (shape, FinOCategory(k.objects, k.hom, {**k.comp, two: k.comp[two][:-1]}, ids)),  # a missing row
        (shape, FinOCategory(k.objects, k.hom, {key: t for key, t in k.comp.items() if key != two}, ids)),
    ]
    for message, bad in breaks:
        with pytest.raises(InvalidCategory, match=re.escape(message)):
            validate_category(bad)
    assert _error(_validate_by_triples, assoc) == "associativity fails at (0,0,2)"


def test_map_of_token_rejects_non_positions(kctx):
    hom = kctx.cat.hom[("two", "two")]
    for bad in (-1, len(hom), True, hom.elems[0]):
        with pytest.raises(ShapeMismatch):
            kctx.map_of_token("two", "two", bad)


def test_token_map_round_trip(kctx):
    k = kctx.cat
    for a in k.objects:
        for b in k.objects:
            for t in range(len(k.hom[(a, b)])):
                m = kctx.map_of_token(a, b, t)
                assert kctx.token_of_map(a, b, m) == t


# ---------------------------------------------------------------------------
# yoneda objects

def test_yoneda_on_one_object_category():
    kc = one_object_category()
    y = yoneda(kc.cat, "one")
    assert len(y.at["one"]) == 1


def test_yoneda_at_two_is_three_chain(kctx):
    y = yoneda(kctx.cat, "two")
    at_two = y.at["two"]
    assert len(at_two) == 3  # monotone self-maps of the 2-chain
    assert len(y.at["one"]) == 2


def test_yoneda_of_point_is_terminal(kctx):
    y = yoneda(kctx.cat, "one")
    assert len(y.at["two"]) == 1
    assert len(y.at["one"]) == 1


def test_yoneda_presheaves_validate(kctx):
    for x in kctx.cat.objects:
        validate_presheaf(kctx.cat, yoneda(kctx.cat, x))


# ---------------------------------------------------------------------------
# yoneda on morphisms

def test_yoneda_mor_identity_is_identity(kctx):
    k = kctx.cat
    for x in k.objects:
        eta = yoneda_mor(k, x, x, k.ids[x])
        y = yoneda(k, x)
        for a in k.objects:
            assert eta.components[a] == identity(y.at[a])


def test_yoneda_mor_respects_composition(kctx):
    k = kctx.cat
    for a in k.objects:
        for b in k.objects:
            for c in k.objects:
                for f in range(len(k.hom[(a, b)])):
                    for g in range(len(k.hom[(b, c)])):
                        gf = k.compose(a, b, c, f, g)
                        lhs = yoneda_mor(k, a, c, gf)
                        rhs = nat_compose(yoneda_mor(k, b, c, g), yoneda_mor(k, a, b, f))
                        assert lhs == rhs


def test_yoneda_mor_monotone(kctx):
    k = kctx.cat
    for a in k.objects:
        for b in k.objects:
            hom = k.hom[(a, b)]
            for f, row in enumerate(hom.up):
                for g in range(len(hom)):
                    if row >> g & 1:
                        assert nat_leq(yoneda_mor(k, a, b, f), yoneda_mor(k, a, b, g))


def test_yoneda_mor_is_natural(kctx):
    k = kctx.cat
    for f in range(len(k.hom[("one", "two")])):
        eta = yoneda_mor(k, "one", "two", f)
        assert is_natural(k, yoneda(k, "one"), yoneda(k, "two"), eta)


def test_yoneda_mor_rejects_non_positions(kctx):
    k = kctx.cat
    hom = k.hom[("one", "two")]
    for bad in (-1, len(hom), True, hom.elems[0]):
        with pytest.raises(ShapeMismatch):
            yoneda_mor(k, "one", "two", bad)


# ---------------------------------------------------------------------------
# natural transformations

def test_nat_counts(kctx):
    k = kctx.cat
    ys = {x: yoneda(k, x) for x in k.objects}
    assert len(enumerate_nat_trans(k, ys["one"], ys["two"])) == 2
    assert len(enumerate_nat_trans(k, ys["two"], ys["one"])) == 1


def test_nat_self_contains_identity(kctx):
    k = kctx.cat
    for x in k.objects:
        y = yoneda(k, x)
        ident = NatTrans({a: identity(y.at[a]) for a in k.objects})
        assert ident in enumerate_nat_trans(k, y, y)


def test_fully_faithful_one_object():
    assert check_fully_faithful(one_object_category().cat)


def test_fully_faithful_two_object(kctx):
    assert check_fully_faithful(kctx.cat)


def test_two_object_nat_counts_are_the_hom_sizes(kctx):
    """Pinned: y is fully faithful on {1, 2-chain}, with |Nat(y a, y b)| = |hom(a, b)|."""
    k = kctx.cat
    ys = {x: yoneda(k, x) for x in k.objects}
    counts = {(a, b): len(enumerate_nat_trans(k, ys[a], ys[b])) for a in k.objects for b in k.objects}
    assert counts == {("one", "one"): 1, ("one", "two"): 2, ("two", "one"): 1, ("two", "two"): 3}
    assert check_fully_faithful(k) is True


# ---------------------------------------------------------------------------
# pointwise lubs

def test_pointwise_lub_constant_chain(kctx):
    k = kctx.cat
    eta = yoneda_mor(k, "two", "two", k.ids["two"])
    assert pointwise_lub([eta, eta], 0) == eta


def test_pointwise_lub_two_term_chain(kctx):
    k = kctx.cat
    # const-⊥ endomap of the 2-chain sits below the identity in hom(two,two)
    hom = k.hom[("two", "two")]
    bot = hom.bot
    lo = yoneda_mor(k, "two", "two", bot)
    hi = yoneda_mor(k, "two", "two", k.ids["two"])
    assert pointwise_lub([lo, hi], 1) == hi
    assert is_natural(k, yoneda(k, "two"), yoneda(k, "two"), pointwise_lub([lo, hi], 1))


# ---------------------------------------------------------------------------
# proof-step replay

def test_proof_step_identity_cocone(kctx):
    from epsolve.presheaf import verify_proof_step

    two = chain_poset(2)
    d = OmegaChain((two,) * 3, (pair_identity(two),) * 2, 0)
    k = Cocone(d, pair_identity(two))
    assert verify_proof_step(kctx, k) is True


def test_proof_step_embedded_canonical_colimit(kctx):
    from epsolve.presheaf import verify_proof_step

    assert verify_proof_step(kctx, embedded_canonical_colimit()) is True


def test_proof_step_counterexample_fails(kctx):
    from epsolve.presheaf import verify_proof_step

    assert verify_proof_step(kctx, counterexample_cocone()) is False


def test_demo_report_shape():
    rep = yoneda_demo_report()
    assert rep["fully_faithful"] is True
    assert rep["nat_counts"]["one->two"] == 2
    assert rep["nat_counts"]["two->one"] == 1
    assert rep["proof_step_canonical"] is True
    assert rep["proof_step_counterexample"] is False


def test_category_json_shape(kctx):
    payload = category_to_json(kctx.cat)
    assert set(payload["objects"]) == {"one", "two"}


#: sha256 of json.dumps(category_to_json(...), sort_keys=True), the names
#: rendered from positions
GOLDEN_CATEGORIES = {
    "one,two": "486516f2f9e993e0784be943f90a3021651dc3d5580f872d13b15f153a7e1c35",
    "one,two,three,flat": "c113351f74dfb4c7ede43f126b78aa39a83218ead948c0e0318a8022f1554990",
}


@pytest.mark.parametrize("objects", GOLDEN_CATEGORIES)
def test_category_json_golden(objects):
    posets = {"one": one_point(), "two": chain_poset(2), "three": chain_poset(3), "flat": flat(2)}
    kc = build_poset_category({name: posets[name] for name in objects.split(",")})
    raw = json.dumps(category_to_json(kc.cat), sort_keys=True).encode()
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_CATEGORIES[objects]


def test_four_object_category_wire_bytes_pinned():
    """The written form of the category on {1, 2-chain, 3-chain, flat(2)}."""
    posets = {"one": one_point(), "two": chain_poset(2), "three": chain_poset(3), "flat2": flat(2)}
    raw = json_bytes(category_to_json(build_poset_category(posets).cat))
    assert hashlib.sha256(raw).hexdigest() == "3ddd1fa74d5d6eae3c063d63399cde30de12e82ba758d84b8221432eb84a8139"
