"""Finite O-categories, presheaves, the enriched Yoneda checks and the
proof-step replay."""
import hashlib
import json

import pytest

from epsolve.chains import Cocone, OmegaChain, colimit_finite
from epsolve.demo import embedded_canonical_colimit, two_object_category, yoneda_demo_report
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


def test_corrupted_composition_rejected(kctx):
    k = kctx.cat
    bad_comp = {key: dict(table) for key, table in k.comp.items()}
    key = ("one", "two", "two")
    (fg, h), *_ = bad_comp[key].items()
    other = next(t for t in range(len(k.hom[("one", "two")])) if t != h)
    bad_comp[key][fg] = other
    bad = FinOCategory(k.objects, k.hom, bad_comp, k.ids)
    with pytest.raises(InvalidCategory):
        validate_category(bad)


def test_identity_not_a_position_rejected(kctx):
    k = kctx.cat
    for bad in (-1, len(k.hom[("two", "two")]), True, k.hom[("two", "two")].elems[0]):
        ids = dict(k.ids, two=bad)
        with pytest.raises(InvalidCategory):
            validate_category(FinOCategory(k.objects, k.hom, k.comp, ids))


def test_composite_not_a_position_rejected(kctx):
    k = kctx.cat
    bad_comp = {key: dict(table) for key, table in k.comp.items()}
    key = ("one", "two", "two")
    fg = next(iter(bad_comp[key]))
    bad_comp[key][fg] = -1
    with pytest.raises(InvalidCategory):
        validate_category(FinOCategory(k.objects, k.hom, bad_comp, k.ids))


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
