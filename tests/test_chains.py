"""Chains of pairs, cocones, canonical colimits, local determination."""
import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsolve.chains import (
    Cocone,
    LdReport,
    OmegaChain,
    chain_from_json,
    chain_to_json,
    check_local_determination,
    check_local_determination_adj,
    check_local_determination_ep,
    cocone_from_json,
    cocone_from_legs,
    cocone_to_json,
    colimit_finite,
    is_colimiting,
    is_colimiting_by_enumeration,
    link_composite,
    thread_approximant,
)
from epsolve import finposet
from epsolve.equations import iterate, parse_equation
from epsolve.errors import ShapeMismatch, WitnessError
from epsolve.finposet import (
    chain_poset,
    compose,
    flat,
    identity,
    leq_map,
    monotone_maps,
    one_point,
)
from epsolve.opairs import (
    Kind,
    PairHom,
    bottom_inclusion_pair,
    enumerate_pairs,
    is_iso_pair,
    pair_compose,
    pair_identity,
    pair_inverse,
)
from epsolve.suite import apex_catalog, cocones_over, counterexample_cocone, random_chain


def two():
    return chain_poset(2)


def n1_chain() -> OmegaChain:
    """1 -> 2-chain via the bottom inclusion, stabilized at 1."""
    return OmegaChain(
        (one_point(), two()), (bottom_inclusion_pair(one_point(), two()),), 1
    )


def constant_chain(p, length=3, kind=Kind.EP) -> OmegaChain:
    return OmegaChain((p,) * length, (pair_identity(p, kind),) * (length - 1), 0)


# ---------------------------------------------------------------------------
# chain validation and link composites

def _interned_chain(objects, links) -> bool:
    return any(
        key[0] is OmegaChain and key[1] == objects and key[2] == links
        for key in finposet._INTERNED.keys()
    )


def test_validate_accepts_n1_chain():
    d = n1_chain()
    assert d is n1_chain()
    assert d.kind == Kind.EP and d.stab_index == 1


def test_validate_rejects_false_witness():
    # the bottom inclusion into the 2-chain is no iso, so it cannot lie at
    # or beyond the witness
    objects, links = (one_point(), two()), (bottom_inclusion_pair(one_point(), two()),)
    for stab in (0, 2, -1):
        with pytest.raises(WitnessError):
            OmegaChain(objects, links, stab)
    with pytest.raises(WitnessError):
        OmegaChain(objects=objects, links=links, stab_index=0)
    # a rejected chain leaves nothing in the intern table
    assert not _interned_chain(objects, links)


def test_chain_rejects_bad_links():
    pt, p = one_point(), two()
    up = bottom_inclusion_pair(pt, p)
    bad = [
        ((pt, p, p), (up,)),  # one link short
        ((p, p), (up,)),  # link 0 starts at the wrong object
        ((pt, p, p), (up, pair_identity(p, Kind.ADJ))),  # mixed kinds
    ]
    for objects, links in bad:
        with pytest.raises(ShapeMismatch):
            OmegaChain(objects, links)
        assert not _interned_chain(objects, links)


def test_keyword_construction_of_a_live_chain_runs_no_check(monkeypatch):
    d = n1_chain()
    checked = []
    monkeypatch.setattr(OmegaChain, "__post_init__", lambda self: checked.append(self))
    assert OmegaChain(objects=d.objects, links=d.links, stab_index=1) is d
    assert OmegaChain(d.objects, d.links, stab_index=1) is d
    assert dataclasses.replace(d) is d
    assert checked == []


def test_link_composite_identity():
    d = n1_chain()
    assert link_composite(d, 1, 1) == pair_identity(two())


def test_link_composite_is_composition():
    d = random_chain(random.Random(3), Kind.EP, 4, 4)
    if len(d.links) >= 2:
        assert link_composite(d, 0, 2) == pair_compose(d.links[1], d.links[0])


def test_ep_composites_split():
    d = random_chain(random.Random(5), Kind.EP, 4, 5)
    for n in range(len(d.objects)):
        for m in range(n, len(d.objects)):
            c = link_composite(d, n, m)
            assert compose(c.r, c.l) == identity(d.objects[n])


# ---------------------------------------------------------------------------
# cocones and canonical colimits

def test_canonical_colimit_is_cocone():
    canon = colimit_finite(n1_chain())
    assert cocone_from_legs(canon.chain, canon.legs) == canon


def test_perturbed_legs_break_commutation():
    # over the 2-chain chain of ADJ pairs each leg has rivals of its source
    d = as_kind(constant_chain(two()), Kind.ADJ)
    canon = colimit_finite(d)
    perturbed = 0
    for other in enumerate_pairs(two(), two(), Kind.ADJ):
        for n in range(len(canon.legs)):
            if other == canon.legs[n]:
                continue
            legs = list(canon.legs)
            legs[n] = other
            with pytest.raises(ShapeMismatch):
                cocone_from_legs(d, tuple(legs))
            perturbed += 1
    assert perturbed


def test_legs_of_another_kind_are_not_a_cocone():
    canon = colimit_finite(n1_chain())
    legs = tuple(PairHom(Kind.ADJ, leg.l, leg.r) for leg in canon.legs)
    with pytest.raises(ShapeMismatch):
        cocone_from_legs(canon.chain, legs)
    with pytest.raises(ShapeMismatch):
        Cocone(canon.chain, legs[-1])
    # only the final leg of another kind: the derived legs are all EP
    with pytest.raises(ShapeMismatch):
        cocone_from_legs(canon.chain, canon.legs[:-1] + legs[-1:])


def test_wrong_number_of_legs_is_not_a_cocone():
    canon = colimit_finite(n1_chain())
    for legs in ((), canon.legs[1:], canon.legs + canon.legs[-1:]):
        with pytest.raises(ShapeMismatch):
            cocone_from_legs(canon.chain, legs)


def test_final_leg_must_start_at_the_last_object():
    d = n1_chain()
    with pytest.raises(ShapeMismatch):
        Cocone(d, bottom_inclusion_pair(one_point(), two()))


def test_identity_cocone_over_constant_chain():
    pt = one_point()
    d = constant_chain(pt)
    k = Cocone(d, pair_identity(pt))
    assert k.apex == pt and k.kind == Kind.EP
    assert k.legs == (pair_identity(pt),) * 3


def test_colimit_of_constant_chain():
    p = two()
    canon = colimit_finite(constant_chain(p))
    assert canon.apex == p
    assert all(leg == pair_identity(p) for leg in canon.legs)


def test_colimit_of_n1_chain():
    canon = colimit_finite(n1_chain())
    assert canon.apex == two()
    assert canon.legs[0] == bottom_inclusion_pair(one_point(), two())
    assert canon.legs[1] == pair_identity(two())


def test_colimit_legs_beyond_stab_are_inverses():
    # stabilize at 0, then identity links: legs n > 0 invert the composites
    d = constant_chain(two())
    canon = colimit_finite(d)
    for n, leg in enumerate(canon.legs):
        assert pair_compose(leg, link_composite(d, 0, n)) == canon.legs[0]


def test_colimit_requires_witness():
    d = OmegaChain(
        (one_point(), two()), (bottom_inclusion_pair(one_point(), two()),), None
    )
    with pytest.raises(WitnessError):
        colimit_finite(d)


def test_cocone_from_final_leg_round_trip():
    canon = colimit_finite(n1_chain())
    assert Cocone(canon.chain, canon.legs[-1]) == canon
    assert cocone_from_legs(canon.chain, canon.legs) == canon


def test_legs_are_built_with_the_cocone(monkeypatch):
    # once a Cocone exists, reading its legs composes no pair
    import epsolve.chains as chains

    d = random_chain(random.Random(5), Kind.EP, 4, 5)
    final = colimit_finite(d).final
    k = Cocone(d, final)

    def no_compose(*args):
        raise AssertionError("legs composed after construction")

    monkeypatch.setattr(chains, "pair_compose", no_compose)
    legs = k.legs
    monkeypatch.undo()
    last = len(d.objects) - 1
    assert last > 1
    assert legs == tuple(pair_compose(final, link_composite(d, n, last)) for n in range(last + 1))


# ---------------------------------------------------------------------------
# local determination

def test_ld_of_n1_canonical_colimit():
    # e_0 = ⊥-inclusion after projection moves ⊤; e_1 is the identity
    report = check_local_determination_ep(colimit_finite(n1_chain()))
    assert report.verdict is True
    assert report.defects == (1, 0)


def test_ld_fails_on_counterexample():
    # ⊔ e_n = const-⊥ on the 2-chain apex, not the identity
    report = check_local_determination_ep(counterexample_cocone())
    assert report.verdict is False
    assert report.defects == (1, 1, 1)


def test_ld_identity_cocone_all_zero():
    p = two()
    d = constant_chain(p)
    k = Cocone(d, pair_identity(p))
    report = check_local_determination_ep(k)
    assert report.verdict is True
    assert report.defects == (0, 0, 0)


def test_adj_second_condition_identity_on_ep_composites():
    d = random_chain(random.Random(11), Kind.EP, 4, 5)
    canon = colimit_finite(d)
    adj = cocone_from_legs(
        as_kind(d, Kind.ADJ), tuple(PairHom(Kind.ADJ, f.l, f.r) for f in canon.legs)
    )
    report = check_local_determination_adj(adj)
    assert report.verdict is True
    for leg in adj.legs:
        assert compose(leg.r, leg.l) == identity(leg.src)


def test_adj_canonical_colimit_of_collapsing_chain():
    # 2-chain -> 1 via the adjoint pair whose right leg picks ⊤
    collapse = enumerate_pairs(two(), one_point(), Kind.ADJ)[0]
    d = OmegaChain(
        (two(), one_point(), one_point()),
        (collapse, pair_identity(one_point(), Kind.ADJ)),
        1,
    )
    report = check_local_determination_adj(colimit_finite(d))
    assert report.verdict is True


def test_adj_counterexample_fails_first_condition():
    k = counterexample_cocone()
    adj = cocone_from_legs(
        as_kind(k.chain, Kind.ADJ), tuple(PairHom(Kind.ADJ, f.l, f.r) for f in k.legs)
    )
    assert check_local_determination_adj(adj).verdict is False


def test_ld_dispatcher_matches_kind():
    canon = colimit_finite(n1_chain())
    assert check_local_determination(canon).kind == Kind.EP


def test_ldreport_rejects_increasing_defects():
    with pytest.raises(WitnessError):
        LdReport(Kind.EP, True, (0, 1))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_defects_non_increasing_on_random_cocones(seed):
    rng = random.Random(seed)
    d = random_chain(rng, Kind.EP, 4, 5)
    report = check_local_determination_ep(colimit_finite(d))
    for a, b in zip(report.defects, report.defects[1:]):
        assert a >= b
    assert report.defects[min(d.stab_index, len(report.defects) - 1)] == 0


def _brute_lub(terms):
    """The least upper bound of `terms` among all monotone maps of their
    hom-set, found by brute force as P7 finds it."""
    hom = monotone_maps(terms[0].dom, terms[0].cod)
    ubs = [u for u in hom if all(leq_map(t, u) for t in terms)]
    least = [u for u in ubs if all(leq_map(u, v) for v in ubs)]
    assert len(least) == 1
    return least[0]


def _elementwise_defects(terms, target):
    return tuple(sum(t(e) != target(e) for e in target.dom.elems) for t in terms)


def reference_ld(k: Cocone):
    """(verdict, defects, adj_residuals) straight from the definitions: one
    round trip per leg by `compose`, lubs by brute force, defects element by
    element, and the ADJ rows from the link-composite round trips."""
    es = [compose(leg.l, leg.r) for leg in k.legs]
    ident = identity(k.apex)
    verdict = _brute_lub(es) == ident
    defects = _elementwise_defects(es, ident)
    if k.kind == Kind.EP:
        return verdict, defects, None
    last = len(k.chain.objects) - 1
    rows = []
    for n, leg in enumerate(k.legs):
        target = compose(leg.r, leg.l)
        composites = [link_composite(k.chain, n, m) for m in range(n, last + 1)]
        ts = [compose(c.r, c.l) for c in composites]
        verdict = _brute_lub(ts) == target and verdict
        rows.append(_elementwise_defects(ts, target))
    return verdict, defects, tuple(rows)


@pytest.mark.parametrize("kind", [Kind.EP, Kind.ADJ], ids=["EP", "ADJ"])
@pytest.mark.parametrize("seed", [0, 1])
def test_ld_checker_matches_the_reference(seed, kind):
    rng = random.Random(seed)
    cases = 0
    for _ in range(20):
        d = random_chain(rng, kind, 4, 5)
        for k in cocones_over(d, apex_catalog() + (d.objects[d.stab_index],)):
            report = check_local_determination(k)
            assert report.kind == kind
            assert (report.verdict, report.defects, report.adj_residuals) == reference_ld(k)
            cases += 1
    assert cases >= 20


# ---------------------------------------------------------------------------
# the colimiting oracle

def test_canonical_colimit_is_colimiting():
    assert is_colimiting(colimit_finite(n1_chain()))


def test_counterexample_not_colimiting():
    assert not is_colimiting(counterexample_cocone())
    assert not is_colimiting_by_enumeration(counterexample_cocone())


@pytest.mark.parametrize("kind", [Kind.EP, Kind.ADJ])
def test_enumeration_agrees_on_one_object_cocones(kind):
    # a chain with no links reports kind EP, whatever the cocone's kind
    d = OmegaChain((two(),), (), 0)
    for final in enumerate_pairs(two(), chain_poset(3), kind):
        k = Cocone(d, final)
        assert is_colimiting(k) == is_colimiting_by_enumeration(k)
    assert is_colimiting_by_enumeration(Cocone(d, pair_identity(two(), kind)))


def test_transport_along_iso_stays_colimiting():
    canon = colimit_finite(n1_chain())
    isos = [u for u in enumerate_pairs(two(), two(), Kind.EP) if compose(u.r, u.l) == identity(two()) and compose(u.l, u.r) == identity(two())]
    assert isos
    for u in isos:
        moved = cocone_from_legs(canon.chain, tuple(pair_compose(u, leg) for leg in canon.legs))
        assert is_colimiting(moved)


def _commutes(d: OmegaChain, legs) -> bool:
    """Oracle: c_n = c_{n+1} ∘ link_n for every link."""
    return all(pair_compose(legs[n + 1], link) == legs[n] for n, link in enumerate(d.links))


def _swap_breaking_commutation(k: Cocone) -> tuple[PairHom, ...] | None:
    """k's legs with two legs of the same source swapped, if some swap
    leaves a family of legs that does not commute."""
    for i in range(len(k.legs)):
        for j in range(i + 1, len(k.legs)):
            if k.legs[i].src == k.legs[j].src and k.legs[i] != k.legs[j]:
                legs = list(k.legs)
                legs[i], legs[j] = legs[j], legs[i]
                if not _commutes(k.chain, legs):
                    return tuple(legs)
    return None


# an ep pair P -> P is an automorphism, so random EP chains almost never
# carry two distinct legs with one source (none in 3000 seeds); these ADJ
# seeds do, and keep the swapped case covered on every run
@given(st.integers(0, 10**6), st.sampled_from([Kind.EP, Kind.ADJ]))
@example(30, Kind.ADJ)
@example(93, Kind.ADJ)
@settings(max_examples=30, deadline=None)
def test_forced_mediator_agrees_with_enumeration(seed, kind):
    rng = random.Random(seed)
    from epsolve.suite import apex_catalog, cocones_over

    d = random_chain(rng, kind, 3, 4)
    swapped = None
    for k in cocones_over(d, apex_catalog()[:4]):
        assert _commutes(d, k.legs)
        assert is_colimiting(k) == is_colimiting_by_enumeration(k)
        swapped = swapped or _swap_breaking_commutation(k)
    if swapped is not None:
        with pytest.raises(ShapeMismatch):
            cocone_from_legs(d, swapped)


# ---------------------------------------------------------------------------
# threads and approximants

def lift_chain(depth=4) -> OmegaChain:
    return iterate(parse_equation("D = lift(D)", depth=depth))


def test_thread_approximant_depth_zero():
    d = lift_chain()
    k = thread_approximant(d, 0)
    assert k.apex == one_point()
    assert k.legs == (pair_identity(one_point()),)


def test_lift_approximant_sizes():
    d = lift_chain()
    for depth in range(5):
        assert len(thread_approximant(d, depth).apex) == depth + 1


def test_round_trip_fixes_determined_threads():
    # x determined at level m (x = composite embedding of y) has e_m(x) = x
    d = lift_chain()
    k = thread_approximant(d, 3)
    for m in range(4):
        e_m = compose(k.legs[m].l, k.legs[m].r)
        for y in d.objects[m].elems:
            x = k.legs[m].l(y)
            assert e_m(x) == x


def test_approximant_final_defect_zero():
    d = lift_chain()
    for depth in range(5):
        report = check_local_determination(thread_approximant(d, depth))
        assert report.defects[depth] == 0
        assert report.defects == tuple(depth - n for n in range(depth + 1))


# ---------------------------------------------------------------------------
# every leg builder agrees with the link-composite definitions

def as_kind(d: OmegaChain, kind: Kind) -> OmegaChain:
    # an EP pair is also an adjoint pair
    return OmegaChain(
        d.objects, tuple(PairHom(kind, f.l, f.r) for f in d.links), d.stab_index
    )


def flat3_cycle_chain() -> OmegaChain:
    """1 -> flat3 -> flat3 -> flat3, stabilized at 1 by links that cycle the
    three atoms: isomorphisms that are not their own inverses."""
    p = flat(3)
    cycle = next(
        u
        for u in enumerate_pairs(p, p)
        if is_iso_pair(u) and compose(u.l, u.l) != identity(p) != u.l
    )
    return OmegaChain(
        (one_point(), p, p, p), (bottom_inclusion_pair(one_point(), p), cycle, cycle), 1
    )


def oracle_chains() -> list[OmegaChain]:
    """Seeded random chains of both kinds, the cycle chain, and solver chains
    witnessed at their last stage."""
    witnessed = [flat3_cycle_chain()]
    for body, depth in (("lift(D)", 6), ("sum(D,const(2-chain))", 5)):
        d = iterate(parse_equation(f"D = {body}", depth=depth))
        witnessed.append(OmegaChain(d.objects, d.links, depth))
    chains = []
    for kind in Kind:
        chains += [random_chain(random.Random(seed), kind, 4, 5) for seed in range(8)]
        chains += [as_kind(d, kind) for d in witnessed]
    return chains


ORACLE_CHAINS = oracle_chains()


@pytest.mark.parametrize("d", ORACLE_CHAINS)
def test_colimit_legs_are_link_composites(d):
    canon = colimit_finite(d)
    stab = min(d.stab_index, len(d.objects) - 1)
    for n, leg in enumerate(canon.legs):
        if n <= stab:
            assert leg == link_composite(d, n, stab)
        else:
            assert leg == pair_inverse(link_composite(d, stab, n))
    assert cocone_from_legs(d, canon.legs) == canon


@pytest.mark.parametrize("d", ORACLE_CHAINS)
def test_approximant_legs_are_link_composites(d):
    for depth in range(len(d.objects)):
        k = thread_approximant(d, depth)
        assert k.legs == tuple(link_composite(d, n, depth) for n in range(depth + 1))


@pytest.mark.parametrize("d", [d for d in ORACLE_CHAINS if d.kind == Kind.ADJ])
def test_adj_residuals_are_link_composite_rows(d):
    k = colimit_finite(d)
    last = len(d.objects) - 1
    rows = []
    for n, leg in enumerate(k.legs):
        target = compose(leg.r, leg.l)
        row = []
        for m in range(n, last + 1):
            c = link_composite(d, n, m)
            row.append(sum(a != b for a, b in zip(compose(c.r, c.l).table, target.table)))
        rows.append(tuple(row))
    assert check_local_determination_adj(k).adj_residuals == tuple(rows)


def test_depth_zero_approximant_keeps_the_chain_kind():
    d = random_chain(random.Random(0), Kind.ADJ, 4, 5)
    assert d.kind == Kind.ADJ
    k = thread_approximant(d, 0)
    assert k.kind == Kind.ADJ
    assert k.legs[0].kind == Kind.ADJ
    report = check_local_determination(k)
    assert report.kind == Kind.ADJ
    assert report.adj_residuals is not None


def test_thread_approximant_composes_once_per_leg(monkeypatch):
    import epsolve.chains as chains

    d = lift_chain(10)
    calls = []
    real = chains.pair_compose

    def counting(g, f):
        calls.append((g, f))
        return real(g, f)

    monkeypatch.setattr(chains, "pair_compose", counting)
    k = thread_approximant(d, 10)
    assert len(k.legs) == 11
    assert len(calls) <= 10


# ---------------------------------------------------------------------------
# JSON

def test_chain_json_round_trip():
    d = n1_chain()
    assert chain_from_json(chain_to_json(d)) == d


def test_cocone_json_round_trip():
    k = colimit_finite(n1_chain())
    assert cocone_from_json(cocone_to_json(k)) == k


def test_cocone_json_rejects_non_commuting():
    k = colimit_finite(n1_chain())
    bad = cocone_to_json(k)
    bad["legs"][0] = bad["legs"][1]
    from epsolve.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        cocone_from_json(bad)


def test_cocone_json_rejects_a_foreign_apex():
    bad = cocone_to_json(colimit_finite(n1_chain()))
    bad["apex"] = cocone_to_json(colimit_finite(constant_chain(flat(2))))["apex"]
    with pytest.raises(ShapeMismatch, match="apex is not the target of its legs"):
        cocone_from_json(bad)


# sha256 of json.dumps(cocone_to_json(...), sort_keys=True) for
# colimit_finite(random_chain(Random(s), kind, 4, 5)), pinned from the
# bool-matrix representation of the order: the wire format must not move
GOLDEN_COCONES = {
    Kind.EP: [
        "8d3c197083478a9f33be022e18475a62d264e2ba2f61b28a85bda825a6c6acfb",
        "b85c048180ab08de384d1b315e6f077720937ac3388209ddb9970273a6156890",
        "bb66b3e9441a5c88ed30c04d04460ee266cb9580f84ca481fb2ac19c86550f2f",
        "41998bef066367874086d1011a8c243bfaa0fee5fd2760f92a3d995bbb30651b",
        "4c6bbffac7a374ac176c390e0531dd39316d54ebb191f570844a9c02c3b876bd",
        "c5c639cc82d3a43866ab5c81821da7ee7b81ea1c51bce06fefe6710af198ef9c",
    ],
    Kind.ADJ: [
        "255d1b13a4cd98223da2d1d21b625046bf446788541d6e409638d6a426e659f4",
        "f56eec953b711062db5d74d5574c5c8418cf74f7d5845c193fd6bb46b179ff32",
        "7faf73ecd070ea1415562bcc8ad773f4c5958e223f5ce686278199e5c706ae7f",
        "9c58d75ae612a2fed318f87f66bc023344cdc57cf0ab506a7124b178eada0619",
        "6a68ef11505293bd865d5987199098462833470c82d47dd075d591c1510b8e2e",
        "cd938be4e204c5758f6f38cb976a005fb12b0ec4551802c942c7ab3df5be7d5a",
    ],
}


@pytest.mark.parametrize("kind", [Kind.EP, Kind.ADJ], ids=["EP", "ADJ"])
@pytest.mark.parametrize("seed", range(6))
def test_cocone_wire_format_golden(kind, seed):
    k = colimit_finite(random_chain(random.Random(seed), kind, 4, 5))
    raw = json.dumps(cocone_to_json(k), sort_keys=True).encode()
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_COCONES[kind][seed]
    assert cocone_from_json(json.loads(raw)) == k
