"""Acceptance criteria P1-P7, one verdict per criterion at the stated scale.

P1  locally determined <=> colimiting on >= 200 seeded ep-chains.
P2  every functor in the depth-2 family preserves every canonical colimit
    from P1 (colimiting and LD verdicts both true).
P3  the fixed counterexample cocone fails LD and fails the colimiting
    oracle under the identity functor, defects [1, 1, ...].
P4  P1 and P2 repeated with adjoint chains, plus the ep second-condition
    identity (suite results P4a, P4b, P4c).
P5  two-object Yoneda example: fully faithful, exact Nat counts, the
    proof-step replay true on the canonical colimit, false on the fixture.
P6  solver growth and byte-identical reports for D = lift(D) at depth 4.
P7  lub oracle cross-check on 50 seeded cases.
"""
import dataclasses
from collections import Counter

import pytest

from epsolve.opairs import Kind
from epsolve.suite import run_all

CRITERIA = ["P1", "P2", "P3", "P4", "P5", "P6", "P7"]


@pytest.fixture(scope="module")
def results():
    out = {}
    for r in run_all(seed=0, chain_count=200, max_size=4, max_len=5, lub_cases=50):
        out.setdefault(r.name.rstrip("abc"), []).append(r)
    return out


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(results, criterion):
    parts = results[criterion]
    passed = all(r.passed for r in parts)
    cases = sum(r.cases for r in parts)
    print(f"{criterion}: {'PASS' if passed else 'FAIL'} ({cases} cases)")
    for r in parts:
        assert r.passed, f"{r.name} failed: {r.failures[:3]}"
    assert cases > 0


#: run_all(seed=0) at acceptance scale; a change to the generators, the
#: enumeration order or the family moves these
SEED0_CASES = {
    "P1": 1083, "P2": 6098, "P3": 1, "P4a": 3276, "P4b": 6267,
    "P4c": 200, "P5": 1, "P6": 1, "P7": 50,
}


def test_seed0_case_counts(results):
    assert {r.name: r.cases for parts in results.values() for r in parts} == SEED0_CASES


def test_p1_scale(results):
    # at least 200 chains were generated and enumerable cocones checked
    assert results["P1"][0].cases >= 200


def test_p1_fails_on_a_colimiting_verdict_it_does_not_characterise(monkeypatch):
    # every cocone called colimiting: the ones that are not locally determined disagree
    import epsolve.suite as suite

    monkeypatch.setattr(suite, "is_colimiting", lambda k: True)
    result, _ = suite.run_ld_implies_colimiting(0, chain_count=20)
    assert not result.passed and result.failures


def test_p4c_decides_each_distinct_chain_once_and_records_every_case(monkeypatch):
    import epsolve.suite as suite

    _, chains = suite.run_ld_implies_colimiting(0, chain_count=3)
    d, other = chains[0], next(c for c in chains if c != chains[0])
    checked = []

    def failing(k):
        checked.append(k.chain)
        return dataclasses.replace(real(k), verdict=False)

    real = suite.check_local_determination_adj
    monkeypatch.setattr(suite, "check_local_determination_adj", failing)
    result = suite.run_ep_adjoint_second_condition([d, other, d])
    assert result.cases == 3 and len(checked) == 2
    assert result.failures == [{"chain": repr(c)} for c in (d, other, d)]


def test_p7_scale(results):
    assert results["P7"][0].cases == 50


def test_witnessed_lubs_never_test_a_map_against_itself(monkeypatch):
    # every witnessed lub the suite takes goes through finposet's
    # lub_map_chain, which reads a run of one interned term once
    from epsolve import finposet

    pairs = []
    real = finposet.leq_map

    def recording(f, g):
        pairs.append((f, g))
        return real(f, g)

    monkeypatch.setattr(finposet, "leq_map", recording)
    assert all(r.passed for r in run_all(seed=0, chain_count=50))
    assert pairs
    assert not [f for f, g in pairs if f is g]


def _recording_images(monkeypatch, suite):
    """Patch suite.image_pairs and suite.assemble_image to log, per case
    whose pairs were built, ((functor, chain), key) with key the image's
    (links, legs, witness), and, per assembly, (key, cocone or exception)."""
    real_pairs, real_assemble = suite.image_pairs, suite.assemble_image
    cases, assembled = [], []

    def image_pairs(e, k, elem_cap):
        links, legs = real_pairs(e, k, elem_cap)
        cases.append(((e, k.chain), (links, legs, k.chain.stab_index)))
        return links, legs

    def assemble_image(*key):
        try:
            out = real_assemble(*key)
        except Exception as exc:
            assembled.append((key, exc))
            raise
        assembled.append((key, out))
        return out

    monkeypatch.setattr(suite, "image_pairs", image_pairs)
    monkeypatch.setattr(suite, "assemble_image", assemble_image)
    return cases, assembled


def test_run_preservation_decides_each_distinct_image_once(monkeypatch):
    import epsolve.suite as suite

    _, chains = suite.run_ld_implies_colimiting(0, chain_count=40)
    cases, assembled = _recording_images(monkeypatch, suite)
    decided = Counter()
    real_colim, real_ld = suite.is_colimiting, suite.check_local_determination

    def is_colimiting(k):
        decided["colim", k] += 1
        return real_colim(k)

    def check_local_determination(k):
        decided["ld", k] += 1
        return real_ld(k)

    monkeypatch.setattr(suite, "is_colimiting", is_colimiting)
    monkeypatch.setattr(suite, "check_local_determination", check_local_determination)
    for run in (1, 2):  # the memo lives for one run
        result = suite.run_preservation(chains, Kind.EP)
        keys = {key for _, key in cases}
        assert result.passed and result.cases == len(cases) > len(keys)
        # assembled once per distinct (links, legs, witness), before any check
        assert Counter(key for key, _ in assembled) == Counter(keys)
        images = {image for _, image in assembled}
        assert set(decided) == {(which, k) for which in ("colim", "ld") for k in images}
        assert set(decided.values()) == {run}
        cases.clear()
        assembled.clear()


def test_run_preservation_fails_every_case_of_a_shared_image(monkeypatch):
    import epsolve.suite as suite
    from epsolve.functors import assemble_image

    _, chains = suite.run_ld_implies_colimiting(0, chain_count=40)
    cases, _ = _recording_images(monkeypatch, suite)
    clean = suite.run_preservation(chains, Kind.EP)
    chains_of = {}
    for (e, d), key in cases:
        chains_of.setdefault(key, set()).add(d)
    shared = max(chains_of, key=lambda key: len(chains_of[key]))
    assert len(chains_of[shared]) >= 2
    hits = [{"functor": str(e), "chain": repr(d)} for (e, d), key in cases if key == shared]
    shared_image = assemble_image(*shared)
    real_ld = suite.check_local_determination

    def mutant(k):
        report = real_ld(k)
        return dataclasses.replace(report, verdict=False) if k == shared_image else report

    monkeypatch.setattr(suite, "check_local_determination", mutant)
    result = suite.run_preservation(chains, Kind.EP)
    assert not result.passed and result.cases == clean.cases
    assert result.failures == hits


def test_run_preservation_records_an_image_whose_legs_do_not_commute(monkeypatch):
    # a faulty functor action that sends the identity on flat(2) to the swap
    # of its atoms: the image chain is witnessed (the swap is an iso), but
    # its legs (swap, swap) do not commute, since swap ∘ swap is the identity
    import epsolve.functors as functors
    import epsolve.suite as suite
    from epsolve.chains import OmegaChain
    from epsolve.errors import ShapeMismatch
    from epsolve.finposet import flat
    from epsolve.functors import Id
    from epsolve.opairs import enumerate_pairs, is_iso_pair, pair_identity

    p = flat(2)
    ident = pair_identity(p)
    (swap,) = [u for u in enumerate_pairs(p, p) if is_iso_pair(u) and u != ident]
    d = OmegaChain((p, p), (ident,), 0)
    real = functors.pr_apply_mor

    def faulty(e, f, elem_cap=functors.DEFAULT_ELEM_CAP):
        return swap if e is Id() and f is ident else real(e, f, elem_cap)

    _, assembled = _recording_images(monkeypatch, suite)
    monkeypatch.setattr(functors, "pr_apply_mor", faulty)
    try:
        result = suite.run_preservation([d], Kind.EP)
    finally:
        monkeypatch.undo()
        real.cache_clear()  # it cached images built through `faulty`
    assert not result.passed
    # D and compose(D,D) share the image; its failed assembly is memoised
    for functor in ("D", "compose(D,D)"):
        assert {"functor": functor, "chain": repr(d)} in result.failures
    bad = ((swap,), (swap, swap), 0)
    assert [type(out) for key, out in assembled if key == bad] == [ShapeMismatch]


def test_run_preservation_records_an_image_that_is_not_a_valid_pair(monkeypatch):
    # a faulty lift action that sends every element to the codomain's top:
    # the maps are monotone, but a lifted identity pair breaks r∘l = id, so
    # building the image pair raises InvalidPair, which is a failed case
    import epsolve.functors as functors
    import epsolve.suite as suite
    from epsolve.chains import OmegaChain
    from epsolve.finposet import MonotoneMap, chain_poset, lift
    from epsolve.opairs import pair_identity

    def faulty(f):
        cod = lift(f.cod)
        return MonotoneMap(lift(f.dom), cod, (len(cod) - 1,) * (len(f.dom) + 1))

    p = chain_poset(2)
    d = OmegaChain((p, p), (pair_identity(p),), 0)
    monkeypatch.setattr(functors, "lift_map", faulty)
    try:
        result = suite.run_preservation([d], Kind.EP)
    finally:
        monkeypatch.undo()
        functors.pr_apply_mor.cache_clear()  # it cached images built through `faulty`
    assert not result.passed
    assert {"functor": "lift(D)", "chain": repr(d)} in result.failures
    assert {"functor": "D", "chain": repr(d)} not in result.failures
