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
import pytest

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


def test_p1_scale(results):
    # at least 200 chains were generated and enumerable cocones checked
    assert results["P1"][0].cases >= 200


def test_p1_fails_on_a_colimiting_verdict_it_does_not_characterise(monkeypatch):
    # every cocone called colimiting: the ones that are not locally determined disagree
    import epsolve.suite as suite

    monkeypatch.setattr(suite, "is_colimiting", lambda k: True)
    result, _ = suite.run_ld_implies_colimiting(0, chain_count=20)
    assert not result.passed and result.failures


def test_p7_scale(results):
    assert results["P7"][0].cases == 50
