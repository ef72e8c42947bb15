"""The two-object worked example: the full sub-O-category of finite posets
on the one-point poset and the 2-chain, with the Yoneda checks and the
lub-reflection proof replay run on concrete cocones."""
from __future__ import annotations

from .chains import Cocone, OmegaChain, colimit_finite
from .finposet import chain_poset, one_point
from .opairs import bottom_inclusion_pair, pair_identity
from .presheaf import (
    PosetOCategory,
    build_poset_category,
    check_fully_faithful,
    enumerate_nat_trans,
    verify_proof_step,
    yoneda,
)
from .suite import PropertyResult, counterexample_cocone


def two_object_category() -> PosetOCategory:
    return build_poset_category({"one": one_point(), "two": chain_poset(2)})


def embedded_canonical_colimit() -> Cocone:
    """Canonical colimit of the chain 1 -> 2-chain -> 2-chain (stabilized
    after the first link), expressible inside the two-object category."""
    pt, two = one_point(), chain_poset(2)
    links = (bottom_inclusion_pair(pt, two), pair_identity(two))
    return colimit_finite(OmegaChain((pt, two, two), links, stab_index=1))


def yoneda_demo_report() -> dict:
    kctx = two_object_category()
    k = kctx.cat
    ys = {x: yoneda(k, x) for x in k.objects}
    nat_counts = {
        f"{a}->{b}": len(enumerate_nat_trans(k, ys[a], ys[b]))
        for a in k.objects
        for b in k.objects
    }
    return {
        "objects": list(k.objects),
        "hom_sizes": {f"{a}->{b}": len(k.hom[(a, b)]) for a in k.objects for b in k.objects},
        "fully_faithful": check_fully_faithful(k),
        "nat_counts": nat_counts,
        "proof_step_canonical": verify_proof_step(kctx, embedded_canonical_colimit()),
        "proof_step_counterexample": verify_proof_step(kctx, counterexample_cocone()),
    }


def run_proof_step_property() -> PropertyResult:
    rep = yoneda_demo_report()
    ok = (
        rep["fully_faithful"]
        and rep["nat_counts"]["one->two"] == 2
        and rep["nat_counts"]["two->one"] == 1
        and rep["proof_step_canonical"] is True
        and rep["proof_step_counterexample"] is False
    )
    failures = [] if ok else [rep]
    return PropertyResult("P5", ok, 1, failures)
