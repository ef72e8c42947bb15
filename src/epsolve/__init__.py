"""Computational workbench for recursive domain equations over finite
pointed posets: projection/adjoint pairs, omega-chains and their colimits,
locally continuous functor combinators, and an enriched Yoneda layer."""

from .chains import (
    Cocone,
    LdReport,
    OmegaChain,
    check_local_determination,
    check_local_determination_adj,
    check_local_determination_ep,
    colimit_finite,
    is_colimiting,
    is_colimiting_by_enumeration,
    link_composite,
    thread_approximant,
)
from .finposet import (
    FinPoset,
    MonotoneMap,
    canonical_form,
    compose,
    coproduct,
    function_space,
    identity,
    is_monotone,
    iso_check,
    leq_map,
    lift,
    lub_map_chain,
    product,
    validate_poset,
)
from .functors import (
    Compose,
    Const,
    Fun,
    FunctorExpr,
    Id,
    Lift,
    Prod,
    Sum,
    apply_mor,
    apply_obj,
    check_functor_laws,
    check_local_continuity,
    pr_apply_mor,
    preserves_cocone,
)
from .opairs import (
    Kind,
    PairHom,
    enumerate_pairs,
    is_adjoint_pair,
    is_ep_pair,
    pair_compose,
    pair_identity,
    pair_leq,
)
from .presheaf import (
    build_poset_category,
    check_fully_faithful,
    enumerate_nat_trans,
    pointwise_lub,
    verify_proof_step,
    yoneda,
    yoneda_mor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
