"""Omega-chains of pairs, cocones, canonical colimits and the
local-determination checkers.

Chains are finite lists: stabilization is a verified witness (all links at
or beyond `stab_index` are isomorphism pairs), never a heuristic.  Chains
that do not stabilize are analyzed through bounded-depth thread
approximants.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeMismatch, WitnessError
from .finposet import (
    FinPoset,
    MonotoneMap,
    compose,
    identity,
    lub_map_chain,
    poset_from_json,
    poset_to_json,
)
from .opairs import (
    Kind,
    PairHom,
    enumerate_pairs,
    is_iso_pair,
    pair_compose,
    pair_from_json,
    pair_identity,
    pair_inverse,
    pair_to_json,
)


@dataclass(frozen=True)
class OmegaChain:
    objects: tuple[FinPoset, ...]
    links: tuple[PairHom, ...]
    stab_index: int | None = None

    @property
    def kind(self) -> Kind:
        return self.links[0].kind if self.links else Kind.EP

    def __len__(self) -> int:
        return len(self.objects)


def validate_chain(d: OmegaChain) -> None:
    if len(d.links) != len(d.objects) - 1:
        raise ShapeMismatch("chain needs exactly len(objects)-1 links")
    for n, link in enumerate(d.links):
        if link.kind != d.kind:
            raise ShapeMismatch(f"link {n} has kind {link.kind}, chain is {d.kind}")
        if link.src != d.objects[n] or link.tgt != d.objects[n + 1]:
            raise ShapeMismatch(f"link {n} endpoints do not match objects")
    if d.stab_index is not None:
        if not 0 <= d.stab_index <= len(d.links):
            raise WitnessError("stab_index out of range")
        for n in range(d.stab_index, len(d.links)):
            if not is_iso_pair(d.links[n]):
                raise WitnessError(f"link {n} is not an iso pair; witness invalid")


@dataclass(frozen=True)
class Cocone:
    chain: OmegaChain
    apex: FinPoset
    legs: tuple[PairHom, ...]

    @property
    def kind(self) -> Kind:
        # a chain with one object has no link to carry its kind; every
        # cocone has at least one leg
        return self.legs[0].kind


@dataclass(frozen=True)
class LdReport:
    kind: Kind
    verdict: bool
    defects: tuple[int, ...]
    adj_residuals: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        for i in range(len(self.defects) - 1):
            if self.defects[i] < self.defects[i + 1]:
                raise WitnessError("defect sequence must be non-increasing")

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "verdict": self.verdict,
            "defects": list(self.defects),
            "adj_residuals": (
                None
                if self.adj_residuals is None
                else [list(row) for row in self.adj_residuals]
            ),
        }


def link_composite(d: OmegaChain, n: int, m: int) -> PairHom:
    """The composite pair Δ_n -> Δ_m (identity when n = m)."""
    if not 0 <= n <= m < len(d.objects):
        raise IndexError(f"link_composite: bad indices n={n}, m={m}")
    out = pair_identity(d.objects[n], d.kind)
    for k in range(n, m):
        out = pair_compose(d.links[k], out)
    return out


def is_cocone(k: Cocone) -> bool:
    if len(k.legs) != len(k.chain.objects):
        return False
    for n, leg in enumerate(k.legs):
        if leg.kind != k.kind or leg.src != k.chain.objects[n] or leg.tgt != k.apex:
            return False
    if any(link.kind != k.kind for link in k.chain.links):
        return False
    for n in range(len(k.legs) - 1):
        if pair_compose(k.legs[n + 1], k.chain.links[n]) != k.legs[n]:
            return False
    return True


def colimit_finite(d: OmegaChain) -> Cocone:
    """Canonical colimiting cocone of a chain with a verified stabilization
    witness: apex Δ_N, legs by link composites (inverted beyond N)."""
    if d.stab_index is None:
        raise WitnessError("colimit_finite needs a stabilization witness")
    validate_chain(d)
    last = len(d.objects) - 1
    return cocone_from_final_leg(d, pair_inverse(link_composite(d, d.stab_index, last)))


def cocone_from_final_leg(d: OmegaChain, final: PairHom) -> Cocone:
    """The unique cocone over d whose last leg is `final`; earlier legs are
    forced by commutation, c_n = c_{n+1} ∘ link_n, in one backward pass."""
    legs = [final] * len(d.objects)
    for n in range(len(d.links) - 1, -1, -1):
        legs[n] = pair_compose(legs[n + 1], d.links[n])
    return Cocone(d, final.tgt, tuple(legs))


def _e_stab(k: Cocone) -> int:
    # final available index serves as witness when the chain carries none
    last = len(k.legs) - 1
    if k.chain.stab_index is None:
        return last
    return min(k.chain.stab_index, last)


def _round_trips(k: Cocone) -> list[MonotoneMap]:
    return [compose(leg.l, leg.r) for leg in k.legs]


def _defects(maps: list[MonotoneMap], target: MonotoneMap) -> tuple[int, ...]:
    """Per map, the number of elements where it differs from target."""
    return tuple(sum(1 for a, b in zip(m.table, target.table) if a != b) for m in maps)


def _apex_condition(k: Cocone) -> tuple[bool, tuple[int, ...]]:
    """Whether the lub of the round trips c_n^L ∘ c_n^R is the apex identity,
    and each round trip's defect against that identity."""
    es = _round_trips(k)
    try:
        lub = lub_map_chain(es, _e_stab(k))
    except WitnessError as exc:
        raise WitnessError(f"invalid cocone: {exc}") from exc
    ident = identity(k.apex)
    return lub == ident, _defects(es, ident)


def check_local_determination_ep(k: Cocone) -> LdReport:
    """Locally determined iff the lub of c_n^L ∘ c_n^R is the apex identity."""
    if k.kind != Kind.EP:
        raise ShapeMismatch("check_local_determination_ep: EP cocone required")
    return LdReport(Kind.EP, *_apex_condition(k))


def check_local_determination_adj(k: Cocone) -> LdReport:
    """Both lub conditions for adjoint pairs: the apex round-trips reach the
    identity, and for each n the inner round-trips reach c_n^R ∘ c_n^L."""
    if k.kind != Kind.ADJ:
        raise ShapeMismatch("check_local_determination_adj: ADJ cocone required")
    first_ok, defects = _apex_condition(k)
    stab = _e_stab(k)
    second_ok = True
    residuals = []
    for n, leg in enumerate(k.legs):
        target = compose(leg.r, leg.l)
        # the composites Δ_n -> Δ_m for m = n, n+1, ..., one link at a time
        comp = pair_identity(k.chain.objects[n], k.kind)
        ts = [compose(comp.r, comp.l)]
        for link in k.chain.links[n:]:
            comp = pair_compose(link, comp)
            ts.append(compose(comp.r, comp.l))
        t_stab = min(max(stab - n, 0), len(ts) - 1)
        try:
            inner_lub = lub_map_chain(ts, t_stab)
        except WitnessError as exc:
            raise WitnessError(f"invalid chain at stage {n}: {exc}") from exc
        if inner_lub != target:
            second_ok = False
        residuals.append(_defects(ts, target))
    return LdReport(Kind.ADJ, first_ok and second_ok, defects, tuple(residuals))


def check_local_determination(k: Cocone) -> LdReport:
    if k.kind == Kind.EP:
        return check_local_determination_ep(k)
    return check_local_determination_adj(k)


def is_colimiting(k: Cocone) -> bool:
    """Universal property at the stabilization witness N.  The canonical
    colimit has apex Δ_N and legs κ_n with κ_N the identity, and colimits are
    unique up to unique iso, so k is colimiting iff an isomorphism pair u from
    Δ_N satisfies u ∘ κ_n = c_n for all n.

    First, at n = N the condition reads u = c_N, so c_N is the only possible
    mediator.  Second, if k commutes, u = c_N meets the condition at every n.
    For n <= N, κ_n is the link composite Δ_n -> Δ_N, and commutation gives
    c_N ∘ κ_n = c_n.  For n > N, κ_n is the inverse of the iso link composite
    λ: Δ_N -> Δ_n, and commutation gives c_n ∘ λ = c_N, so
    c_N ∘ κ_n = c_n ∘ λ ∘ λ⁻¹ = c_n.  Hence k is colimiting iff it is a
    cocone and c_N is an iso pair.
    """
    if k.chain.stab_index is None:
        raise WitnessError("is_colimiting needs a stabilization witness")
    validate_chain(k.chain)
    return is_cocone(k) and is_iso_pair(k.legs[k.chain.stab_index])


def is_colimiting_by_enumeration(k: Cocone) -> bool:
    """Brute-force variant of is_colimiting quantifying the mediator over
    the full enumerated pair hom-set; cross-checked against the forced-
    candidate shortcut in the test suite."""
    canon = colimit_finite(k.chain)
    for u in enumerate_pairs(canon.apex, k.apex, k.kind):
        if not is_iso_pair(u):
            continue
        if all(
            pair_compose(u, canon.legs[n]) == k.legs[n] for n in range(len(k.legs))
        ):
            return True
    return False


def thread_approximant(d: OmegaChain, depth: int) -> Cocone:
    """Bounded-depth view of a (possibly non-stabilizing) chain: the cocone
    over the truncated chain with apex Δ_depth and composite legs."""
    if not 0 <= depth < len(d.objects):
        raise IndexError("depth out of range")
    trunc = OmegaChain(d.objects[: depth + 1], d.links[:depth], stab_index=depth)
    return cocone_from_final_leg(trunc, pair_identity(d.objects[depth], d.kind))


# ---------------------------------------------------------------------------
# JSON wire format

def chain_to_json(d: OmegaChain) -> dict:
    return {
        "objects": [poset_to_json(p) for p in d.objects],
        "links": [pair_to_json(f) for f in d.links],
        "stab_index": d.stab_index,
    }


def chain_from_json(obj: dict) -> OmegaChain:
    d = OmegaChain(
        tuple(poset_from_json(p) for p in obj["objects"]),
        tuple(pair_from_json(f) for f in obj["links"]),
        obj.get("stab_index"),
    )
    validate_chain(d)
    return d


def cocone_to_json(k: Cocone) -> dict:
    return {
        "chain": chain_to_json(k.chain),
        "apex": poset_to_json(k.apex),
        "legs": [pair_to_json(f) for f in k.legs],
    }


def cocone_from_json(obj: dict) -> Cocone:
    k = Cocone(
        chain_from_json(obj["chain"]),
        poset_from_json(obj["apex"]),
        tuple(pair_from_json(f) for f in obj["legs"]),
    )
    if not is_cocone(k):
        raise ShapeMismatch("deserialized cocone does not commute")
    return k
