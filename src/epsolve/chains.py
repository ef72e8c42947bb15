"""Omega-chains of pairs, cocones, canonical colimits and the
local-determination checkers.

Chains are finite lists: stabilization is a verified witness (all links at
or beyond `stab_index` are isomorphism pairs), never a heuristic.  Chains
that do not stabilize are analyzed through bounded-depth thread
approximants.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import ne

from .errors import ShapeMismatch, WitnessError
from .finposet import (
    FinPoset,
    Interned,
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


@dataclass(frozen=True, eq=False)
class OmegaChain(metaclass=Interned):
    """Links objects[n] -> objects[n+1] of one kind, and an optional
    stabilization witness.  Construction checks all three, so no invalid
    chain exists; interning runs the check only when it builds an instance."""

    objects: tuple[FinPoset, ...]
    links: tuple[PairHom, ...]
    stab_index: int | None = None

    def __post_init__(self):
        if len(self.links) != len(self.objects) - 1:
            raise ShapeMismatch("chain needs exactly len(objects)-1 links")
        for n, link in enumerate(self.links):
            if link.kind != self.kind:
                raise ShapeMismatch(f"link {n} has kind {link.kind}, chain is {self.kind}")
            if link.src != self.objects[n] or link.tgt != self.objects[n + 1]:
                raise ShapeMismatch(f"link {n} endpoints do not match objects")
        if self.stab_index is not None:
            if not 0 <= self.stab_index <= len(self.links):
                raise WitnessError("stab_index out of range")
            for n in range(self.stab_index, len(self.links)):
                if not is_iso_pair(self.links[n]):
                    raise WitnessError(f"link {n} is not an iso pair; witness invalid")

    @property
    def kind(self) -> Kind:
        return self.links[0].kind if self.links else Kind.EP

    @property
    def witness(self) -> int:
        """`stab_index`, or the last index when the chain carries none."""
        return len(self.links) if self.stab_index is None else self.stab_index

    @cached_property
    def inner_rows(self) -> tuple[tuple[tuple[MonotoneMap, ...], MonotoneMap], ...]:
        """Per n, the inner round trips r∘l of the composites Δ_n -> Δ_m for
        m = n, n+1, ..., built one link at a time, and their witnessed lub.
        They depend on the chain alone, so they are built once per chain and
        die with it; a WitnessError from `lub_map_chain` is raised again on
        the next read.  With no links the one row is the identity, whatever
        the kind of a cocone over the chain."""
        rows = []
        for n, obj in enumerate(self.objects):
            comp = pair_identity(obj, self.kind)
            ts = [compose(comp.r, comp.l)]
            for link in self.links[n:]:
                comp = pair_compose(link, comp)
                ts.append(compose(comp.r, comp.l))
            rows.append((tuple(ts), lub_map_chain(ts, max(self.witness - n, 0))))
        return tuple(rows)


@dataclass(frozen=True)
class Cocone:
    """A cocone over `chain`, held as its final leg: commutation forces
    c_n = c_{n+1} ∘ link_n, so the other legs c_0 .. c_N are built with the
    cocone, in one backward pass, and every Cocone commutes.  Both fields
    are interned, so `==` and `hash` are two identity tests."""

    chain: OmegaChain
    final: PairHom
    legs: tuple[PairHom, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.final.src != self.chain.objects[-1]:
            raise ShapeMismatch("final leg does not start at the chain's last object")
        # a chain with one object has no link to carry its kind
        if self.chain.links and self.final.kind != self.chain.kind:
            raise ShapeMismatch(f"final leg has kind {self.final.kind}, chain is {self.chain.kind}")
        links = self.chain.links
        legs = [self.final] * (len(links) + 1)
        for n in range(len(links) - 1, -1, -1):
            legs[n] = pair_compose(legs[n + 1], links[n])
        object.__setattr__(self, "legs", tuple(legs))

    @property
    def apex(self) -> FinPoset:
        return self.final.tgt

    @property
    def kind(self) -> Kind:
        return self.final.kind


def cocone_from_legs(d: OmegaChain, legs: tuple[PairHom, ...]) -> Cocone:
    """The cocone over d with the given legs; ShapeMismatch unless there is
    one per object and they commute, i.e. are the legs forced by the last."""
    if len(legs) != len(d.objects):
        raise ShapeMismatch(f"{len(legs)} legs for a chain of {len(d.objects)} objects")
    k = Cocone(d, legs[-1])
    if k.legs != legs:
        raise ShapeMismatch("cocone legs do not commute")
    return k


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


def colimit_finite(d: OmegaChain) -> Cocone:
    """Canonical colimiting cocone of a chain with a verified stabilization
    witness: apex Δ_N, legs by link composites (inverted beyond N)."""
    if d.stab_index is None:
        raise WitnessError("colimit_finite needs a stabilization witness")
    last = len(d.objects) - 1
    return Cocone(d, pair_inverse(link_composite(d, d.stab_index, last)))


def _defects(maps: list[MonotoneMap], target: MonotoneMap) -> tuple[int, ...]:
    """Per map, the number of elements where it differs from target; once per run."""
    counts, last = [], None
    for m in maps:
        if m is not last:
            last, n = m, sum(map(ne, m.table, target.table))
        counts.append(n)
    return tuple(counts)


def _apex_condition(k: Cocone) -> tuple[bool, tuple[int, ...]]:
    """Whether the lub of the round trips c_n^L ∘ c_n^R is the apex identity,
    and each round trip's defect against that identity.  A Cocone commutes
    over a checked chain, so these increase and are constant from the
    witness on, as are the inner round trips of the ADJ check.  Maps are
    interned and every FinPoset is reflexive, so `lub_map_chain` and
    `_defects` may read a run of one term once, exactly; by antisymmetry,
    the equal terms of an increasing chain form one run."""
    es = [compose(leg.l, leg.r) for leg in k.legs]
    lub = lub_map_chain(es, k.chain.witness)
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
    second_ok = True
    residuals = []
    for leg, (ts, lub) in zip(k.legs, k.chain.inner_rows):
        target = compose(leg.r, leg.l)
        if lub != target:
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
    c_N ∘ κ_n = c_n ∘ λ ∘ λ⁻¹ = c_n.  Every Cocone commutes, so k is
    colimiting iff c_N is an iso pair.
    """
    if k.chain.stab_index is None:
        raise WitnessError("is_colimiting needs a stabilization witness")
    return is_iso_pair(k.legs[k.chain.stab_index])


def is_colimiting_by_enumeration(k: Cocone) -> bool:
    """Brute-force variant of is_colimiting quantifying the mediator over
    the full enumerated pair hom-set; cross-checked against the forced-
    candidate shortcut in the test suite."""
    canon = colimit_finite(k.chain)
    if canon.kind != k.kind:  # a chain with no links reports EP; its one leg is an identity
        canon = Cocone(k.chain, pair_identity(canon.apex, k.kind))
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
    trunc = OmegaChain(d.objects[: depth + 1], d.links[:depth], depth)
    return Cocone(trunc, pair_identity(d.objects[depth], d.kind))


# ---------------------------------------------------------------------------
# JSON wire format

def chain_to_json(d: OmegaChain) -> dict:
    return {
        "objects": [poset_to_json(p) for p in d.objects],
        "links": [pair_to_json(f) for f in d.links],
        "stab_index": d.stab_index,
    }


def chain_from_json(obj: dict) -> OmegaChain:
    objects = tuple(poset_from_json(p) for p in obj["objects"])
    links = tuple(pair_from_json(f) for f in obj["links"])
    stab = obj.get("stab_index")
    # bool is an int, and True, 1.0 and 1 are one interning key
    if stab is not None and type(stab) is not int:
        raise WitnessError(f"stab_index must be an integer or null, got {stab!r}")
    return OmegaChain(objects, links, stab)


def cocone_to_json(k: Cocone) -> dict:
    return {
        "chain": chain_to_json(k.chain),
        "apex": poset_to_json(k.apex),
        "legs": [pair_to_json(f) for f in k.legs],
    }


def cocone_from_json(obj: dict) -> Cocone:
    d = chain_from_json(obj["chain"])
    apex = poset_from_json(obj["apex"])
    k = cocone_from_legs(d, tuple(pair_from_json(f) for f in obj["legs"]))
    if k.apex != apex:
        raise ShapeMismatch("cocone apex is not the target of its legs")
    return k
