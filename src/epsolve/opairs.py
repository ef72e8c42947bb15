"""Projection (embedding-projection) pairs and adjoint pairs.

Both kinds share one representation with a kind tag: the proofs for the
two kinds are near-identical and so is the code.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache

from .errors import CapExceeded, InvalidPair, ShapeMismatch
from .finposet import (
    HARD_ENUM_LIMIT,
    FinPoset,
    Interned,
    MonotoneMap,
    compose,
    identity,
    leq_map,
    map_from_json,
    map_to_json,
)

class Kind(str, enum.Enum):
    EP = "EP"
    ADJ = "ADJ"


def _check_shapes(l: MonotoneMap, r: MonotoneMap) -> None:
    if l.dom != r.cod or l.cod != r.dom:
        raise ShapeMismatch("pair legs must be l: A->B, r: B->A")


def is_ep_pair(l: MonotoneMap, r: MonotoneMap) -> bool:
    """r∘l = id and l∘r <= id."""
    _check_shapes(l, r)
    lt, rt, bup = l.table, r.table, l.cod.up
    return all(rt[v] == i for i, v in enumerate(lt)) and all(
        bup[lt[v]] >> j & 1 for j, v in enumerate(rt)
    )


def is_adjoint_pair(l: MonotoneMap, r: MonotoneMap) -> bool:
    """l∘r <= id and id <= r∘l."""
    _check_shapes(l, r)
    lt, rt, aup, bup = l.table, r.table, l.dom.up, l.cod.up
    return all(bup[lt[v]] >> j & 1 for j, v in enumerate(rt)) and all(
        aup[i] >> rt[v] & 1 for i, v in enumerate(lt)
    )


_CHECKS = {Kind.EP: is_ep_pair, Kind.ADJ: is_adjoint_pair}


@dataclass(frozen=True, eq=False)
class PairHom(metaclass=Interned):
    """A pair l: A -> B, r: B -> A of the given kind.  Construction checks
    the kind's laws, so no invalid pair exists; interning runs the check
    only when it builds an instance, so a live pair is not checked again."""

    kind: Kind
    l: MonotoneMap
    r: MonotoneMap

    def __post_init__(self):
        if not _CHECKS[self.kind](self.l, self.r):
            raise InvalidPair(f"not a valid {self.kind.value} pair")

    @property
    def src(self) -> FinPoset:
        return self.l.dom

    @property
    def tgt(self) -> FinPoset:
        return self.l.cod


def pair_identity(p: FinPoset, kind: Kind = Kind.EP) -> PairHom:
    i = identity(p)
    return PairHom(kind, i, i)


@cache
def pair_compose(g: PairHom, f: PairHom) -> PairHom:
    """(g∘f)^L = g^L∘f^L, (g∘f)^R = f^R∘g^R."""
    if g.kind != f.kind:
        raise ShapeMismatch("pair_compose: kind mismatch")
    if f.tgt != g.src:
        raise ShapeMismatch("pair_compose: tgt(f) != src(g)")
    return PairHom(f.kind, compose(g.l, f.l), compose(f.r, g.r))


def pair_leq(f: PairHom, g: PairHom) -> bool:
    """Componentwise hom-order on pairs."""
    if f.kind != g.kind:
        raise ShapeMismatch("pair_leq: kind mismatch")
    if f.src != g.src or f.tgt != g.tgt:
        raise ShapeMismatch("pair_leq: endpoint mismatch")
    return leq_map(f.l, g.l) and leq_map(f.r, g.r)


def is_iso_pair(f: PairHom) -> bool:
    lt, rt = f.l.table, f.r.table
    return all(rt[v] == i for i, v in enumerate(lt)) and all(
        lt[v] == j for j, v in enumerate(rt)
    )


def pair_inverse(f: PairHom) -> PairHom:
    if not is_iso_pair(f):
        raise InvalidPair("pair_inverse: not an isomorphism pair")
    return PairHom(f.kind, f.r, f.l)


def bottom_inclusion_pair(pt: FinPoset, q: FinPoset, kind: Kind = Kind.EP) -> PairHom:
    """The unique pair from the one-point poset into a pointed poset:
    send the point to the bottom, project to the point."""
    if len(pt) != 1:
        raise ShapeMismatch("bottom_inclusion_pair: source must be the one-point poset")
    if not q.is_pointed:
        raise ShapeMismatch("bottom_inclusion_pair: target must be pointed")
    return PairHom(kind, MonotoneMap(pt, q, (q.bot,)), MonotoneMap(q, pt, (0,) * len(q)))


def derived_right_leg(l: MonotoneMap) -> MonotoneMap | None:
    """The only possible right leg for l, for either kind: both pair notions
    make (l, r) a Galois connection, forcing r(b) = max {a : l(a) <= b}.
    `enumerate_pairs` reads r off its walk instead; this is its oracle."""
    a_down, b_down = l.dom.down, l.cod.down
    table = []
    for below in b_down:
        cands = sum(1 << ia for ia, v in enumerate(l.table) if below >> v & 1)
        # the max is the candidate whose down-set covers every candidate
        maxes = [ia for ia, d in enumerate(a_down) if cands >> ia & 1 and d & cands == cands]
        if not maxes:
            return None
        table.append(maxes[0])
    return MonotoneMap(l.cod, l.dom, tuple(table))


@cache
def enumerate_pairs(a: FinPoset, b: FinPoset, kind: Kind = Kind.EP) -> tuple[PairHom, ...]:
    """All valid pairs a -> b of the given kind, ordered by left-leg table;
    CapExceeded past HARD_ENUM_LIMIT pairs.  Posets of any size are walked:
    the walk is a loop over a stack of per-position masks, it prunes on its
    own, and only kept pairs count toward the limit.

    Both kinds are Galois connections, l(i) <= w iff i <= r(w); an ep pair
    also has r∘l = id.  One walk fills l's table in order and keeps, for
    each w in b, the mask rc[w] of the elements of a that can still be r(w):
    l(i) = v keeps in rc[w] the elements above i if v <= w, else the rest,
    and for EP rc[v] keeps only i.  A child is entered only if no mask is
    empty; a valid pair's r(w) is never cut, so none is missed.  Monotonicity
    needs no cut of its own: j <= i with l(j) not <= l(i) leaves in rc[l(i)]
    only elements above i, hence above j, yet none above j.  At a leaf every
    element of rc[w] has down-set {i : l(i) <= w}, so by antisymmetry rc[w]
    holds r(w) alone, so every leaf is a valid pair and needs no check of
    its own beyond the one `PairHom` runs when it is first built.
    """
    n, m = len(a), len(b)
    ep = kind == Kind.EP
    leq = [[bool(row >> w & 1) for w in range(m)] for row in b.up]  # leq[v][w]: v <= w in b
    out: list[PairHom] = []
    tab = [0] * n
    start = [0] * (n + 1)  # per position, the first value of b not yet tried
    # per position, the masks on entering it; with a empty they start empty
    rcs = [[(1 << n) - 1] * m] + [[]] * n
    i = 0 if all(rcs[0]) else -1
    while i >= 0:
        if i == n:
            l = MonotoneMap(a, b, tuple(tab))
            r = MonotoneMap(b, a, tuple(c.bit_length() - 1 for c in rcs[n]))
            out.append(PairHom(kind, l, r))
            if len(out) > HARD_ENUM_LIMIT:
                raise CapExceeded(f"more than {HARD_ENUM_LIMIT} {kind.value} pairs from {n} to {m} elements")
            i -= 1
            continue
        rc, above, apart = rcs[i], a.up[i], ~a.up[i]
        for v in range(start[i], m):
            nxt = [c & (above if le else apart) for c, le in zip(rc, leq[v])]
            if ep:
                nxt[v] &= 1 << i
            if all(nxt):
                tab[i], start[i] = v, v + 1
                i += 1
                rcs[i], start[i] = nxt, 0
                break
        else:
            i -= 1
    return tuple(out)


def pair_to_json(f: PairHom) -> dict:
    return {"kind": f.kind.value, "l": map_to_json(f.l), "r": map_to_json(f.r)}


def pair_from_json(obj: dict) -> PairHom:
    kind = Kind(obj["kind"])
    return PairHom(kind, map_from_json(obj["l"]), map_from_json(obj["r"]))
