"""Finite O-categories given by tables, O-presheaves, the enriched Yoneda
embedding and its full-faithfulness, pointwise lubs of natural
transformations, and the lub-reflection equation y(⊔ e_n) = ⊔ y(c_n^L)∘y(c_n^R) = y(id).

A finite O-category is a closed world: objects are names, a morphism is
its position in its hom-set FinPoset, whose `up` rows give the order, and
composition is rows of positions, row f of (a, b, c) precomposing with f.
The builder below constructs the full sub-O-category of the base poset
category on chosen posets, a morphism being its map's position in
`function_space_maps`.  Only `category_to_json` renders element names.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .chains import Cocone
from .errors import CapExceeded, InvalidCategory, ShapeMismatch
from .finposet import (
    FinPoset,
    MonotoneMap,
    compose,
    fun_map,
    function_space_maps,
    identity,
    leq_map,
    lub_map_chain,
    monotone_maps,
    poset_to_json,
)

#: most candidate families (one monotone map per object) that the search
#: for natural transformations will test
FAMILY_CAP = 10_000


@dataclass(frozen=True)
class FinOCategory:
    objects: tuple[str, ...]
    hom: dict  # (a, b) -> FinPoset; a morphism a -> b is a position in it
    comp: dict  # (a, b, c) -> rows: comp[(a, b, c)][f][g] is the position of g∘f
    ids: dict  # a -> position of the identity in hom(a, a)

    def compose(self, a: str, b: str, c: str, f: int, g: int) -> int:
        return self.comp[(a, b, c)][f][g]


def _is_position(t, p: FinPoset) -> bool:
    """An int in range(len(p)): no bool, no negative index that would wrap."""
    return type(t) is int and 0 <= t < len(p)


def _le_pairs(p: FinPoset) -> list[tuple[int, int]]:
    """The position pairs (i, j) with i <= j in p."""
    return [(i, j) for i, row in enumerate(p.up) for j in range(len(p)) if row >> j & 1]


def _first_difference(xs: tuple, ys: tuple) -> int:
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def validate_category(k: FinOCategory) -> None:
    """Category laws plus monotonicity of composition in each argument,
    hence in both as hom(a, c) is transitive, checked a row at a time:
    row f of (a, b, c) is precomposition with f."""
    for a, b in itertools.product(k.objects, repeat=2):
        if (a, b) not in k.hom:
            raise InvalidCategory(f"no hom-set hom({a},{b})")
    for a in k.objects:
        if a not in k.ids:
            raise InvalidCategory(f"no identity of {a}")
        if not _is_position(k.ids[a], k.hom[(a, a)]):
            raise InvalidCategory(f"identity of {a} is not a position in hom({a},{a})")
    for a, b, c in itertools.product(k.objects, repeat=3):
        t, n, m = k.comp.get((a, b, c)), len(k.hom[(a, b)]), len(k.hom[(b, c)])
        ok = type(t) is tuple and len(t) == n and all(type(row) is tuple and len(row) == m for row in t)
        if not (ok and all(_is_position(h, k.hom[(a, c)]) for row in t for h in row)):
            raise InvalidCategory(f"comp {a}->{b}->{c} is not {n} rows of {m} positions in hom({a},{c})")
    for a, b in itertools.product(k.objects, repeat=2):
        ident = tuple(range(len(k.hom[(a, b)])))
        left, right = k.comp[(a, a, b)][k.ids[a]], tuple(row[k.ids[b]] for row in k.comp[(a, b, b)])
        for side, got in (("left", left), ("right", right)):
            if got != ident:
                raise InvalidCategory(f"{side} unit fails at {_first_difference(got, ident)}: {a}->{b}")
    # for all h at once, row g∘f of (a, c, d) is row g of (b, c, d) read through row f
    for a, b, c, d in itertools.product(k.objects, repeat=4):
        acd, bcd = k.comp[(a, c, d)], k.comp[(b, c, d)]
        for f, (gfs, row_f) in enumerate(zip(k.comp[(a, b, c)], k.comp[(a, b, d)])):
            for g, (gf, row_g) in enumerate(zip(gfs, bcd)):
                want = tuple(map(row_f.__getitem__, row_g))
                if acd[gf] != want:
                    h = _first_difference(acd[gf], want)
                    raise InvalidCategory(f"associativity fails at ({f},{g},{h})")
    # rows f1 <= f2 and columns g1 <= g2 must be ordered pointwise in hom(a, c)
    le = {ab: _le_pairs(p) for ab, p in k.hom.items()}
    for a, b, c in itertools.product(k.objects, repeat=3):
        table, le_ac = k.comp[(a, b, c)], set(le[(a, c)])
        cols = list(zip(*table)) or [()] * len(k.hom[(b, c)])
        for arg, lines, pairs in (("first", table, le[(a, b)]), ("second", cols, le[(b, c)])):
            for i, j in pairs:
                if not le_ac.issuperset(zip(lines[i], lines[j])):
                    raise InvalidCategory(f"comp {a}->{b}->{c}: {arg} argument not monotone at {i} <= {j}")


@dataclass(frozen=True)
class PosetOCategory:
    """Full sub-O-category of the base poset category on named posets; a
    morphism a -> b is its map's position in function_space_maps."""

    cat: FinOCategory
    posets: dict  # object name -> FinPoset

    def object_of_poset(self, p: FinPoset) -> str:
        for name, q in self.posets.items():
            if p == q:
                return name
        raise ShapeMismatch(f"poset {p!r} is not registered in the category")

    def token_of_map(self, a: str, b: str, m: MonotoneMap) -> int:
        try:
            return function_space_maps(self.posets[a], self.posets[b])[1].index(m)
        except ValueError:
            raise ShapeMismatch(f"map {m!r} is not a morphism of hom({a},{b})") from None

    def map_of_token(self, a: str, b: str, t: int) -> MonotoneMap:
        if not _is_position(t, self.cat.hom[(a, b)]):
            raise ShapeMismatch(f"{t!r} is not a position in hom({a},{b})")
        return function_space_maps(self.posets[a], self.posets[b])[1][t]


def build_poset_category(posets: dict) -> PosetOCategory:
    names = tuple(posets)
    hom = {(a, b): function_space_maps(posets[a], posets[b]) for a in names for b in names}
    comp = {
        (a, b, c): tuple(fun_map(mf, identity(posets[c])).table for mf in hom[(a, b)][1])
        for a, b, c in itertools.product(names, repeat=3)
    }
    ids = {a: hom[(a, a)][1].index(identity(posets[a])) for a in names}
    k = FinOCategory(names, {ab: fs for ab, (fs, _) in hom.items()}, comp, ids)
    validate_category(k)
    return PosetOCategory(k, dict(posets))


# ---------------------------------------------------------------------------
# presheaves and natural transformations

@dataclass(frozen=True)
class Presheaf:
    at: dict  # object -> FinPoset
    act: dict  # (a, b, position f: a->b) -> MonotoneMap at(b) -> at(a)


def validate_presheaf(k: FinOCategory, p: Presheaf) -> None:
    for a in k.objects:
        if p.act[(a, a, k.ids[a])] != identity(p.at[a]):
            raise InvalidCategory(f"presheaf does not preserve id at {a}")
    for a, b, c in itertools.product(k.objects, repeat=3):
        for f, row in enumerate(k.comp[(a, b, c)]):
            for g, gf in enumerate(row):
                if p.act[(a, c, gf)] != compose(p.act[(a, b, f)], p.act[(b, c, g)]):
                    raise InvalidCategory(f"presheaf action fails at ({f},{g})")
    # local continuity of the action: monotone on each hom-poset
    for a, b in itertools.product(k.objects, repeat=2):
        for f, g in _le_pairs(k.hom[(a, b)]):
            if not leq_map(p.act[(a, b, f)], p.act[(a, b, g)]):
                raise InvalidCategory(f"presheaf action not monotone at {f} <= {g}")


@dataclass(frozen=True)
class NatTrans:
    components: dict  # object -> MonotoneMap


def nat_compose(s: NatTrans, t: NatTrans) -> NatTrans:
    """Vertical composition s after t."""
    return NatTrans({a: compose(s.components[a], t.components[a]) for a in t.components})


def nat_leq(s: NatTrans, t: NatTrans) -> bool:
    return all(leq_map(s.components[a], t.components[a]) for a in s.components)


def is_natural(k: FinOCategory, p: Presheaf, q: Presheaf, eta: NatTrans) -> bool:
    for a, b in itertools.product(k.objects, repeat=2):
        for f in range(len(k.hom[(a, b)])):
            lhs = compose(eta.components[a], p.act[(a, b, f)])
            rhs = compose(q.act[(a, b, f)], eta.components[b])
            if lhs != rhs:
                return False
    return True


def yoneda(k: FinOCategory, x: str) -> Presheaf:
    """y x = hom(-, x), acting by precomposition: f acts by its row."""
    if x not in k.objects:
        raise ShapeMismatch(f"unknown object {x!r}")
    at = {a: k.hom[(a, x)] for a in k.objects}
    act = {
        (a, b, f): MonotoneMap(at[b], at[a], row)
        for a, b in itertools.product(k.objects, repeat=2)
        for f, row in enumerate(k.comp[(a, b, x)])
    }
    p = Presheaf(at, act)
    validate_presheaf(k, p)
    return p


def yoneda_mor(k: FinOCategory, x: str, y: str, f: int) -> NatTrans:
    """Postcomposition with f: x -> y, as a transformation y x => y y."""
    if not _is_position(f, k.hom[(x, y)]):
        raise ShapeMismatch(f"{f!r} is not a position in hom({x},{y})")
    comps = {
        a: MonotoneMap(k.hom[(a, x)], k.hom[(a, y)], tuple(row[f] for row in k.comp[(a, x, y)]))
        for a in k.objects
    }
    # naturality of postcomposition follows from associativity, which
    # validate_category has already checked on every triple of morphisms
    return NatTrans(comps)


def enumerate_nat_trans(k: FinOCategory, p: Presheaf, q: Presheaf) -> tuple[NatTrans, ...]:
    """All natural transformations p => q, in a deterministic order."""
    per_object = [monotone_maps(p.at[a], q.at[a]) for a in k.objects]
    total = 1
    for ms in per_object:
        total *= len(ms)
        if total > FAMILY_CAP:
            raise CapExceeded(f"more than {FAMILY_CAP} candidate families")
    etas = (NatTrans(dict(zip(k.objects, combo))) for combo in itertools.product(*per_object))
    return tuple(eta for eta in etas if is_natural(k, p, q, eta))


def check_fully_faithful(k: FinOCategory) -> bool:
    """f |-> y f is an order-isomorphism hom(a,b) ≅ Nat(y a, y b)."""
    ys = {x: yoneda(k, x) for x in k.objects}
    for a, b in itertools.product(k.objects, repeat=2):
        hab = k.hom[(a, b)]
        nats = enumerate_nat_trans(k, ys[a], ys[b])
        img = [yoneda_mor(k, a, b, f) for f in range(len(hab))]
        img_comps = {tuple(t.components[x] for x in k.objects) for t in img}
        if len(img_comps) != len(hab):
            return False  # not faithful
        if img_comps != {tuple(t.components[x] for x in k.objects) for t in nats}:
            return False  # not full
        img_le = [(f, g) for f, s in enumerate(img) for g, t in enumerate(img) if nat_leq(s, t)]
        if img_le != _le_pairs(hab):
            return False  # not an order-iso
    return True


def pointwise_lub(chain: list[NatTrans], stab_index: int) -> NatTrans:
    """Componentwise lub of a witnessed increasing chain of transformations."""
    objs = chain[0].components
    return NatTrans({a: lub_map_chain([t.components[a] for t in chain], stab_index) for a in objs})


def verify_proof_step(kctx: PosetOCategory, cocone: Cocone) -> bool:
    """Replay the lub-reflection argument on a cocone embedded in the
    category: compute y(⊔ c_n^L∘c_n^R) and ⊔ y(c_n^L)∘y(c_n^R)
    independently and check both equal y(id)."""
    k = kctx.cat
    apex_obj = kctx.object_of_poset(cocone.apex)
    stage_objs = [kctx.object_of_poset(p) for p in cocone.chain.objects]
    stab = cocone.chain.witness

    def y(a: str, b: str, m: MonotoneMap) -> NatTrans:
        return yoneda_mor(k, a, b, kctx.token_of_map(a, b, m))

    # left side: lub downstairs, then yoneda
    es = [compose(leg.l, leg.r) for leg in cocone.legs]
    left = y(apex_obj, apex_obj, lub_map_chain(es, stab))

    # right side: yoneda first, then the pointwise lub upstairs
    terms = [
        nat_compose(y(s, apex_obj, leg.l), y(apex_obj, s, leg.r))
        for s, leg in zip(stage_objs, cocone.legs)
    ]
    right = pointwise_lub(terms, stab)

    y_id = yoneda_mor(k, apex_obj, apex_obj, k.ids[apex_obj])
    return left == y_id and right == y_id


def category_to_json(k: FinOCategory) -> dict:
    """The wire format, the one place that renders morphisms as the element
    names of their hom-sets."""
    name = {ab: p.elems for ab, p in k.hom.items()}
    return {
        "objects": list(k.objects),
        "hom": {f"{a}|{b}": poset_to_json(p) for (a, b), p in k.hom.items()},
        "comp": {
            f"{a}|{b}|{c}": {
                f"{name[(a, b)][f]}|{name[(b, c)][g]}": name[(a, c)][h]
                for f, row in enumerate(table)
                for g, h in enumerate(row)
            }
            for (a, b, c), table in k.comp.items()
        },
        "ids": {a: name[(a, a)][i] for a, i in k.ids.items()},
    }
