"""Finite O-categories given by tables, O-presheaves, the enriched Yoneda
embedding and its full-faithfulness, pointwise lubs of natural
transformations, and the lub-reflection equation y(⊔ e_n) = ⊔ y(c_n^L)∘y(c_n^R) = y(id).

A finite O-category is a closed world: objects are names, hom-sets are
FinPosets of opaque morphism tokens, and composition is a table.  The
builder below constructs the full sub-O-category of the base poset
category on a chosen family of posets, with tokens given by the
function-space element names.
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
    hom: dict  # (a, b) -> FinPoset of tokens
    comp: dict  # (a, b, c) -> {(f, g): token of g∘f} for f: a->b, g: b->c
    ids: dict  # a -> identity token in hom(a, a)

    def compose(self, a: str, b: str, c: str, f: str, g: str) -> str:
        return self.comp[(a, b, c)][(f, g)]


def validate_category(k: FinOCategory) -> None:
    """Category laws plus monotonicity of composition in each argument."""
    for a in k.objects:
        if k.ids[a] not in k.hom[(a, a)].elems:
            raise InvalidCategory(f"identity token of {a} not in hom({a},{a})")
    for a, b in itertools.product(k.objects, repeat=2):
        for f in k.hom[(a, b)].elems:
            if k.compose(a, a, b, k.ids[a], f) != f:
                raise InvalidCategory(f"left unit fails at {f}: {a}->{b}")
            if k.compose(a, b, b, f, k.ids[b]) != f:
                raise InvalidCategory(f"right unit fails at {f}: {a}->{b}")
    for a, b, c, d in itertools.product(k.objects, repeat=4):
        for f in k.hom[(a, b)].elems:
            for g in k.hom[(b, c)].elems:
                gf = k.compose(a, b, c, f, g)
                for h in k.hom[(c, d)].elems:
                    lhs = k.compose(a, c, d, gf, h)
                    rhs = k.compose(a, b, d, f, k.compose(b, c, d, g, h))
                    if lhs != rhs:
                        raise InvalidCategory(f"associativity fails at ({f},{g},{h})")
    for a, b, c in itertools.product(k.objects, repeat=3):
        hab, hbc = k.hom[(a, b)], k.hom[(b, c)]
        hac = k.hom[(a, c)]
        for f1 in hab.elems:
            for f2 in hab.elems:
                if not hab.le(f1, f2):
                    continue
                for g1 in hbc.elems:
                    for g2 in hbc.elems:
                        if not hbc.le(g1, g2):
                            continue
                        if not hac.le(
                            k.compose(a, b, c, f1, g1), k.compose(a, b, c, f2, g2)
                        ):
                            raise InvalidCategory(
                                "composition not monotone at "
                                f"({f1},{g1}) <= ({f2},{g2})"
                            )


def _token(p: FinPoset, q: FinPoset, m: MonotoneMap) -> str:
    """The token of m: p -> q, the name at m's position in the function space."""
    fs, maps = function_space_maps(p, q)
    return fs.elems[maps.index(m)]


@dataclass(frozen=True)
class PosetOCategory:
    """Full sub-O-category of the base poset category on named posets; the
    tokens of hom(a, b) name the maps of function_space_maps, position by
    position."""

    cat: FinOCategory
    posets: dict  # object name -> FinPoset

    def object_of_poset(self, p: FinPoset) -> str:
        for name, q in self.posets.items():
            if p == q:
                return name
        raise ShapeMismatch(f"poset {p!r} is not registered in the category")

    def token_of_map(self, a: str, b: str, m: MonotoneMap) -> str:
        try:
            return _token(self.posets[a], self.posets[b], m)
        except ValueError:
            raise ShapeMismatch(f"map {m!r} is not a token of hom({a},{b})") from None

    def map_of_token(self, a: str, b: str, t: str) -> MonotoneMap:
        fs, maps = function_space_maps(self.posets[a], self.posets[b])
        return maps[fs.index(t)]


def build_poset_category(posets: dict) -> PosetOCategory:
    names = tuple(posets)
    hom = {(a, b): function_space_maps(posets[a], posets[b]) for a in names for b in names}
    comp = {}
    for a, b, c in itertools.product(names, repeat=3):
        (fs_ab, maps_ab), (fs_bc, maps_bc) = hom[(a, b)], hom[(b, c)]
        comp[(a, b, c)] = {
            (tf, tg): _token(posets[a], posets[c], compose(mg, mf))
            for tf, mf in zip(fs_ab.elems, maps_ab)
            for tg, mg in zip(fs_bc.elems, maps_bc)
        }
    ids = {a: _token(posets[a], posets[a], identity(posets[a])) for a in names}
    k = FinOCategory(names, {ab: fs for ab, (fs, _) in hom.items()}, comp, ids)
    validate_category(k)
    return PosetOCategory(k, dict(posets))


# ---------------------------------------------------------------------------
# presheaves and natural transformations

@dataclass(frozen=True)
class Presheaf:
    at: dict  # object -> FinPoset
    act: dict  # (a, b, token f: a->b) -> MonotoneMap at(b) -> at(a)


def validate_presheaf(k: FinOCategory, p: Presheaf) -> None:
    for a in k.objects:
        if p.act[(a, a, k.ids[a])] != identity(p.at[a]):
            raise InvalidCategory(f"presheaf does not preserve id at {a}")
    for a, b, c in itertools.product(k.objects, repeat=3):
        for f in k.hom[(a, b)].elems:
            for g in k.hom[(b, c)].elems:
                gf = k.compose(a, b, c, f, g)
                lhs = p.act[(a, c, gf)]
                rhs = compose(p.act[(a, b, f)], p.act[(b, c, g)])
                if lhs != rhs:
                    raise InvalidCategory(f"presheaf action fails at ({f},{g})")
    # local continuity of the action: monotone on each hom-poset
    for a, b in itertools.product(k.objects, repeat=2):
        hab = k.hom[(a, b)]
        for f in hab.elems:
            for g in hab.elems:
                if hab.le(f, g) and not leq_map(p.act[(a, b, f)], p.act[(a, b, g)]):
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
        for f in k.hom[(a, b)].elems:
            lhs = compose(eta.components[a], p.act[(a, b, f)])
            rhs = compose(q.act[(a, b, f)], eta.components[b])
            if lhs != rhs:
                return False
    return True


def yoneda(k: FinOCategory, x: str) -> Presheaf:
    """y x = hom(-, x), acting by precomposition."""
    if x not in k.objects:
        raise ShapeMismatch(f"unknown object {x!r}")
    at = {a: k.hom[(a, x)] for a in k.objects}
    act = {}
    for a in k.objects:
        for b in k.objects:
            hbx, hax = k.hom[(b, x)], k.hom[(a, x)]
            for f in k.hom[(a, b)].elems:
                table = tuple(
                    hax.index(k.compose(a, b, x, f, g)) for g in hbx.elems
                )
                act[(a, b, f)] = MonotoneMap(hbx, hax, table)
    p = Presheaf(at, act)
    validate_presheaf(k, p)
    return p


def yoneda_mor(k: FinOCategory, x: str, y: str, f: str) -> NatTrans:
    """Postcomposition with f: x -> y, as a transformation y x => y y."""
    if f not in k.hom[(x, y)].elems:
        raise ShapeMismatch(f"unknown token {f!r} in hom({x},{y})")
    comps = {}
    for a in k.objects:
        hax, hay = k.hom[(a, x)], k.hom[(a, y)]
        table = tuple(hay.index(k.compose(a, x, y, g, f)) for g in hax.elems)
        comps[a] = MonotoneMap(hax, hay, table)
    # naturality of postcomposition follows from associativity, which
    # validate_category has already checked on every token triple
    return NatTrans(comps)


def enumerate_nat_trans(k: FinOCategory, p: Presheaf, q: Presheaf) -> tuple[NatTrans, ...]:
    """All natural transformations p => q, in a deterministic order."""
    per_object = [monotone_maps(p.at[a], q.at[a]) for a in k.objects]
    total = 1
    for ms in per_object:
        total *= len(ms)
        if total > FAMILY_CAP:
            raise CapExceeded(f"more than {FAMILY_CAP} candidate families")
    out = []
    for combo in itertools.product(*per_object):
        eta = NatTrans(dict(zip(k.objects, combo)))
        if is_natural(k, p, q, eta):
            out.append(eta)
    return tuple(out)


def check_fully_faithful(k: FinOCategory) -> bool:
    """f |-> y f is an order-isomorphism hom(a,b) ≅ Nat(y a, y b)."""
    ys = {x: yoneda(k, x) for x in k.objects}
    for a in k.objects:
        for b in k.objects:
            hab = k.hom[(a, b)]
            nats = enumerate_nat_trans(k, ys[a], ys[b])
            img = {f: yoneda_mor(k, a, b, f) for f in hab.elems}
            img_comps = {tuple(t.components[x] for x in k.objects) for t in img.values()}
            if len(img_comps) != len(hab.elems):
                return False  # not faithful
            if img_comps != {tuple(t.components[x] for x in k.objects) for t in nats}:
                return False  # not full
            for f in hab.elems:
                for g in hab.elems:
                    if hab.le(f, g) != nat_leq(img[f], img[g]):
                        return False  # not an order-iso
    return True


def pointwise_lub(chain: list[NatTrans], stab_index: int) -> NatTrans:
    """Componentwise lub of a witnessed increasing chain of transformations."""
    objs = chain[0].components.keys()
    comps = {}
    for a in objs:
        comps[a] = lub_map_chain([t.components[a] for t in chain], stab_index)
    return NatTrans(comps)


def verify_proof_step(kctx: PosetOCategory, cocone: Cocone) -> bool:
    """Replay the lub-reflection argument on a cocone embedded in the
    category: compute y(⊔ c_n^L∘c_n^R) and ⊔ y(c_n^L)∘y(c_n^R)
    independently and check both equal y(id)."""
    k = kctx.cat
    apex_obj = kctx.object_of_poset(cocone.apex)
    stage_objs = [kctx.object_of_poset(p) for p in cocone.chain.objects]
    stab = cocone.chain.witness

    # left side: lub downstairs, then yoneda
    es = [compose(leg.l, leg.r) for leg in cocone.legs]
    lub = lub_map_chain(es, stab)
    left = yoneda_mor(k, apex_obj, apex_obj, kctx.token_of_map(apex_obj, apex_obj, lub))

    # right side: yoneda first, then the pointwise lub upstairs
    terms = []
    for n, leg in enumerate(cocone.legs):
        yl = yoneda_mor(
            k, stage_objs[n], apex_obj, kctx.token_of_map(stage_objs[n], apex_obj, leg.l)
        )
        yr = yoneda_mor(
            k, apex_obj, stage_objs[n], kctx.token_of_map(apex_obj, stage_objs[n], leg.r)
        )
        terms.append(nat_compose(yl, yr))
    right = pointwise_lub(terms, stab)

    y_id = yoneda_mor(k, apex_obj, apex_obj, k.ids[apex_obj])
    return left == y_id and right == y_id


def category_to_json(k: FinOCategory) -> dict:
    return {
        "objects": list(k.objects),
        "hom": {f"{a}|{b}": poset_to_json(p) for (a, b), p in k.hom.items()},
        "comp": {
            f"{a}|{b}|{c}": {f"{f}|{g}": h for (f, g), h in table.items()}
            for (a, b, c), table in k.comp.items()
        },
        "ids": dict(k.ids),
    }
