"""Locally continuous functor combinators and their action on pairs.

Mixed variance (the function-space combinator) is handled only at the pair
level: pairs symmetrize variance, so every expression acts on pairs even
though only fun-free expressions act on raw maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .chains import (
    Cocone,
    LdReport,
    OmegaChain,
    check_local_determination,
    cocone_from_legs,
    is_colimiting,
)
from .errors import CapExceeded, ShapeMismatch
from .finposet import (
    DEFAULT_ELEM_CAP,
    FinPoset,
    Interned,
    MonotoneMap,
    fun_map,
    identity,
    leq_map,
    lift_map,
    monotone_maps,
    prod_map,
    sum_map,
)
from .opairs import Kind, PairHom, enumerate_pairs, pair_compose, pair_identity, pair_leq

#: cap on the monotone maps a -> b that check_local_continuity enumerates
CONTINUITY_MAP_CAP = 64


class FunctorExpr(metaclass=Interned):
    """Base class for functor syntax trees.  Nodes are interned like posets,
    so equal trees are one object and `==` and `hash` are identity.  A
    combinator prints as its lower-cased class name over its fields, which
    is the concrete syntax the parser reads back."""

    __slots__ = ()

    def __str__(self):
        return f"{type(self).__name__.lower()}({','.join(map(str, _fields(self)))})"


def _fields(e: FunctorExpr) -> list:
    return [getattr(e, name) for name in e.__match_args__]


@dataclass(frozen=True, eq=False)
class Id(FunctorExpr):
    def __str__(self):
        return "D"


@dataclass(frozen=True, eq=False)
class Const(FunctorExpr):
    poset: FinPoset
    name: str = "const"

    def __str__(self):
        return f"const({self.name})"


@dataclass(frozen=True, eq=False)
class Lift(FunctorExpr):
    arg: FunctorExpr


@dataclass(frozen=True, eq=False)
class Prod(FunctorExpr):
    fst: FunctorExpr
    snd: FunctorExpr


@dataclass(frozen=True, eq=False)
class Sum(FunctorExpr):
    fst: FunctorExpr
    snd: FunctorExpr


@dataclass(frozen=True, eq=False)
class Fun(FunctorExpr):
    """Function space; the first argument is contravariant."""

    arg: FunctorExpr
    res: FunctorExpr


@dataclass(frozen=True, eq=False)
class Compose(FunctorExpr):
    outer: FunctorExpr
    inner: FunctorExpr


def has_fun(e: FunctorExpr) -> bool:
    return isinstance(e, Fun) or any(isinstance(c, FunctorExpr) and has_fun(c) for c in _fields(e))


def _check_size(n: int, elem_cap: int) -> None:
    if n > elem_cap:
        raise CapExceeded(f"object of size {n} exceeds cap {elem_cap}")


def apply_mor(e: FunctorExpr, f: MonotoneMap) -> MonotoneMap:
    """Morphism part, defined for fun-free (purely covariant) expressions."""
    match e:
        case Id():
            return f
        case Const(q, _):
            return identity(q)
        case Lift(arg):
            return lift_map(apply_mor(arg, f))
        case Prod(a, b):
            return prod_map(apply_mor(a, f), apply_mor(b, f))
        case Sum(a, b):
            return sum_map(apply_mor(a, f), apply_mor(b, f))
        case Fun():
            raise ShapeMismatch(
                "apply_mor is undefined on fun(...) expressions; use pr_apply_mor"
            )
        case Compose(outer, inner):
            return apply_mor(outer, apply_mor(inner, f))
    raise TypeError(f"unknown functor expression {e!r}")


@cache
def pr_apply_mor(e: FunctorExpr, f: PairHom, elem_cap: int = DEFAULT_ELEM_CAP) -> PairHom:
    """Pair action: componentwise on covariant nodes, symmetrized on fun.
    The one interpreter of functor expressions: every node's source and
    target are checked against elem_cap, and a product is sized before it is
    built, since its factors fit the cap but it can hold cap² elements."""
    match e:
        case Id():
            out = f
        case Const(q, _):
            out = pair_identity(q, f.kind)
        case Lift(arg):
            g = pr_apply_mor(arg, f, elem_cap)
            out = PairHom(f.kind, lift_map(g.l), lift_map(g.r))
        case Prod(a, b):
            ga, gb = pr_apply_mor(a, f, elem_cap), pr_apply_mor(b, f, elem_cap)
            _check_size(len(ga.src) * len(gb.src), elem_cap)
            _check_size(len(ga.tgt) * len(gb.tgt), elem_cap)
            out = PairHom(f.kind, prod_map(ga.l, gb.l), prod_map(ga.r, gb.r))
        case Sum(a, b):
            ga, gb = pr_apply_mor(a, f, elem_cap), pr_apply_mor(b, f, elem_cap)
            out = PairHom(f.kind, sum_map(ga.l, gb.l), sum_map(ga.r, gb.r))
        case Fun(a, b):
            # h ↦ gb.l∘h∘ga.r and k ↦ gb.r∘k∘ga.l
            ga, gb = pr_apply_mor(a, f, elem_cap), pr_apply_mor(b, f, elem_cap)
            out = PairHom(f.kind, fun_map(ga.r, gb.l, elem_cap), fun_map(ga.l, gb.r, elem_cap))
        case Compose(outer, inner):
            out = pr_apply_mor(outer, pr_apply_mor(inner, f, elem_cap), elem_cap)
        case _:
            raise TypeError(f"unknown functor expression {e!r}")
    _check_size(len(out.src), elem_cap)
    _check_size(len(out.tgt), elem_cap)
    return out


def apply_obj(e: FunctorExpr, p: FinPoset, elem_cap: int = DEFAULT_ELEM_CAP) -> FinPoset:
    """Object part, fixed by the action on identities: F(p) = cod F(id_p)."""
    return pr_apply_mor(e, pair_identity(p), elem_cap).tgt


def check_functor_laws(e: FunctorExpr, probes) -> bool:
    """Preservation of identities and composition on a probe set of
    composable pair lists."""
    for probe in probes:
        for f in probe:
            ident = pair_identity(f.src, f.kind)
            if pr_apply_mor(e, ident) != pair_identity(apply_obj(e, f.src), f.kind):
                return False
        for f, g in zip(probe, probe[1:]):
            lhs = pr_apply_mor(e, pair_compose(g, f))
            rhs = pair_compose(pr_apply_mor(e, g), pr_apply_mor(e, f))
            if lhs != rhs:
                return False
    return True


def check_local_continuity(e: FunctorExpr, a: FinPoset, b: FinPoset, kind: Kind = Kind.EP) -> bool:
    """Monotone hom-action on the enumerated hom-poset a -> b.

    On finite posets every chain is eventually constant, so its lub is its
    stable term and any monotone action preserves it: local continuity is
    the monotone hom-action.  For fun-free expressions the action on plain
    maps is tested over the full hom-poset, where the pointwise order is
    nontrivial; the action on pairs is tested under the componentwise
    pair order.
    """
    if not has_fun(e):
        maps = monotone_maps(a, b, CONTINUITY_MAP_CAP)
        images = {f: apply_mor(e, f) for f in maps}
        for f in maps:
            for g in maps:
                if leq_map(f, g) and not leq_map(images[f], images[g]):
                    return False
    pairs = enumerate_pairs(a, b, kind)
    images_pr = {f: pr_apply_mor(e, f) for f in pairs}
    for f in pairs:
        for g in pairs:
            if pair_leq(f, g) and not pair_leq(images_pr[f], images_pr[g]):
                return False
    return True


@dataclass(frozen=True)
class PreservationResult:
    image: Cocone
    colimiting: bool
    locally_determined: LdReport


def image_cocone(e: FunctorExpr, k: Cocone, elem_cap: int = DEFAULT_ELEM_CAP) -> Cocone:
    """The functor applied to every link and leg; ShapeMismatch unless the image legs commute."""
    links = tuple(pr_apply_mor(e, f, elem_cap) for f in k.chain.links)
    legs = tuple(pr_apply_mor(e, leg, elem_cap) for leg in k.legs)
    objects = tuple(leg.src for leg in legs)
    return cocone_from_legs(OmegaChain(objects, links, k.chain.stab_index), legs)


def preserves_cocone(e: FunctorExpr, k: Cocone, elem_cap: int = DEFAULT_ELEM_CAP) -> PreservationResult:
    """Apply the functor to the whole cocone and rerun the checkers on the
    image."""
    image = image_cocone(e, k, elem_cap)
    return PreservationResult(
        image,
        is_colimiting(image),
        check_local_determination(image),
    )
