"""Finite (optionally pointed) posets and monotone maps.

Every finite poset is an omega-cpo: ascending chains stabilize, so
continuity coincides with monotonicity and least upper bounds of chains
are computed exactly from an explicit stabilization witness.
"""
from __future__ import annotations

import inspect
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress
from operator import ne

from .errors import CapExceeded, InvalidPoset, NotPointed, ShapeMismatch, WitnessError

#: ceiling on monotone-map and pair enumerations for callers that set no cap
HARD_ENUM_LIMIT = 100_000

#: the element cap: largest poset a functor application or function space
#: may build (the CLI's --max-size)
DEFAULT_ELEM_CAP = 512

#: most leaf orderings the canonical-form search will compare
CANONICAL_ORDER_CAP = 50_000


@dataclass(frozen=True)
class Violation:
    """Names the first poset axiom that failed and a witness."""

    axiom: str
    witness: tuple[str, ...]


#: (class, *fields) -> the live instance with those fields
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Interned(type):
    """Metaclass that hash-conses a frozen dataclass (Filliâtre & Conchon,
    "Type-safe modular hash-consing", 2006): constructing with equal fields
    returns the live instance, so `==` and `hash` are the inherited object
    identity.  The table holds instances weakly; an unreferenced one dies.
    A class's `__post_init__` check runs only when an instance is built, and
    one that raises leaves nothing in the table.
    Construction is not thread-safe: two threads could intern twins."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            # bind keywords and defaults as the dataclass __init__ would,
            # without building an instance (and running its check) to do it
            bound = inspect.signature(cls.__init__).bind(None, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key = (cls, *args)
        obj = _INTERNED.get(key)
        if obj is None:
            obj = _INTERNED[key] = super().__call__(*args)
        return obj


def _ones(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _bit_strings(rows: tuple[int, ...]) -> list[str]:
    """Each n-bit row as a string of "0"/"1" whose j-th character is bit j."""
    n = len(rows)
    return [format(row, f"0{n}b")[::-1] for row in rows]


#: characters that give a constructed name its structure; a user name nested
#: in a constructed one gets a backslash before each
_ESCAPE = str.maketrans({c: "\\" + c for c in "\\(),{}:"})


@dataclass(frozen=True, eq=False)
class FinPoset(metaclass=Interned):
    """A finite poset stored as up-set rows: bit j of `up[i]` is set iff
    element i <= element j, and `bot` is the bottom's position or None.
    `names` is the user's tuple of element names or a constructor term,
    ("lift", p), ("sum", p, q), ("prod", p, q) or ("fun", p, q, maps), whose
    names `_render` builds when `elems` is first read.  A user-named poset
    is checked when built and raises InvalidPoset naming the first failed
    axiom; a term's rows come from valid children and are not checked."""

    names: tuple
    up: tuple[int, ...]
    bot: int | None = None

    def __post_init__(self):
        if not _is_term(self.names):
            v = _violation(self.names, self.up, self.bot)
            if v is not None:
                raise InvalidPoset(v)

    @cached_property
    def elems(self) -> tuple[str, ...]:
        if not _is_term(self.names):
            return self.names
        made = _children_first(self, "elems")
        names = _render(self.names)
        # the subterms' names were needed only to build these: keep none of them
        for q in made:
            vars(q).pop("elems", None)
        return names

    @property
    def bottom(self) -> str | None:
        return None if self.bot is None else self.elems[self.bot]

    @cached_property
    def _pos(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elems)}

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Down-set rows, the transpose of `up`: bit i of `down[j]` iff
        element i <= element j.  A constructed poset builds them from its
        term, as it built `up`; a user-named poset transposes, column j of
        the joined bit strings being the slice from j in steps of n."""
        if _is_term(self.names):
            _children_first(self, "down")
            return _term_rows(self.names, "down")
        n, full = len(self.up), "".join(_bit_strings(self.up))
        return tuple(int(full[j::n][::-1], 2) for j in range(n))

    def __len__(self) -> int:
        return len(self.up)

    def index(self, e: str) -> int:
        return self._pos[e]

    def le(self, a: str, b: str) -> bool:
        return bool(self.up[self._pos[a]] >> self._pos[b] & 1)

    @property
    def is_pointed(self) -> bool:
        return self.bot is not None

    def __repr__(self) -> str:
        b = f", bottom={self.bottom!r}" if self.bot is not None else ""
        return f"FinPoset({list(self.elems)!r}{b})"


def _is_term(names: tuple) -> bool:
    return len(names) > 1 and isinstance(names[1], FinPoset)


def _pending(p: FinPoset, attr: str) -> list[FinPoset]:
    """The constructed posets in the term of p whose cached `attr` is not computed yet."""
    return [q for q in p.names[1:3] if _is_term(q.names) and attr not in vars(q)]


def _children_first(p: FinPoset, attr: str) -> list[FinPoset]:
    """Compute the cached `attr` of every constructed poset in p's term that
    lacks it, children before parents, so that a stage nested as deep as a
    long solve needs no deep recursion; return those posets."""
    todo, made = _pending(p, attr), []
    while todo:
        kids = _pending(todo[-1], attr)
        if kids:
            todo += kids
        else:
            made.append(todo.pop())
            getattr(made[-1], attr)
    return made


def _term_rows(term: tuple, side: str) -> tuple[int, ...]:
    """The "up" or "down" rows of a constructor term, from its children's
    rows of the same side.  The fresh bottom of a lift or sum lies below
    every element: its up row is full, and it is in every down row."""
    if term[0] == "fun":
        _, p, q, maps = term
        # bit k of sends[a][u]: maps[k] sends a to u; bit k of reach[a][v]: maps[k]
        # sends a to a value >= v (up) or <= v (down); f's row is the and of
        # reach[a][f(a)] over the positions a
        sends = [[0] * len(q) for _ in p.up]
        for k, f in enumerate(maps):
            for a, u in enumerate(f.table):
                sends[a][u] |= 1 << k
        reach = [[sum(at[u] for u in _ones(row)) for row in getattr(q, side)] for at in sends]
        rows = []
        for f in maps:
            row = (1 << len(maps)) - 1
            for a, v in enumerate(f.table):
                row &= reach[a][v]
            rows.append(row)
        return tuple(rows)
    if term[0] == "prod":
        _, p, q = term
        nq = len(q)
        # (a,b) sits at i*nq + j: spread p's row to one bit per nq-bit block,
        # then multiplying by q's row (under nq bits) copies it into each block
        blocks = [sum(1 << (i * nq) for i in _ones(row)) for row in getattr(p, side)]
        return tuple(spread * row for spread in blocks for row in getattr(q, side))
    kids = term[1:]
    n = 1 + sum(map(len, kids))
    bottom, low = ((1 << n) - 1, 0) if side == "up" else (1, 1)
    rows, shift = [bottom], 1
    for k in kids:
        rows += [row << shift | low for row in getattr(k, side)]
        shift += len(k)
    return tuple(rows)


def _nested(p: FinPoset) -> tuple[str, ...]:
    """p's names as they appear inside a constructed name."""
    return p.elems if _is_term(p.names) else tuple(e.translate(_ESCAPE) for e in p.names)


def _render(term: tuple) -> tuple[str, ...]:
    """The element names of a constructor term, in position order; the one
    place that knows the naming scheme.  User names nested inside are
    escaped, so by the grammar of the four forms distinct positions render
    distinct names."""
    match term:
        case ("lift", p):
            return ("lift-bottom",) + tuple(f"up({a})" for a in _nested(p))
        case ("sum", p, q):
            return ("sum-bottom", *(f"inl({a})" for a in _nested(p)), *(f"inr({b})" for b in _nested(q)))
        case ("prod", p, q):
            bs = _nested(q)
            return tuple(f"({a},{b})" for a in _nested(p) for b in bs)
        case ("fun", p, q, maps):
            a_s, bs = _nested(p), _nested(q)
            return tuple("{" + ",".join(f"{a}:{bs[v]}" for a, v in zip(a_s, f.table)) + "}" for f in maps)


def make_poset(elems, pairs, bottom=None) -> FinPoset:
    """Build a poset from a list of strict/non-strict `a <= b` pairs.

    The reflexive-transitive closure of `pairs` is taken; the result is
    validated and InvalidPoset raised if antisymmetry fails.
    """
    elems = tuple(elems)
    n = len(elems)
    pos = {e: i for i, e in enumerate(elems)}
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[pos[a]] |= 1 << pos[b]
    # Warshall's transitive closure: a row reaching k takes in k's row
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return _checked(elems, tuple(up), bottom)


def _checked(elems: tuple[str, ...], up: tuple[int, ...], bottom: str | None) -> FinPoset:
    """The poset on user names whose bottom is given by name; InvalidPoset
    names the first violation, the bottom's last."""
    p = FinPoset(elems, up, elems.index(bottom) if bottom in elems else None)
    if bottom is not None and p.bot is None:
        raise InvalidPoset(Violation("bottom-membership", (bottom,)))
    return p


def validate_poset(p: FinPoset) -> Violation | None:
    """Check all poset axioms; return the first violation or None."""
    return _violation(p.elems, p.up, p.bot)


def _violation(elems: tuple, up: tuple[int, ...], bot: int | None) -> Violation | None:
    """The first poset axiom that the names, up rows and bottom position fail."""
    n = len(up)
    if len(set(elems)) < len(elems):
        return Violation("distinct-elems", (next(e for i, e in enumerate(elems) if e in elems[:i]),))
    full = (1 << n) - 1
    if len(elems) != n or any(row & ~full for row in up) or not (bot is None or 0 <= bot < n):
        return Violation("shape", ())
    for i in range(n):
        if not up[i] >> i & 1:
            return Violation("reflexivity", (elems[i],))
    for i in range(n):
        for j in _ones(up[i] & ~(1 << i)):
            if up[j] >> i & 1:
                return Violation("antisymmetry", (elems[i], elems[j]))
    for i in range(n):
        for j in _ones(up[i]):
            missed = up[j] & ~up[i]
            if missed:
                return Violation("transitivity", (elems[i], elems[j], elems[_ones(missed)[0]]))
    if bot is not None:
        below = full & ~up[bot]
        if below:
            return Violation("bottom-least", (elems[bot], elems[_ones(below)[0]]))
    return None


# ---------------------------------------------------------------------------
# small catalog used throughout tests, the CLI registry and the suites

@cache
def one_point() -> FinPoset:
    return FinPoset(("*",), (1,), 0)


@cache
def chain_poset(n: int) -> FinPoset:
    """Total order v0 < v1 < ... < v{n-1} with v0 as bottom; the empty
    chain, like antichain(0), has none."""
    elems = tuple(f"v{i}" for i in range(n))
    full = (1 << n) - 1
    return FinPoset(elems, tuple(full >> i << i for i in range(n)), 0 if n else None)


@cache
def diamond() -> FinPoset:
    return make_poset(
        ("bot", "left", "right", "top"),
        [("bot", "left"), ("bot", "right"), ("left", "top"), ("right", "top")],
        bottom="bot",
    )


@cache
def flat(k: int) -> FinPoset:
    """k incomparable points over a shared bottom."""
    elems = ("bot",) + tuple(f"a{i}" for i in range(k))
    return make_poset(elems, [("bot", e) for e in elems[1:]], bottom="bot")


@cache
def antichain(k: int) -> FinPoset:
    elems = tuple(f"a{i}" for i in range(k))
    return FinPoset(elems, tuple(1 << i for i in range(k)), 0 if k == 1 else None)


# ---------------------------------------------------------------------------
# monotone maps

@dataclass(frozen=True, eq=False)
class MonotoneMap(metaclass=Interned):
    dom: FinPoset
    cod: FinPoset
    table: tuple[int, ...]  # cod indices, aligned with dom.elems

    def __call__(self, e: str) -> str:
        return self.cod.elems[self.table[self.dom.index(e)]]

    def mapping(self) -> dict[str, str]:
        return {d: self.cod.elems[v] for d, v in zip(self.dom.elems, self.table)}

    def __repr__(self) -> str:
        items = ",".join(f"{d}->{c}" for d, c in self.mapping().items())
        return f"MonotoneMap({{{items}}})"


def map_from_dict(dom: FinPoset, cod: FinPoset, mapping: dict[str, str]) -> MonotoneMap:
    if not isinstance(mapping, dict):
        raise ShapeMismatch(f"map table must be a dict, got {type(mapping).__name__}")
    missing = [e for e in dom.elems if e not in mapping]
    extra = [e for e in mapping if e not in dom._pos]
    if missing or extra:
        raise ShapeMismatch(f"map table missing entries for {missing}, outside the domain {extra}")
    stray = [v for v in mapping.values() if not isinstance(v, str) or v not in cod._pos]
    if stray:
        raise ShapeMismatch(f"map table values outside the codomain {stray}")
    return MonotoneMap(dom, cod, tuple(cod.index(mapping[e]) for e in dom.elems))


def is_monotone(f: MonotoneMap) -> bool:
    up_d, up_c, t = f.dom.up, f.cod.up, f.table
    return all(up_c[t[i]] >> t[j] & 1 for i, row in enumerate(up_d) for j in _ones(row))


@cache
def identity(p: FinPoset) -> MonotoneMap:
    return MonotoneMap(p, p, tuple(range(len(p))))


def const_map(p: FinPoset, q: FinPoset, target: str) -> MonotoneMap:
    return MonotoneMap(p, q, (q.index(target),) * len(p))


@cache
def compose(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    """g after f."""
    if f.cod != g.dom:
        raise ShapeMismatch("compose: cod(f) != dom(g)")
    return MonotoneMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def leq_map(f: MonotoneMap, g: MonotoneMap) -> bool:
    """Pointwise order on a hom-set."""
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("leq_map: maps must share dom and cod")
    up = f.cod.up
    return all(up[a] >> b & 1 for a, b in zip(f.table, g.table))


# ---------------------------------------------------------------------------
# chains of maps with an explicit stabilization witness

def lub_map_chain(terms: list[MonotoneMap], stab_index: int) -> MonotoneMap:
    """Least upper bound of a witnessed eventually-constant chain: the terms
    must increase and be constant from `stab_index` on, else WitnessError."""
    if not terms:
        raise WitnessError("empty chain")
    if not 0 <= stab_index < len(terms):
        raise WitnessError(f"stab_index {stab_index} out of range")
    for i in range(len(terms) - 1):
        # x <= x in every FinPoset, and a repeated term is one interned object
        if terms[i] is not terms[i + 1] and not leq_map(terms[i], terms[i + 1]):
            raise WitnessError(f"chain not increasing at index {i}")
    w = terms[stab_index]
    for j in range(stab_index + 1, len(terms)):
        if terms[j] != w:
            raise WitnessError(f"stabilization witness fails at index {j}")
    return w


# ---------------------------------------------------------------------------
# constructions

@cache
def product(p: FinPoset, q: FinPoset) -> FinPoset:
    term = ("prod", p, q)
    bot = p.bot * len(q) + q.bot if p.is_pointed and q.is_pointed else None
    return FinPoset(term, _term_rows(term, "up"), bot)


@cache
def coproduct(p: FinPoset, q: FinPoset) -> FinPoset:
    """Disjoint union glued below a fresh bottom (sum of pointed posets)."""
    if not (p.is_pointed and q.is_pointed):
        raise NotPointed("coproduct requires pointed posets")
    term = ("sum", p, q)
    return FinPoset(term, _term_rows(term, "up"), 0)


@cache
def lift(p: FinPoset) -> FinPoset:
    term = ("lift", p)
    return FinPoset(term, _term_rows(term, "up"), 0)


@cache
def monotone_maps(p: FinPoset, q: FinPoset, cap: int = HARD_ENUM_LIMIT) -> tuple[MonotoneMap, ...]:
    """All monotone maps p -> q in a fixed (table-lexicographic) order.
    The walk collects tables and raises CapExceeded as soon as a (cap+1)-th
    table is found, before any map is built; the maps are built only once
    it ends within the cap.  Position i's candidates are cut by q's up row
    of each earlier position below i and q's down row of each earlier
    position above it, and taken from that mask one bit at a time; the walk
    is a loop over a stack of the masks' untried bits, so p may have any
    number of elements.  An empty p has one map, the empty table, which
    counts toward the cap too."""
    n, m = len(p), len(q)
    full, qup, qdown = (1 << m) - 1, q.up, q.down
    earlier = [(1 << i) - 1 for i in range(n)]
    below = [_ones(row & e) for row, e in zip(p.down, earlier)]
    above = [_ones(row & e) for row, e in zip(p.up, earlier)]
    tables: list[tuple[int, ...]] = []
    tab = [0] * n
    left = [0] * n  # per position, the candidates not yet tried
    i = 0
    while True:
        if i < n:
            cands = full
            for j in below[i]:
                cands &= qup[tab[j]]
            for j in above[i]:
                cands &= qdown[tab[j]]
        else:
            tables.append(tuple(tab))
            if len(tables) > cap:
                raise CapExceeded(f"more than {cap} monotone maps from {n} to {m} elements")
            cands = 0
        # back up to the deepest position with a candidate left
        while not cands:
            i -= 1
            if i < 0:
                return tuple(MonotoneMap(p, q, t) for t in tables)
            cands = left[i]
        low = cands & -cands
        left[i] = cands ^ low
        tab[i] = low.bit_length() - 1
        i += 1


@cache
def function_space_maps(
    p: FinPoset, q: FinPoset, cap: int = DEFAULT_ELEM_CAP
) -> tuple[FinPoset, tuple[MonotoneMap, ...]]:
    """The poset of monotone maps p -> q together with the maps themselves,
    aligned index-for-index with the poset's elements; built once per (p, q, cap)."""
    maps = monotone_maps(p, q, cap)
    term = ("fun", p, q, maps)
    bot = maps.index(MonotoneMap(p, q, (q.bot,) * len(p))) if q.is_pointed else None
    return FinPoset(term, _term_rows(term, "up"), bot), maps


def function_space(p: FinPoset, q: FinPoset, cap: int = DEFAULT_ELEM_CAP) -> FinPoset:
    return function_space_maps(p, q, cap)[0]


# ---------------------------------------------------------------------------
# the constructions' action on maps, on the element layouts above

def lift_map(f: MonotoneMap) -> MonotoneMap:
    dom, cod = lift(f.dom), lift(f.cod)
    # slot 0 is the fresh bottom in both; old elements shift by one
    return MonotoneMap(dom, cod, (0,) + tuple(v + 1 for v in f.table))


def prod_map(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    dom, cod = product(f.dom, g.dom), product(f.cod, g.cod)
    nq, mq = len(g.dom), len(g.cod)
    table = tuple(
        f.table[i] * mq + g.table[j] for i in range(len(f.dom)) for j in range(nq)
    )
    return MonotoneMap(dom, cod, table)


def sum_map(f: MonotoneMap, g: MonotoneMap) -> MonotoneMap:
    dom, cod = coproduct(f.dom, g.dom), coproduct(f.cod, g.cod)
    np_ = len(f.cod)
    table = (0,) + tuple(v + 1 for v in f.table) + tuple(v + 1 + np_ for v in g.table)
    return MonotoneMap(dom, cod, table)


def fun_map(pre: MonotoneMap, post: MonotoneMap, cap: int = DEFAULT_ELEM_CAP) -> MonotoneMap:
    """h ↦ post∘h∘pre, from the function space pre.cod -> post.dom to the
    function space pre.dom -> post.cod, which are built in that order.  On
    tables (post∘h∘pre)(x) = post[h[pre[x]]], and each image is found by its
    position among the target's maps."""
    dom, maps = function_space_maps(pre.cod, post.dom, cap)
    cod, targets = function_space_maps(pre.dom, post.cod, cap)
    pos = {m.table: i for i, m in enumerate(targets)}
    a, b = pre.table, post.table
    table = tuple(pos[tuple(b[h[x]] for x in a)] for h in (m.table for m in maps))
    return MonotoneMap(dom, cod, table)


# ---------------------------------------------------------------------------
# canonical forms and isomorphism

#: maps the characters of a bit string to bytes 0/1
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")

#: a row is sparse when its set bits, times this, are fewer than its length;
#: `_ranks_in` lists a sparse row's bits instead of formatting all of them
SPARSE_ROW = 8

#: a refinement step finds the cells its splitter can cut from the set bits
#: of the splitter's rows when they, times this, are fewer than the loose
#: cells, and scans every loose cell otherwise (when the bits are many, the
#: scan is the cheaper way)
SPARSE_HIT = 1


def _ranks_in(rk: list[int], row: int) -> tuple[int, ...]:
    """The sorted ranks of the elements in `row`: read at its set bits when
    the row is sparse, else selected from `rk` by its bits as bytes 0/1."""
    n = len(rk)
    if row.bit_count() * SPARSE_ROW < n:
        return tuple(sorted([rk[j] for j in _ones(row)]))
    return tuple(sorted(compress(rk, format(row, f"0{n}b")[::-1].encode().translate(_FLAGS))))


def _refine_ranks(p: FinPoset) -> list[int]:
    """Iterated order-invariant refinement of element classes.  Only an
    element whose class has another member gets the ranks below and above
    it: a singleton's rank already sets it apart, so its key is that rank."""
    n = len(p)
    bot = -1 if p.bot is None else p.bot
    up, down = p.up, p.down
    key: list = [(down[i].bit_count(), up[i].bit_count(), i == bot) for i in range(n)]
    while True:
        ranks = {k: r for r, k in enumerate(sorted(set(key)))}
        rk = [ranks[k] for k in key]
        if len(ranks) == n:  # discrete: nothing left to split
            return rk
        size = Counter(rk)
        new = [(r,) if size[r] == 1 else (r, _ranks_in(rk, down[i]), _ranks_in(rk, up[i])) for i, r in enumerate(rk)]
        if len(set(new)) == len(ranks):
            return rk
        key = new


class _Partition:
    """An ordered partition of a poset's elements (McKay & Piperno, "Practical
    graph isomorphism, II", 2014): `lab` lists the elements cell by cell, a
    cell is named by its first position, `end[s]` is where cell s stops,
    `loose` maps each non-singleton cell to the bit mask of its elements, and
    `cell[v]` names v's cell while that cell is loose (a singleton cell is
    never cut, so its element need not be kept up to date).  Every step
    depends on positions and counts only, never on element labels, so
    isomorphic posets take isomorphic steps."""

    __slots__ = ("lab", "end", "loose", "cell")

    def __init__(self, lab, end, loose, cell):
        self.lab, self.end, self.loose, self.cell = lab, end, loose, cell

    @classmethod
    def from_ranks(cls, rk: list[int]) -> _Partition:
        """The classes of the ranks `rk`, in rank order."""
        n = len(rk)
        lab = sorted(range(n), key=rk.__getitem__)
        end, loose, cell, s = [0] * n, {}, [-1] * n, 0
        for i in range(1, n + 1):
            if i == n or rk[lab[i]] != rk[lab[s]]:
                end[s] = i
                if i - s > 1:
                    loose[s] = sum(1 << v for v in lab[s:i])
                    for v in lab[s:i]:
                        cell[v] = s
                s = i
        return cls(lab, end, loose, cell)

    def copy(self) -> _Partition:
        return _Partition(self.lab[:], self.end[:], self.loose.copy(), self.cell[:])

    def individualize(self, s: int, v: int, up, down) -> None:
        """Split v off the front of cell s, then refine to equitable."""
        lab, end, loose, cell = self.lab, self.end, self.loose, self.cell
        i = lab.index(v, s)
        lab[s], lab[i] = v, lab[s]
        end[s + 1], end[s] = end[s], s + 1
        rest = loose.pop(s) & ~(1 << v)
        if end[s + 1] - s > 2:
            loose[s + 1] = rest
            for u in lab[s + 1 : end[s + 1]]:
                cell[u] = s + 1
        # the cell was equitable, so counts into its rest follow from counts into v
        self.refine([s], up, down)

    def _touched(self, hit: int):
        """The loose cells that hold an element of the mask `hit`, found from
        its set bits when they are few (`SPARSE_HIT`); else all loose cells,
        for the caller to test."""
        loose = self.loose
        if hit.bit_count() * SPARSE_HIT < len(loose):
            return loose.keys() & set(map(self.cell.__getitem__, _ones(hit)))
        return loose

    def _split(self, t: int, masks: list[int], queue: list[int], pending: set[int]) -> None:
        """Replace cell t by the fragments `masks`, in order, each listed
        ascending, and queue them as splitters: all but the first largest
        unless t was still queued.  The largest is listed from the cell, the
        others from their bits."""
        lab, end, loose, cell = self.lab, self.end, self.loose, self.cell
        sizes = [m.bit_count() for m in masks]
        largest = sizes.index(max(sizes))
        frags = [[] if k == largest else _ones(m) for k, m in enumerate(masks)]
        frags[largest] = sorted(set(lab[t : end[t]]).difference(*frags))
        del loose[t]
        starts, a = [], t
        for frag, m in zip(frags, masks):
            b = a + len(frag)
            lab[a:b] = frag
            end[a] = b
            if b - a > 1:
                loose[a] = m
            if a != t:
                for v in frag:
                    cell[v] = a
            starts.append(a)
            a = b
        new = starts[1:] if t in pending else starts[:largest] + starts[largest + 1 :]
        queue.extend(new)
        pending.update(new)

    def refine(self, queue: list[int], up, down) -> None:
        """Split cells by their up- and down-counts into each splitter cell
        until the partition is equitable.  A split cell's fragments become
        splitters, all but the largest unless the cell was still queued.

        The counts are kept as bit slices over all elements, so a cell is
        cut, and its fragments found, by masks: it is cut when a slice holds
        some but not all of it, and only a cell that holds an element of
        some slice can be.  Fragments come in order of (count of splitter
        elements above, count below), each ascending."""
        lab, end, loose = self.lab, self.end, self.loose
        pending = set(queue)
        k = 0
        while k < len(queue) and loose:
            s = queue[k]
            k += 1
            pending.discard(s)
            w = lab[s : end[s]]
            slices = _slices([down[v] for v in w]) + _slices([up[v] for v in w])
            hit = 0
            for m in slices:
                hit |= m
            cut = []
            for t in self._touched(hit):
                m = loose[t]
                for c in slices:
                    if 0 != m & c != m:
                        cut.append(t)
                        break
            for t in sorted(cut):
                parts = [loose[t]]
                for c in slices:
                    parts = [f for m in parts for f in (m & ~c, m & c) if f]
                self._split(t, parts, queue, pending)


def _slices(rows: list[int]) -> list[int]:
    """How many of `rows` hold each element, in binary, one mask per binary
    digit, most significant first: bit v of the k-th mask from the end is
    bit k of element v's count."""
    out: list[int] = []
    for row in rows:
        i = 0
        while row:
            if i == len(out):
                out.append(row)
                break
            out[i], row = out[i] ^ row, out[i] & row
            i += 1
    out.reverse()
    return out


def _matrix(rows: list[str], order) -> str:
    """The relation matrix under `order`, read row by row.  In the joined
    rows, the slice from j in steps of n is column j; joining the columns in
    `order` gives the permuted matrix transposed, and the same slicing of
    that, rows in `order`, gives it back untransposed: 2n slices, O(n)
    Python steps for n^2 characters."""
    n = len(order)
    full = "".join(rows)
    t = "".join([full[j::n] for j in order])
    return "".join([t[a::n] for a in order])


def _keeps_rows(up, down, rows: list[str], g: dict[int, int]) -> bool:
    """Whether the permutation that sends each key of `g` to its value and
    fixes every other element is an automorphism.  A pair of fixed elements
    keeps its relation, so only pairs with a moved element are read: those
    with a fixed one in the moved elements' up and down rows, as bits, and
    those of two moved ones in the moved elements' bit strings `rows`, whose
    columns at the moved elements, joined, are the transposed block of the
    matrix between them (as in `_matrix`)."""
    mask = 0
    for a in g:
        mask |= 1 << a
    rest = ~mask
    for a, b in g.items():
        if (up[a] ^ up[b]) & rest or (down[a] ^ down[b]) & rest:
            return False
    n = len(rows)
    src = "".join([rows[a] for a in g])
    dst = "".join([rows[b] for b in g.values()])
    return "".join([src[j::n] for j in g]) == "".join([dst[j::n] for j in g.values()])


def _least_leaf(p: FinPoset, rk: list[int], rows: list[str]) -> tuple[str, tuple[int, ...]]:
    """The least matrix string among the leaves of the
    individualization-refinement tree rooted at the partition `rk`, and the
    first leaf in depth-first order with that string.

    Each node individualizes the elements of its first non-singleton cell,
    in `lab` order, and refines.  Two orderings give the same matrix string
    exactly when mapping one onto the other, position by position, is an
    automorphism.  A leaf is tested that way; a child is tested on the
    elements the map moves (`_keeps_rows`).  Each automorphism found is
    kept as the points it moves and handed at once to every node on the
    current path, all of which it fixes.  Subtrees are skipped three ways:

    - a child in the orbit of a tried sibling, under the automorphisms known
      so far that fix the node's path (swaps of twins, with equal strict up-
      and down-sets, are known from the start);
    - a later child whose refined partition has the cell structure of the
      node's first child and whose `lab` is the image of the first child's
      under an automorphism (McKay & Piperno, "Practical graph isomorphism,
      II", 2014).  That map fixes the node's path, where the two partitions
      agree, and sends the first child to this one;
    - the rest of the path under a leaf with the first or the best leaf's
      string: back to the node where the two paths part, since below it the
      leaf's branch mirrors one already searched.

    The output is the one a search without skips would give.  Every
    skipped subtree is the image, under an automorphism, of a subtree tried
    earlier in depth-first order, so each of its leaves has an earlier leaf
    with the same string.  The first least leaf in depth-first order is
    therefore never skipped, and no later leaf replaces it, as a leaf
    replaces the best only with a smaller string."""
    n = len(p)
    up, down = p.up, p.down
    twin = [(u ^ 1 << v, d ^ 1 << v) for v, (u, d) in enumerate(zip(up, down))]
    leaves = 0
    first = best = None  # (ordering, path, string)

    def moves(src, dst) -> dict[int, int]:
        return dict(compress(zip(src, dst), map(ne, src, dst)))

    def leaf(order: tuple[int, ...], path: list[int]) -> None:
        """Compare a leaf with the first and the best; on a match, back up
        to the node where the two paths part."""
        nonlocal leaves, first, best
        leaves += 1
        if leaves > CANONICAL_ORDER_CAP:
            raise CapExceeded(f"more than {CANONICAL_ORDER_CAP} leaf orderings of a {n}-element poset")
        bits = _matrix(rows, order)
        for seen in () if first is None else (first,) if best is first else (first, best):
            if bits == seen[2]:
                back = next((k for k, (a, b) in enumerate(zip(path, seen[1])) if a != b), len(path))
                del stack[back + 1 :]
                found(moves(seen[0], order))
                return
        if best is None or bits < best[2]:
            best = (order, path, bits)
        if first is None:
            first = best

    def find(orbit: dict[int, int], x: int) -> int:
        while orbit[x] != x:
            x = orbit[x]
        return x

    def join(orbit: dict[int, int], g: dict[int, int]) -> None:
        """Merge the orbits g joins; g fixes the node's path, so it maps the cell onto itself."""
        for x, y in g.items():
            if x in orbit:
                a, b = find(orbit, x), find(orbit, y)
                if a != b:
                    orbit[b] = a

    def found(g: dict[int, int]) -> None:
        """Hand g to every node on the stack.  g maps one partition refined
        below the last of them onto another, and each path element is a
        singleton cell at the same position in both, so g fixes every
        node's path."""
        for frame in stack:
            frame[7].append(g)
            if frame[6] is not None:
                join(frame[6], g)

    def node(part: _Partition, path: list[int], fixing: list[dict[int, int]]) -> list:
        t = min(part.loose)
        cell = part.lab[t : part.end[t]]
        return [part, path, t, cell, iter(cell), [], None, fixing, None]

    # depth-first, one stack entry per level of the current path; each entry
    # keeps the automorphisms that fix its path, the orbits of its cell (once
    # a second child is due) and the refined partition of its first child
    stack = [node(_Partition.from_ranks(rk), [], [])]
    while stack:
        frame = stack[-1]
        part, path, t, cell, todo, tried, orbit, fixing, lead = frame
        if not tried:
            v = next(todo)
        else:
            if orbit is None:  # union-find; twins start joined, as swapping two fixes the rest
                rep: dict = {}
                orbit = frame[6] = {x: rep.setdefault(twin[x], x) for x in cell}
                for g in fixing:
                    join(orbit, g)
            done = {find(orbit, u) for u in tried}
            for v in todo:
                if find(orbit, v) not in done:
                    break
            else:
                stack.pop()
                continue
        tried.append(v)
        child = part.copy()
        child.individualize(t, v, up, down)
        if lead is None:
            frame[8] = child
        elif child.loose and child.end == lead.end:
            # `end` fixes the cells, and so `loose`'s keys
            g = moves(lead.lab, child.lab)
            if _keeps_rows(up, down, rows, g):
                found(g)
                continue
        if child.loose:
            stack.append(node(child, path + [v], [g for g in fixing if v not in g]))
        else:
            leaf(tuple(child.lab), path + [v])
    return best[2], best[0]


#: poset -> its canonical form and ordering; an entry dies with its poset
_FORMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _canonical(p: FinPoset) -> tuple[str, tuple[int, ...]]:
    """Canonical label and the witnessing element ordering, kept while p
    lives.  A lift whose child's form is known takes `_lifted`; any other
    poset, and a lift whose child's form was never computed or met the cap,
    is searched.  So no form recurses into its children, and a CapExceeded
    names p's own size."""
    form = _FORMS.get(p)
    if form is None:
        known = _FORMS.get(p.names[1]) if _is_term(p.names) and p.names[0] == "lift" else None
        form = _FORMS[p] = _searched(p) if known is None else _lifted(*known)
    return form


def _searched(p: FinPoset) -> tuple[str, tuple[int, ...]]:
    """The relation matrix, read row by row, under the ordering that the
    refined invariant classes fix, or else under the least leaf of an
    individualization-refinement search.  Forms of the first kind start
    "P", of the second "IR", so the two never meet.  CapExceeded past
    CANONICAL_ORDER_CAP leaf orderings."""
    n = len(p)
    rk = _refine_ranks(p)
    rows = _bit_strings(p.up)
    if len(set(rk)) == n:
        order = tuple(sorted(range(n), key=rk.__getitem__))
        prefix, bits = "P", _matrix(rows, order)
    else:
        prefix, (bits, order) = "IR", _least_leaf(p, rk, rows)
    bslot = -1 if p.bot is None else order.index(p.bot)
    return f"{prefix}{n};{bits};bot={bslot}", order


def _lifted(form: str, order: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """The form and ordering that `_searched` gives lift(c), from c's.

    The new bottom lies below every element, so its initial key (one
    element in its down-set) is the unique least: a singleton class at
    rank 0.  It is in every down-set and has every element in its up-set,
    so it never splits another cell.  c's elements have one more element
    below them and keep their order of keys (c's bottom flag, if any, sits
    on the only element with a one-element down-set, so it breaks no tie),
    hence c's ranks, refinement and individualization-refinement tree carry
    over in order, one position on, with the same leaves pruned.  Every leaf
    ordering of lift(c) is the bottom followed by a leaf ordering of c, and
    its matrix string is the bottom's full row followed by "0" + row for
    each row of c's string.  Those strings compare exactly as c's do, so
    the least leaf is c's, shifted, the prefix is c's, and the bottom sits
    in slot 0."""
    head, bits, _ = form.split(";")
    n = len(order)
    rows = "".join(["0" + bits[i * n : i * n + n] for i in range(n)])
    return f"{head.rstrip('0123456789')}{n + 1};{'1' * (n + 1)}{rows};bot=0", (0, *(o + 1 for o in order))


def canonical_form(p: FinPoset) -> str:
    """Invariant under order-isomorphism; distinguishes non-isomorphic posets."""
    return _canonical(p)[0]


def iso_check(p: FinPoset, q: FinPoset) -> MonotoneMap | None:
    """An order-isomorphism p -> q witnessing canonical-form equality, or None."""
    fp, op = _canonical(p)
    fq, oq = _canonical(q)
    if fp != fq:
        return None
    table = [0] * len(p)
    for slot in range(len(p)):
        table[op[slot]] = oq[slot]
    return MonotoneMap(p, q, tuple(table))


# ---------------------------------------------------------------------------
# JSON wire format

def poset_to_json(p: FinPoset) -> dict:
    """The wire format: the order as an n x n matrix of JSON booleans."""
    n = len(p)
    return {
        "elems": list(p.elems),
        "leq": [[bool(row >> j & 1) for j in range(n)] for row in p.up],
        "bottom": p.bottom,
    }


def poset_from_json(obj: dict) -> FinPoset:
    elems, leq = obj["elems"], obj["leq"]
    if not isinstance(elems, list) or not all(isinstance(e, str) for e in elems):
        raise InvalidPoset(f"elems must be a list of strings, got {elems!r}")
    n = len(elems)
    if not isinstance(leq, list) or len(leq) != n or not all(
        isinstance(row, list) and len(row) == n and all(isinstance(b, bool) for b in row)
        for row in leq
    ):
        raise InvalidPoset(f"leq must be a {n}x{n} matrix of JSON booleans")
    bottom = obj.get("bottom")
    if bottom is not None and not isinstance(bottom, str):
        raise InvalidPoset(f"bottom must be a string or null, got {bottom!r}")
    up = tuple(sum(1 << j for j, b in enumerate(row) if b) for row in leq)
    return _checked(tuple(elems), up, bottom)


def map_to_json(f: MonotoneMap) -> dict:
    return {
        "dom": poset_to_json(f.dom),
        "cod": poset_to_json(f.cod),
        "table": f.mapping(),
    }


def map_from_json(obj: dict) -> MonotoneMap:
    f = map_from_dict(poset_from_json(obj["dom"]), poset_from_json(obj["cod"]), obj["table"])
    if not is_monotone(f):
        raise ShapeMismatch("deserialized map is not monotone")
    return f
