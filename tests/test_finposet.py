"""Posets, monotone maps, witnessed lubs, constructions, canonical forms,
interning."""
import contextlib
import dataclasses
import gc
import itertools
import operator
import random
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.workloads import WIDE_BODIES
from epsolve.errors import CapExceeded, InvalidPoset, NotPointed, ShapeMismatch, WitnessError
from epsolve.finposet import (
    FinPoset,
    MonotoneMap,
    Violation,
    antichain,
    canonical_form,
    chain_poset,
    compose,
    const_map,
    coproduct,
    diamond,
    flat,
    fun_map,
    function_space,
    function_space_maps,
    identity,
    is_monotone,
    iso_check,
    leq_map,
    lift,
    lub_map_chain,
    make_poset,
    map_from_dict,
    map_from_json,
    map_to_json,
    monotone_maps,
    one_point,
    poset_from_json,
    poset_to_json,
    product,
    validate_poset,
)


@st.composite
def small_posets(draw, max_size=6, pointed=False):
    """A poset of at most max_size elements: a random relation between
    earlier and later positions of a shuffled order, closed by make_poset;
    pointed ones put a least element first."""
    n = draw(st.integers(1 if pointed else 0, max_size))
    order = draw(st.permutations(range(n)))
    elems = [f"e{i}" for i in order]
    pairs = [(elems[i], elems[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    if pointed:
        pairs += [(elems[0], e) for e in elems[1:]]
    return make_poset(elems, pairs, elems[0] if pointed else None)


def two():
    return chain_poset(2)


def three():
    return chain_poset(3)


# ---------------------------------------------------------------------------
# validation; bit j of row i is set iff element i <= element j, so a binary
# literal reads its columns right to left

def test_two_chain_valid():
    assert validate_poset(two()) is None


def _rejected(*args, **kwargs) -> Violation:
    """The violation a user-named FinPoset raises when it is built."""
    with pytest.raises(InvalidPoset) as exc:
        FinPoset(*args, **kwargs)
    return exc.value.args[0]


def test_missing_reflexivity_detected():
    assert _rejected(("a", "b"), (0b00, 0b10)) == Violation("reflexivity", ("a",))


def test_irreflexive_point_is_rejected():
    assert _rejected(("a",), (0,)) == Violation("reflexivity", ("a",))


def test_antisymmetry_violation_detected():
    assert _rejected(("a", "b"), (0b11, 0b11)) == Violation("antisymmetry", ("a", "b"))


def test_transitivity_violation_detected():
    assert _rejected(("a", "b", "c"), (0b011, 0b110, 0b100)) == Violation("transitivity", ("a", "b", "c"))


def test_bottom_must_be_least():
    assert _rejected(("a", "b"), (0b01, 0b10), bot=0) == Violation("bottom-least", ("a", "b"))


def test_row_bits_past_the_last_element_are_a_shape_violation():
    assert _rejected(("a",), (0b11,)) == Violation("shape", ())
    assert _rejected(("a", "b"), (0b01,)) == Violation("shape", ())


def _validate_cubic(elems, leq, bottom):
    """Independent oracle: the poset axioms checked on a bool matrix by
    direct O(n^3) loops, in validate_poset's order."""
    n = len(elems)
    if len(set(elems)) != n:
        seen = set()
        for e in elems:
            if e in seen:
                return Violation("distinct-elems", (e,))
            seen.add(e)
    for i in range(n):
        if not leq[i][i]:
            return Violation("reflexivity", (elems[i],))
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return Violation("antisymmetry", (elems[i], elems[j]))
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    return Violation("transitivity", (elems[i], elems[j], elems[k]))
    if bottom is not None:
        if bottom not in elems:
            return Violation("bottom-membership", (bottom,))
        b = elems.index(bottom)
        for j in range(n):
            if not leq[b][j]:
                return Violation("bottom-least", (bottom, elems[j]))
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_validate_poset_matches_cubic_oracle(data):
    n = data.draw(st.integers(0, 6))
    elems = [f"e{i}" for i in range(n)]
    if n > 1 and data.draw(st.booleans()):
        elems[data.draw(st.integers(1, n - 1))] = elems[0]
    leq = [data.draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in range(n)]
    # reflexive, antisymmetric relations reach the later axioms
    if data.draw(st.booleans()):
        for i in range(n):
            leq[i][i] = True
        if data.draw(st.booleans()):
            for i in range(n):
                for j in range(i + 1, n):
                    if leq[i][j] and leq[j][i]:
                        a, b = data.draw(st.sampled_from([(i, j), (j, i)]))
                        leq[a][b] = False
    bottom = data.draw(st.sampled_from([None, "zz", *elems]))
    try:
        poset_from_json({"elems": elems, "leq": leq, "bottom": bottom})
        got = None
    except InvalidPoset as exc:
        got = exc.args[0]
    assert got == _validate_cubic(tuple(elems), leq, bottom)


def test_make_poset_takes_transitive_closure():
    p = make_poset(("a", "b", "c"), [("a", "b"), ("b", "c")], bottom="a")
    assert p.le("a", "c")


def test_make_poset_rejects_cycles():
    with pytest.raises(InvalidPoset):
        make_poset(("a", "b"), [("a", "b"), ("b", "a")])


def test_product_escapes_colliding_names():
    # unescaped, "(a" + "," + "b,c)" and "(a,b" + "," + "c)" would render alike
    r = product(make_poset(("a", "a,b"), []), make_poset(("b,c", "c"), []))
    assert validate_poset(r) is None
    assert r.elems == ("(a,b\\,c)", "(a,c)", "(a\\,b,b\\,c)", "(a\\,b,c)")
    # a backslash is escaped too: else the names \ and ,a, and ,\ and a, would both pair up as (\,\,a)
    r = product(make_poset(("\\", ",\\"), []), make_poset((",a", "a"), []))
    assert validate_poset(r) is None


def test_function_space_escapes_colliding_names():
    # unescaped, {a:x,b:x,b:x} would name both a->"x,b:x", b->"x" and a->"x", b->"x,b:x"
    fs = function_space(make_poset(("a", "b"), []), make_poset(("x,b:x", "x"), []))
    assert validate_poset(fs) is None and len(set(fs.elems)) == len(fs) == 4


# ---------------------------------------------------------------------------
# rendered names

@st.composite
def constructed(draw, depth=3):
    """(poset, names, bottom): a lift/sum/prod/fun tree over small posets,
    with the names and bottom that building every name string eagerly, at
    construction, gave it."""
    if depth == 0 or draw(st.booleans()):
        p = draw(small_posets(max_size=3, pointed=draw(st.booleans())))
        return p, p.elems, p.bottom
    p, pe, pb = draw(constructed(depth - 1))
    op = draw(st.sampled_from(["lift", "sum", "prod", "fun"]))
    q, qe, qb = draw(constructed(depth - 1))
    if op == "sum" and pb is not None and qb is not None:
        names = ("sum-bottom",) + tuple(f"inl({a})" for a in pe) + tuple(f"inr({b})" for b in qe)
        return coproduct(p, q), names, "sum-bottom"
    if op == "prod":
        bottom = None if pb is None or qb is None else f"({pb},{qb})"
        return product(p, q), tuple(f"({a},{b})" for a in pe for b in qe), bottom
    if op == "fun":
        try:
            fs, maps = function_space_maps(p, q, cap=64)
        except CapExceeded:
            pass
        else:
            def name(table):
                return "{" + ",".join(f"{a}:{qe[v]}" for a, v in zip(pe, table)) + "}"

            bottom = None if qb is None else name([qe.index(qb)] * len(p))
            return fs, tuple(name(f.table) for f in maps), bottom
    return lift(p), ("lift-bottom",) + tuple(f"up({a})" for a in pe), "lift-bottom"


@given(constructed())
@settings(max_examples=150, deadline=None)
def test_rendered_names_are_the_eagerly_built_ones(built):
    p, names, bottom = built
    assert p.elems == names and p.bottom == bottom


def test_deep_terms_render_without_deep_recursion():
    # rendering by recursion, some frames a level, would pass the default limit of 1000 frames
    p = one_point()
    for _ in range(300):
        p = lift(p)
    assert p.elems[-1] == "up(" * 300 + "*" + ")" * 300 and p.bottom == "lift-bottom"


def test_reading_names_keeps_no_subterm_names():
    # a fresh point, so only the stage read below has names beforehand; the
    # top is a sum of a stage with itself, so a subterm is reached twice
    stages = [FinPoset(("names-point",), (1,), 0)]
    for _ in range(300):
        stages.append(lift(stages[-1]))
    assert stages[100].elems[-1] == "up(" * 100 + "names-point" + ")" * 100
    top = coproduct(stages[-1], stages[-1])
    assert [i for i, q in enumerate(stages) if "elems" in vars(q)] == [100]
    assert top.elems[-1] == "inr(" + "up(" * 300 + "names-point" + ")" * 301
    assert [i for i, q in enumerate(stages) if "elems" in vars(q)] == [100]


def _transpose(up) -> tuple[int, ...]:
    """The down rows of `up`, bit by bit: bit i of row j iff bit j of up[i]."""
    n = len(up)
    return tuple(sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n))


@st.composite
def row_terms(draw, depth=3):
    """A lift/sum/prod term nested up to `depth` deep over two pointed
    posets a, b and an unpointed one, which sums pass over."""
    leaves = [
        draw(small_posets(max_size=3, pointed=True)),
        draw(small_posets(max_size=3, pointed=True)),
        draw(small_posets(max_size=3)),
    ]

    def term(d):
        if d == 0 or draw(st.booleans()):
            return draw(st.sampled_from(leaves))
        op = draw(st.sampled_from(["lift", "sum", "prod"]))
        p = term(d - 1)
        if op == "lift":
            return lift(p)
        q = term(d - 1)
        if op == "sum" and p.is_pointed and q.is_pointed:
            return coproduct(p, q)
        # a product of products of products grows fast; past 256 elements lift instead
        return product(p, q) if len(p) * len(q) <= 256 else lift(p)

    return term(depth)


@given(row_terms())
@settings(max_examples=200, deadline=None)
def test_constructed_down_rows_are_the_transpose(p):
    assert p.down == _transpose(p.up)


@given(small_posets(max_size=9))
@settings(max_examples=100, deadline=None)
def test_sliced_down_rows_are_the_transpose(p):
    """User-named posets, whose down rows are sliced from their up rows."""
    assert p.down == _transpose(p.up)


@given(small_posets(max_size=3), small_posets(max_size=3, pointed=True), small_posets(max_size=3, pointed=True))
@settings(max_examples=100, deadline=None)
def test_function_space_down_rows_are_the_transpose(a, b, c):
    """A function space's down rows come from its maps, as its up rows do;
    a lift, sum or product of one builds its own from them."""
    fs = function_space(a, b)
    for q in (fs, lift(fs), coproduct(fs, c), coproduct(c, fs), product(fs, c), product(c, fs)):
        assert q.down == _transpose(q.up)


def test_deep_down_rows_without_deep_recursion():
    # a fresh point, so no stage has down rows before the last one's are read
    p = FinPoset(("deep-down-point",), (1,), 0)
    stages = [p]
    for _ in range(600):
        stages.append(lift(stages[-1]))
    assert not any("down" in vars(q) for q in stages)
    last = stages[-1]
    assert last.down == _transpose(last.up)


#: user names over the characters a constructed name is built from; from
#: "a" and "," alone, products and function spaces would collide unescaped
reserved_names = st.text(alphabet="a,", max_size=3) | st.text(alphabet="ab\\(),{}:", max_size=4)


@given(
    st.lists(reserved_names, min_size=1, max_size=3, unique=True),
    st.lists(reserved_names, min_size=1, max_size=3, unique=True),
    st.sampled_from([product, coproduct, function_space]),
    st.sampled_from([product, coproduct, function_space]),
)
@settings(max_examples=150, deadline=None)
def test_rendering_is_injective_on_reserved_characters(xs, ys, inner, outer):
    p = make_poset(xs, [(xs[0], x) for x in xs[1:]], xs[0])
    q = make_poset(ys, [(ys[0], y) for y in ys[1:]], ys[0])
    assert p.elems == tuple(xs)  # a top-level user name is never escaped
    r = inner(p, q)
    for s in (r, lift(r), outer(r, p), outer(q, r)):
        assert validate_poset(s) is None


def test_catalog_shapes():
    assert len(one_point()) == 1 and one_point().bottom == "*"
    assert len(diamond()) == 4
    assert len(flat(2)) == 3
    assert antichain(2).bottom is None
    # the empty chain, like the empty antichain, has no bottom to point at
    assert validate_poset(chain_poset(0)) is None and chain_poset(0).bottom is None


# ---------------------------------------------------------------------------
# monotone maps

def test_identity_is_monotone():
    for p in (two(), three(), diamond(), flat(3)):
        assert is_monotone(identity(p))


def test_swap_on_two_chain_not_monotone():
    swap = map_from_dict(two(), two(), {"v0": "v1", "v1": "v0"})
    assert not is_monotone(swap)


def test_const_bottom_is_monotone():
    assert is_monotone(const_map(two(), two(), "v0"))


def test_compose_identity_neutral():
    f = const_map(three(), two(), "v1")
    assert compose(identity(two()), f) == f
    assert compose(f, identity(three())) == f


def test_compose_const_bottom_absorbs():
    f = map_from_dict(two(), three(), {"v0": "v0", "v1": "v2"})
    cb = const_map(three(), two(), "v0")
    assert compose(cb, f) == const_map(two(), two(), "v0")


def test_compose_bottom_inclusions():
    # evaluate the tables: 1 -> 2-chain -> 3-chain lands on the 3-chain bottom
    i1 = const_map(one_point(), two(), "v0")
    i2 = map_from_dict(two(), three(), {"v0": "v0", "v1": "v1"})
    assert compose(i2, i1) == const_map(one_point(), three(), "v0")


def test_compose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compose(const_map(two(), two(), "v0"), const_map(two(), three(), "v0"))


def test_leq_map_examples():
    ident = identity(two())
    cb = const_map(two(), two(), "v0")
    ct = const_map(two(), two(), "v1")
    assert leq_map(cb, ident) and not leq_map(ident, cb)
    assert leq_map(ident, ct) and not leq_map(ct, ident)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_compose_associative(seed):
    rng = random.Random(seed)
    from epsolve.suite import random_poset

    p, q, r, s = (random_poset(rng, 3) for _ in range(4))
    fs = monotone_maps(p, q)
    gs = monotone_maps(q, r)
    hs = monotone_maps(r, s)
    if not (fs and gs and hs):
        return
    f, g, h = rng.choice(fs), rng.choice(gs), rng.choice(hs)
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


# ---------------------------------------------------------------------------
# witnessed lubs

def test_lub_two_term_chain():
    cb = const_map(two(), two(), "v0")
    assert lub_map_chain([cb, identity(two())], 1) == identity(two())


def test_lub_constant_chain():
    f = const_map(two(), two(), "v0")
    assert lub_map_chain([f], 0) == f


def test_lub_three_term_chain_on_three_chain():
    p = three()
    cb = const_map(p, p, "v0")
    e = map_from_dict(p, p, {"v0": "v0", "v1": "v0", "v2": "v2"})
    assert leq_map(cb, e) and leq_map(e, identity(p))
    assert lub_map_chain([cb, e, identity(p)], 2) == identity(p)


def test_lub_rejects_non_increasing():
    ident = identity(two())
    cb = const_map(two(), two(), "v0")
    with pytest.raises(WitnessError, match="not increasing at index 0"):
        lub_map_chain([ident, cb], 1)


def test_lub_rejects_false_witness():
    cb = const_map(two(), two(), "v0")
    with pytest.raises(WitnessError, match="witness fails at index 1"):
        lub_map_chain([cb, identity(two())], 0)


def test_lub_of_a_repeated_term_tests_no_order(monkeypatch):
    # every poset is reflexive and maps are interned: a run of one term
    # needs no order test
    from epsolve import finposet

    calls = []

    def counting(f, g):
        calls.append((f, g))
        return leq_map(f, g)

    monkeypatch.setattr(finposet, "leq_map", counting)
    f = const_map(two(), two(), "v0")
    assert lub_map_chain([f, f, f], 0) is f
    assert calls == []


def test_lub_rejects_a_drop_between_runs():
    g, f = const_map(two(), two(), "v1"), const_map(two(), two(), "v0")
    assert not leq_map(g, f)
    with pytest.raises(WitnessError, match=r"^chain not increasing at index 1$"):
        lub_map_chain([g, g, f, f], 3)


def test_lub_rejects_a_false_witness_after_a_run():
    f, g = const_map(two(), two(), "v0"), identity(two())
    assert leq_map(f, g)
    with pytest.raises(WitnessError, match=r"^stabilization witness fails at index 2$"):
        lub_map_chain([f, f, g], 0)


def test_lub_rejects_empty_chain():
    with pytest.raises(WitnessError, match="empty chain"):
        lub_map_chain([], 0)


@pytest.mark.parametrize("stab", [-1, 2])
def test_lub_rejects_out_of_range_witness(stab):
    cb = const_map(two(), two(), "v0")
    with pytest.raises(WitnessError, match=f"stab_index {stab} out of range"):
        lub_map_chain([cb, cb], stab)


# ---------------------------------------------------------------------------
# constructions

def test_product_of_two_chains_is_diamond():
    p = product(two(), two())
    assert len(p) == 4
    assert p.bottom == "(v0,v0)"
    tops = [e for e in p.elems if all(p.le(x, e) for x in p.elems)]
    assert tops == ["(v1,v1)"]
    assert canonical_form(p) == canonical_form(diamond())


def test_coproduct_of_points_has_three_elements():
    s = coproduct(one_point(), one_point())
    assert len(s) == 3
    assert s.bottom == "sum-bottom"
    assert not s.le("inl(*)", "inr(*)") and not s.le("inr(*)", "inl(*)")


def test_coproduct_requires_pointed():
    with pytest.raises(NotPointed):
        coproduct(antichain(2), one_point())


def test_lift_two_chain_is_three_chain():
    assert canonical_form(lift(two())) == canonical_form(three())
    assert lift(two()).bottom == "lift-bottom"


# the constructions' orders against their definitions, read through `le`

@given(small_posets(), small_posets())
@settings(max_examples=60, deadline=None)
def test_product_order_is_componentwise(p, q):
    r = product(p, q)
    assert validate_poset(r) is None and len(r) == len(p) * len(q)
    for a, b, c, d in itertools.product(p.elems, q.elems, p.elems, q.elems):
        assert r.le(f"({a},{b})", f"({c},{d})") == (p.le(a, c) and q.le(b, d))


@given(small_posets(pointed=True), small_posets(pointed=True))
@settings(max_examples=60, deadline=None)
def test_coproduct_order_is_the_glued_disjoint_union(p, q):
    s = coproduct(p, q)
    assert validate_poset(s) is None and s.bottom == "sum-bottom"
    inl = {f"inl({a})": ("l", a) for a in p.elems}
    inr = {f"inr({b})": ("r", b) for b in q.elems}
    side = {**inl, **inr, "sum-bottom": None}
    assert set(s.elems) == set(side)
    for x, y in itertools.product(s.elems, s.elems):
        if side[x] is None:
            expect = True
        elif side[y] is None or side[x][0] != side[y][0]:
            expect = False
        else:
            expect = (p if side[x][0] == "l" else q).le(side[x][1], side[y][1])
        assert s.le(x, y) == expect


@given(small_posets())
@settings(max_examples=60, deadline=None)
def test_lift_order_adds_a_bottom(p):
    l = lift(p)
    assert validate_poset(l) is None and l.bottom == "lift-bottom"
    for a in p.elems:
        assert l.le("lift-bottom", f"up({a})") and not l.le(f"up({a})", "lift-bottom")
        for b in p.elems:
            assert l.le(f"up({a})", f"up({b})") == p.le(a, b)


@given(small_posets(max_size=3), small_posets(max_size=4, pointed=True))
@settings(max_examples=60, deadline=None)
def test_function_space_order_is_pointwise(p, q):
    fs, maps = function_space_maps(p, q)
    assert validate_poset(fs) is None
    assert sorted(f.table for f in maps) == sorted(brute_force_monotone_tables(p, q))
    for (x, f), (y, g) in itertools.product(zip(fs.elems, maps), repeat=2):
        assert fs.le(x, y) == all(q.le(f(a), g(a)) for a in p.elems)


# ---------------------------------------------------------------------------
# function spaces

def brute_force_monotone_tables(p, q):
    """Independent oracle: filter all |q|^|p| tables by direct definition,
    reading the orders off the JSON matrices."""
    leq_p, leq_q = poset_to_json(p)["leq"], poset_to_json(q)["leq"]
    out = []
    for tab in itertools.product(range(len(q)), repeat=len(p)):
        if all(
            leq_q[tab[i]][tab[j]]
            for i in range(len(p))
            for j in range(len(p))
            if leq_p[i][j]
        ):
            out.append(tab)
    return out


def test_function_space_two_two_is_three_chain():
    fs = function_space(two(), two())
    assert len(fs) == 3
    assert canonical_form(fs) == canonical_form(three())
    assert fs.bottom == "{v0:v0,v1:v0}"


def test_function_space_from_point():
    q = diamond()
    assert iso_check(function_space(one_point(), q), q) is not None


def test_function_space_three_three_has_ten_elements():
    assert len(function_space(three(), three())) == 10
    assert len(brute_force_monotone_tables(three(), three())) == 10


def test_monotone_maps_match_brute_force():
    for p, q in [(two(), three()), (diamond(), two()), (flat(2), two())]:
        got = sorted(f.table for f in monotone_maps(p, q))
        assert got == sorted(brute_force_monotone_tables(p, q))


def test_monotone_maps_walk_is_not_recursive():
    # one position per element: a recursive walk overflowed the stack near
    # a thousand elements
    (f,) = monotone_maps(antichain(1200), one_point())
    assert f.table == (0,) * 1200


def test_function_space_cap():
    with pytest.raises(CapExceeded):
        function_space(three(), three(), cap=5)


def test_function_space_enumeration_stops_at_cap(monkeypatch):
    import epsolve.finposet as finposet

    built = []

    def counting(*args):
        built.append(args)
        return MonotoneMap(*args)

    monkeypatch.setattr(finposet, "MonotoneMap", counting)
    # 8^8 = 16 777 216 maps: a walk that ran past the cap would not finish
    with pytest.raises(CapExceeded, match=r"^more than 10 monotone maps from 8 to 8 elements$"):
        function_space_maps(antichain(8), antichain(8), cap=10)
    assert built == [], "a cap exit built a map"
    # a chain maps into an antichain by the 8 constants only: a cap of 8 holds
    monotone_maps.cache_clear()
    maps = monotone_maps(chain_poset(3), antichain(8), 8)
    assert len(maps) == 8 and len(built) == len(maps)


@given(small_posets(max_size=4), small_posets(max_size=4))
@settings(max_examples=40, deadline=None)
def test_monotone_maps_order_and_every_cap(p, q):
    tables = brute_force_monotone_tables(p, q)
    assert [f.table for f in monotone_maps(p, q)] == sorted(tables)
    for cap in range(len(tables)):
        with pytest.raises(CapExceeded) as exc:
            monotone_maps(p, q, cap)
        assert str(exc.value) == f"more than {cap} monotone maps from {len(p)} to {len(q)} elements"


@given(small_posets(max_size=4), small_posets(max_size=5))
@settings(max_examples=40, deadline=None)
def test_function_space_rows_match_leq_map(p, q):
    fs, maps = function_space_maps(p, q, cap=len(q) ** len(p))
    assert fs.up == tuple(sum(1 << k for k, g in enumerate(maps) if leq_map(f, g)) for f in maps)


@pytest.mark.parametrize("p,q,r,s", [
    (two(), three(), flat(2), two()),
    (one_point(), two(), two(), diamond()),
    (diamond(), two(), three(), one_point()),
])
def test_fun_map_is_pre_and_post_composition(p, q, r, s):
    """Entry i of fun_map(pre, post) is the position of post∘maps[i]∘pre."""
    maps, targets = function_space_maps(q, r)[1], function_space_maps(p, s)[1]
    for pre in monotone_maps(p, q):
        for post in monotone_maps(r, s):
            f = fun_map(pre, post)
            assert (f.dom, f.cod) == (function_space(q, r), function_space(p, s))
            assert f.table == tuple(targets.index(compose(post, compose(m, pre))) for m in maps)


def test_function_space_maps_aligned():
    fs, maps = function_space_maps(two(), two())
    assert len(fs) == len(maps)
    for name, f in zip(fs.elems, maps):
        assert name == "{" + ",".join(f"{d}:{c}" for d, c in f.mapping().items()) + "}"


# ---------------------------------------------------------------------------
# canonical forms and isomorphism

def test_canonical_form_relabel_invariant():
    relabeled = make_poset(("x", "y"), [("x", "y")], bottom="x")
    assert canonical_form(two()) == canonical_form(relabeled)


def test_iso_check_distinguishes_chain_from_antichain():
    assert iso_check(two(), antichain(2)) is None


def test_iso_check_diamond_vs_product():
    w = iso_check(diamond(), product(two(), two()))
    assert w is not None
    assert_order_iso(w)


def assert_order_iso(w: MonotoneMap | None):
    assert w is not None
    assert sorted(w.table) == list(range(len(w.dom)))
    for a in w.dom.elems:
        for b in w.dom.elems:
            assert w.dom.le(a, b) == w.cod.le(w(a), w(b))


def _isomorphic_by_permutations(p, q) -> bool:
    """Independent oracle: some bijection preserves the order both ways, and
    both or neither poset is pointed (a bottom, being least, maps to a bottom)."""
    n = len(p)
    if n != len(q) or p.is_pointed != q.is_pointed:
        return False
    return any(
        all(bool(p.up[i] >> j & 1) == bool(q.up[perm[i]] >> perm[j] & 1) for i in range(n) for j in range(n))
        for perm in itertools.permutations(range(n))
    )


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_canonical_form_agrees_with_iso_search(seed):
    rng = random.Random(seed)
    from epsolve.suite import random_poset

    p = random_poset(rng, 5)
    q = random_poset(rng, 5)
    iso = _isomorphic_by_permutations(p, q)
    assert (canonical_form(p) == canonical_form(q)) == iso
    if iso:
        assert_order_iso(iso_check(p, q))


def _canonical_by_orderings(p) -> str:
    """Oracle: the least relation matrix over every ordering that respects
    the refined classes, the exhaustive search that individualization-refinement
    replaced.  On posets whose classes are singletons it is the only ordering."""
    from epsolve.finposet import _bit_strings, _refine_ranks

    rk = _refine_ranks(p)
    groups = [[i for i in range(len(p)) if rk[i] == r] for r in sorted(set(rk))]
    rows = _bit_strings(p.up)
    best_bits, best_order = None, None
    for perms in itertools.product(*(itertools.permutations(g) for g in groups)):
        order = tuple(itertools.chain.from_iterable(perms))
        bits = "".join(rows[i][j] for i in order for j in order)
        if best_bits is None or bits < best_bits:
            best_bits, best_order = bits, order
    bslot = best_order.index(p.index(p.bottom)) if p.bottom is not None else -1
    return f"P{len(p)};{best_bits};bot={bslot}"


@st.composite
def oracle_posets(draw):
    """Posets of at most 7 elements: drawn ones, from an antichain up to
    dense, pointed or not, and the symmetric shapes p x antichain(2) and
    p + p, whose refined classes are not singletons."""
    shape = draw(st.sampled_from(["drawn", "product", "sum"]))
    pointed = shape == "sum" or draw(st.booleans())
    n = draw(st.integers(1 if pointed else 0, 7 if shape == "drawn" else 3))
    elems = [f"e{i}" for i in draw(st.permutations(range(n)))]
    later = [(elems[i], elems[j]) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.lists(st.sampled_from(later), max_size=len(later))) if later else []
    if pointed:
        pairs += [(elems[0], e) for e in elems[1:]]
    p = make_poset(elems, pairs, elems[0] if pointed else None)
    if shape == "product":
        return product(p, antichain(2))
    return coproduct(p, p) if shape == "sum" else p


def relabel(p, perm):
    """p with element i moved to position perm[i] and renamed; the table
    perm is an order-isomorphism from p to the result."""
    n = len(p)
    elems, up = [None] * n, [0] * n
    for i in range(n):
        elems[perm[i]] = f"x{p.elems[i]}"
        up[perm[i]] = sum(1 << perm[j] for j in range(n) if p.up[i] >> j & 1)
    q = FinPoset(tuple(elems), tuple(up), None if p.bot is None else perm[p.bot])
    assert validate_poset(q) is None
    return q


@given(oracle_posets(), st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_forms_are_equal_iff_the_oracles_are(p, data):
    if data.draw(st.booleans()):
        q = relabel(p, data.draw(st.permutations(range(len(p)))))
    else:
        q = data.draw(oracle_posets())
    assert (canonical_form(p) == canonical_form(q)) == (_canonical_by_orderings(p) == _canonical_by_orderings(q))


@given(oracle_posets())
@settings(max_examples=150, deadline=None)
def test_root_discrete_forms_are_the_oracles(p):
    from epsolve.finposet import _refine_ranks

    if len(set(_refine_ranks(p))) == len(p):
        assert canonical_form(p) == _canonical_by_orderings(p)
    else:
        assert canonical_form(p).startswith(f"IR{len(p)};")


@given(oracle_posets(), st.data())
@settings(max_examples=150, deadline=None)
def test_iso_check_finds_a_relabelling(p, data):
    q = relabel(p, data.draw(st.permutations(range(len(p)))))
    assert_order_iso(iso_check(p, q))


def test_relabelled_symmetric_stage_has_the_same_form():
    """The 256-element last stage of a diamond-power equation: 384
    automorphisms, and far past the cap for a search over orderings."""
    from epsolve.equations import iterate, parse_equation

    p = iterate(parse_equation("D = prod(prod(const(diamond),D),const(unit))", depth=4)).objects[-1]
    perm = list(range(len(p)))
    random.Random(0).shuffle(perm)
    q = relabel(p, perm)
    assert len(p) == 256 and canonical_form(q) == canonical_form(p)
    assert_order_iso(iso_check(p, q))


def cycle_incidence(lengths) -> FinPoset:
    """The vertices of a union of cycles below its edges.  Each vertex lies
    under two edges and each edge over two vertices, so refinement alone
    cannot tell a 6-cycle from two triangles; the search must."""
    elems, pairs, start = [], [], 0
    for k in lengths:
        for i in range(k):
            e = f"e{start + i}"
            pairs += [(f"v{start + i}", e), (f"v{start + (i + 1) % k}", e)]
        elems += [f"v{start + i}" for i in range(k)] + [f"e{start + i}" for i in range(k)]
        start += k
    return make_poset(elems, pairs)


@pytest.mark.parametrize("lengths", [(6, 3, 3), (4, 4, 8), (5, 5, 10), (3, 4, 5, 12)])
def test_relabelled_cycle_incidence_posets_share_a_form(lengths):
    p = cycle_incidence(lengths)
    for seed in range(3):
        perm = list(range(len(p)))
        random.Random(seed).shuffle(perm)
        q = relabel(p, perm)
        assert canonical_form(q) == canonical_form(p)
        assert_order_iso(iso_check(p, q))


def test_cycle_unions_of_one_size_get_distinct_forms():
    unions = [(12,), (6, 6), (4, 4, 4), (6, 3, 3), (3, 3, 3, 3), (5, 4, 3), (9, 3), (8, 4), (7, 5)]
    assert len({canonical_form(cycle_incidence(c)) for c in unions}) == len(unions)


def test_empty_poset_form():
    assert canonical_form(FinPoset((), (), None)) == "P0;;bot=-1"


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_strided_matrix_is_the_bitwise_permutation(n):
    from epsolve.finposet import _matrix

    rng = random.Random(n)
    rows = ["".join(rng.choice("01") for _ in range(n)) for _ in range(n)]
    for _ in range(5):
        order = rng.sample(range(n), n)
        assert _matrix(rows, order) == "".join(rows[i][j] for i in order for j in order)


@given(oracle_posets())
@example(FinPoset((), (), None))
@settings(max_examples=150, deadline=None)
def test_lift_forms_follow_from_the_childs_form(p):
    """The lift rule against the search, on lifts and lifts of lifts of
    random and symmetric posets: a lift whose child's form is known is not
    searched, and a lift whose child's form was never computed is."""
    from epsolve import finposet

    tower = [p, lift(p), lift(lift(p))]
    searched = [finposet._searched(q) for q in tower]
    for q in tower:
        finposet._FORMS.pop(q, None)
    assert finposet._canonical(p) == searched[0]
    with mock.patch.object(finposet, "_searched", side_effect=AssertionError("a lift was searched")):
        assert [finposet._canonical(q) for q in tower[1:]] == searched[1:]
    for q in tower:
        finposet._FORMS.pop(q, None)
    assert finposet._canonical(tower[2]) == searched[2]
    assert tower[1] not in finposet._FORMS


def test_a_lift_of_a_capped_search_is_searched(monkeypatch):
    """Two 4-cycles: the search needs a second leaf, past a cap of one.  A
    form that met the cap is not kept, so the lift is searched and names its
    own size."""
    from epsolve import finposet

    q = cycle_incidence((4, 4))
    for x in (q, lift(q)):  # a form cached by another test would never meet the cap
        finposet._FORMS.pop(x, None)
    monkeypatch.setattr(finposet, "CANONICAL_ORDER_CAP", 1)
    with pytest.raises(CapExceeded, match="of a 16-element poset"):
        canonical_form(q)
    with pytest.raises(CapExceeded, match="of a 17-element poset"):
        canonical_form(lift(q))
    assert q not in finposet._FORMS and lift(q) not in finposet._FORMS
    monkeypatch.undo()
    assert canonical_form(lift(q)) == finposet._searched(lift(q))[0]


def test_a_form_dies_with_its_poset():
    from epsolve import finposet

    p = make_poset(("form-dies-a", "form-dies-b"), [("form-dies-a", "form-dies-b")])
    canonical_form(p)
    assert p in finposet._FORMS
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


class _ScanningPartition:
    """The ordered partition as it was before refinement read the splitter's
    rows: every splitter step scans every loose cell for the ones it cuts,
    and a cut cell is sorted by (count above, count below, element).  The
    reference for `finposet._Partition`, which must take the same steps."""

    __slots__ = ("lab", "end", "loose")

    def __init__(self, lab, end, loose):
        self.lab, self.end, self.loose = lab, end, loose

    @classmethod
    def from_ranks(cls, rk):
        n = len(rk)
        lab = sorted(range(n), key=rk.__getitem__)
        end, loose, s = [0] * n, {}, 0
        for i in range(1, n + 1):
            if i == n or rk[lab[i]] != rk[lab[s]]:
                end[s] = i
                if i - s > 1:
                    loose[s] = sum(1 << v for v in lab[s:i])
                s = i
        return cls(lab, end, loose)

    def copy(self):
        return _ScanningPartition(self.lab[:], self.end[:], self.loose.copy())

    def individualize(self, s, v, up, down):
        lab, end, loose = self.lab, self.end, self.loose
        i = lab.index(v, s)
        lab[s], lab[i] = v, lab[s]
        end[s + 1], end[s] = end[s], s + 1
        rest = loose.pop(s) & ~(1 << v)
        if end[s + 1] - s > 2:
            loose[s + 1] = rest
        self.refine([s], up, down)

    def refine(self, queue, up, down):
        lab, end, loose = self.lab, self.end, self.loose
        base = len(lab) + 1
        pending = set(queue)
        k = 0
        while k < len(queue) and loose:
            s = queue[k]
            k += 1
            pending.discard(s)
            if end[s] - s == 1:
                x = lab[s]
                w, below, above = 1 << x, down[x], up[x]
                cut = [t for t, m in loose.items() if 0 != m & below != m or 0 != m & above != m]
            else:
                w, hit = loose[s], 0
                for v in lab[s : end[s]]:
                    hit |= up[v] | down[v]
                cut = [t for t, m in loose.items() if m & hit]
            for t in sorted(cut):
                e = end[t]
                keys = [(up[v] & w).bit_count() * base + (down[v] & w).bit_count() for v in lab[t:e]]
                if min(keys) == max(keys):
                    continue
                ranked = sorted(zip(keys, lab[t:e]))
                lab[t:e] = [v for _, v in ranked]
                starts = [t] + [t + i for i in range(1, e - t) if ranked[i][0] != ranked[i - 1][0]]
                stops = starts[1:] + [e]
                del loose[t]
                for a, b in zip(starts, stops):
                    end[a] = b
                    if b - a > 1:
                        loose[a] = sum(1 << v for v in lab[a:b])
                if t in pending:
                    new = starts[1:]
                else:
                    sizes = [b - a for a, b in zip(starts, stops)]
                    largest = sizes.index(max(sizes))
                    new = starts[:largest] + starts[largest + 1 :]
                queue.extend(new)
                pending.update(new)


def _least_leaf_at_leaves(p, rk, rows):
    """The search as it was before automorphisms were found at inner nodes:
    only a leaf shows one, when mapping the first or the best leaf onto it
    keeps the rows and columns of the elements it moves.  A later sibling
    re-descends the rest of the path before its leaf shows the symmetry.
    It refines with the scanning reference partition."""
    from epsolve.finposet import _bit_strings, _matrix

    n = len(p)
    up, down = p.up, p.down
    cols = _bit_strings(down)
    twin = [(u ^ 1 << v, d ^ 1 << v) for v, (u, d) in enumerate(zip(up, down))]
    gens = []
    first = best = None

    def automorphism(src, dst):
        inv = [0] * n
        for a, b in zip(src, dst):
            inv[b] = a
        image = operator.itemgetter(*inv)
        moves = {a: b for a, b in zip(src, dst) if a != b}
        for v, w in moves.items():
            if "".join(image(rows[v])) != rows[w] or "".join(image(cols[v])) != cols[w]:
                return None
        return moves

    def leaf(order, path):
        nonlocal first, best
        for seen in () if first is None else (first,) if best is first else (first, best):
            g = automorphism(seen[0], order)
            if g is not None:
                gens.append(g)
                return next((k for k, (a, b) in enumerate(zip(path, seen[1])) if a != b), len(path))
        bits = _matrix(rows, order)
        if best is None or bits < best[2]:
            best = (order, path, bits)
        if first is None:
            first = best
        return None

    def find(orbit, x):
        while orbit[x] != x:
            x = orbit[x]
        return x

    def join(orbit, g):
        for x, y in g.items():
            if x in orbit:
                a, b = find(orbit, x), find(orbit, y)
                if a != b:
                    orbit[b] = a

    def node(part, path, fixing):
        t = min(part.loose)
        cell = part.lab[t : part.end[t]]
        return [part, path, t, cell, iter(cell), [], None, fixing, len(gens)]

    stack = [node(_ScanningPartition.from_ranks(rk), [], [])]
    while stack:
        frame = stack[-1]
        part, path, t, cell, todo, tried, orbit, fixing, known = frame
        if not tried:
            v = next(todo)
        else:
            if orbit is None:
                rep = {}
                orbit = frame[6] = {x: rep.setdefault(twin[x], x) for x in cell}
                for g in fixing:
                    join(orbit, g)
            for g in gens[known:]:
                if g.keys().isdisjoint(path):
                    join(orbit, g)
                    fixing.append(g)
            frame[8] = len(gens)
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
        if child.loose:
            stack.append(node(child, path + [v], [g for g in fixing if v not in g]))
        else:
            back = leaf(tuple(child.lab), path + [v])
            if back is not None:
                del stack[back + 1 :]
    return best[2], best[0]


def assert_searched_as_at_leaves(p):
    """`_searched` gives p the form and ordering it gives with the leaf-only search."""
    from epsolve import finposet

    with mock.patch.object(finposet, "_least_leaf", _least_leaf_at_leaves):
        expected = finposet._searched(p)
    assert finposet._searched(p) == expected


@given(oracle_posets())
@settings(max_examples=150, deadline=None)
def test_node_automorphisms_keep_the_leaf_only_search_result(p):
    assert_searched_as_at_leaves(p)
    assert_searched_as_at_leaves(lift(p))
    assert_searched_as_at_leaves(product(p, p))
    if p.bot is not None:
        assert_searched_as_at_leaves(coproduct(p, p))


@pytest.mark.parametrize("lengths", [(4, 4), (6, 3, 3), (4, 4, 8), (5, 5, 10), (3, 4, 5, 12), (3, 3, 3, 3), (12,)])
def test_node_automorphisms_keep_the_leaf_only_result_on_cycle_unions(lengths):
    assert_searched_as_at_leaves(cycle_incidence(lengths))


def srg_incidence(first, second) -> FinPoset:
    """The vertices below the edges of two graphs on Z4 x Z4, picked from
    the 4x4 rook's graph and the Shrikhande graph: both strongly regular
    with parameters (16, 6, 2, 2), so a vertex of either, individualized,
    refines to the same cell structure, though no automorphism maps one
    graph onto the other."""
    steps = {
        "rook": {(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)},
        "shrikhande": {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)},
    }
    cells = list(itertools.product(range(4), repeat=2))
    elems, pairs = [], []
    for g, name in enumerate((first, second)):
        elems += [f"g{g}v{a}{b}" for a, b in cells]
        for (a, b), (c, d) in itertools.combinations(cells, 2):
            if ((c - a) % 4, (d - b) % 4) in steps[name]:
                e = f"g{g}e{a}{b}{c}{d}"
                elems.append(e)
                pairs += [(f"g{g}v{a}{b}", e), (f"g{g}v{c}{d}", e)]
    return make_poset(elems, pairs)


@pytest.mark.parametrize("graphs", [("rook", "shrikhande"), ("shrikhande", "rook")])
def test_node_automorphisms_keep_the_leaf_only_result_on_strongly_regular_graphs(graphs):
    """Children with the first child's cell structure that are not its
    image: skipping them without the automorphism test changes the form."""
    assert_searched_as_at_leaves(srg_incidence(*graphs))


@pytest.mark.parametrize(
    "body,depth", [("sum(D,D)", 5), ("prod(prod(const(diamond),D),unit)", 4), ("sum(lift(D),lift(D))", 5)]
)
def test_node_automorphisms_keep_the_leaf_only_result_on_stages(body, depth):
    from epsolve.equations import iterate, parse_equation

    for p in iterate(parse_equation(f"D = {body}", depth=depth)).objects:
        assert_searched_as_at_leaves(p)


def test_binary_tree_stage_needs_few_individualizations(monkeypatch):
    """sum(D,D)@7, 255 elements: each summand swap is found where the
    summands' paths part, so the search does not re-descend the rest of the
    path below it.  The leaf-only search individualizes 6 175 times."""
    from epsolve import finposet
    from epsolve.equations import iterate, parse_equation

    p = iterate(parse_equation("D = sum(D,D)", depth=7)).objects[-1]
    assert len(p) == 255
    calls = []
    individualize = finposet._Partition.individualize
    monkeypatch.setattr(finposet._Partition, "individualize", lambda part, *a: calls.append(1) or individualize(part, *a))
    finposet._searched(p)
    assert len(calls) < 400


#: a value for every sparse/dense threshold of the form search that forces
#: each way: at 0 every step takes its sparse way, at 10**9 its dense way;
#: None leaves the thresholds as set, so that one search mixes both ways
WAYS = {"sparse": 0, "dense": 10**9, "as set": None}


def forced(way):
    from epsolve import finposet

    if WAYS[way] is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(finposet, SPARSE_ROW=WAYS[way], SPARSE_HIT=WAYS[way])


def assert_cells_named(part):
    """`cell` names the cell of every element of a non-singleton cell."""
    for s in part.loose:
        assert all(part.cell[v] == s for v in part.lab[s : part.end[s]])


@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_partition_from_ranks_names_its_cells(rk):
    from epsolve.finposet import _Partition

    part = _Partition.from_ranks(rk)
    classes = [frozenset(v for v, r in enumerate(rk) if r == c) for c in set(rk)]
    assert {frozenset(part.lab[s : part.end[s]]) for s in part.loose} == {c for c in classes if len(c) > 1}
    assert_cells_named(part)


def assert_reference_steps(p):
    """Forced either way, or with the thresholds as set, every
    individualization of the form search leaves `lab`, `end` and `loose` as
    the scanning reference does, `cell` names each element's cell, and the
    form and ordering are the leaf-only oracle's.  Rank lists match the
    all-elements loop."""
    from epsolve import finposet

    individualize = finposet._Partition.individualize

    def checked(part, s, v, up, down):
        assert_cells_named(part)
        ref = _ScanningPartition(part.lab[:], part.end[:], part.loose.copy())
        individualize(part, s, v, up, down)
        ref.individualize(s, v, up, down)
        assert (part.lab, part.end, part.loose) == (ref.lab, ref.end, ref.loose)
        assert_cells_named(part)

    with mock.patch.object(finposet, "_least_leaf", _least_leaf_at_leaves):
        expected = finposet._searched(p)
    for way in WAYS:
        with forced(way), mock.patch.object(finposet._Partition, "individualize", checked):
            assert finposet._refine_ranks(p) == _refine_ranks_all_elements(p)
            assert finposet._searched(p) == expected


@given(oracle_posets())
@settings(max_examples=100, deadline=None)
def test_either_way_takes_the_reference_steps(p):
    for q in (p, lift(p), product(p, p), product(p, antichain(2))):
        assert_reference_steps(q)
    if p.bot is not None:
        assert_reference_steps(coproduct(p, p))


def _stages_within_cap(body, depth):
    """The stages of D = body up to `depth`, or up to the last one built
    before a cap stops the chain."""
    from epsolve.equations import iterate, parse_equation

    for d in range(depth, -1, -1):
        try:
            return iterate(parse_equation(f"D = {body}", depth=d)).objects
        except CapExceeded:
            continue


@pytest.mark.parametrize("body", sorted(set(WIDE_BODIES)))
def test_solve_wide_stages_take_the_reference_steps(body):
    for p in _stages_within_cap(body, 4):
        assert_reference_steps(p)


def _ranks_in_by_bytes(rk, row):
    """The sorted ranks of the elements in `row`, whose bits, as bytes 0/1,
    select them from `rk`: the dense way, the only one before sparse rows."""
    flags = bytes.maketrans(b"01", b"\x00\x01")
    return tuple(sorted(itertools.compress(rk, format(row, f"0{len(rk)}b")[::-1].encode().translate(flags))))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rank_rows_read_either_way_match_the_bytes(data):
    from epsolve.finposet import _ranks_in

    n = data.draw(st.integers(1, 300))
    rk = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    bits = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    row = sum(1 << j for j in bits)
    for way in WAYS:
        with forced(way):
            assert _ranks_in(rk, row) == _ranks_in_by_bytes(rk, row)


def moved_rows_test(p, perm) -> bool:
    """Whether mapping element i to perm[i] is an automorphism, by the
    moved-rows test, which must agree with comparing `_matrix` strings."""
    from epsolve.finposet import _bit_strings, _keeps_rows, _matrix

    rows = _bit_strings(p.up)
    kept = _keeps_rows(p.up, p.down, rows, {a: b for a, b in enumerate(perm) if a != b})
    assert kept == (_matrix(rows, list(range(len(p)))) == _matrix(rows, list(perm)))
    return kept


@given(oracle_posets(), st.data())
@settings(max_examples=200, deadline=None)
def test_moved_rows_test_agrees_with_the_matrices(p, data):
    """On random permutations, and on automorphisms: an isomorphism onto a
    relabelled copy, followed by the relabelling undone."""
    n = len(p)
    moved_rows_test(p, data.draw(st.permutations(range(n))))
    perm = data.draw(st.permutations(range(n)))
    iso = iso_check(p, relabel(p, perm))
    back = {b: a for a, b in enumerate(perm)}
    assert moved_rows_test(p, [back[iso.table[i]] for i in range(n)])


def _summand_swaps(p, at=0):
    """Every swap of two equal summands in a nested sum, as a map of p's
    positions offset by `at`."""
    if len(p.names) != 3 or p.names[0] != "sum" or p.names[1] is not p.names[2]:
        return []
    k = len(p.names[1])
    left, right = at + 1, at + 1 + k
    swap = {left + i: right + i for i in range(k)} | {right + i: left + i for i in range(k)}
    return [swap] + _summand_swaps(p.names[1], left) + _summand_swaps(p.names[1], right)


def test_moved_rows_test_finds_summand_and_factor_swaps():
    from epsolve.equations import iterate, parse_equation

    p = iterate(parse_equation("D = sum(D,D)", depth=5)).objects[-1]
    swaps = _summand_swaps(p)
    assert len(p) == 63 and len(swaps) == 31
    cases = [(p, [g.get(i, i) for i in range(len(p))]) for g in swaps]
    d3 = product(product(diamond(), diamond()), diamond())
    mirror = [0, 2, 1, 3]  # left <-> right in one diamond
    for f in [
        lambda x, y, z: (y, x, z),
        lambda x, y, z: (x, z, y),
        lambda x, y, z: (z, y, x),
        lambda x, y, z: (mirror[x], y, z),
    ]:
        cases.append((d3, [x * 16 + y * 4 + z for x, y, z in itertools.starmap(f, itertools.product(range(4), repeat=3))]))
    for q, perm in cases:
        assert moved_rows_test(q, perm)
        # the same map with two images exchanged: the tests agree on it too
        perm[1], perm[-1] = perm[-1], perm[1]
        moved_rows_test(q, perm)


def test_child_tests_on_binary_tree_stages_build_no_matrix_string(monkeypatch):
    """sum(D,D)@8, all stages: every child test reads the moved elements'
    rows.  Built as two `_matrix` strings a test, they took 494 strings."""
    import sys

    from epsolve import finposet
    from epsolve.equations import iterate, parse_equation

    callers = []
    matrix = finposet._matrix
    monkeypatch.setattr(
        finposet, "_matrix", lambda rows, order: callers.append(sys._getframe(1).f_code.co_name) or matrix(rows, order)
    )
    for p in iterate(parse_equation("D = sum(D,D)", depth=8)).objects:
        finposet._searched(p)
    assert "leaf" in callers and "_least_leaf" not in callers


def test_refining_a_sparse_stage_reads_few_loose_cells(monkeypatch):
    """The 481-element stage of solve-wide's
    sum(prod(const(flat2),D),fun(const(2-chain),const(diamond)))@4, with
    4.5 % of element pairs comparable.  Scanning every loose cell at each
    splitter step, its search reads 68 184 loose cells' masks; found from the
    splitter's rows, 7 992."""
    from epsolve import finposet
    from epsolve.equations import iterate, parse_equation

    class Counting(dict):
        reads = 0

        def items(self):
            Counting.reads += len(self)
            return super().items()

        def __getitem__(self, t):
            Counting.reads += 1
            return super().__getitem__(t)

    body = "sum(prod(const(flat2),D),fun(const(2-chain),const(diamond)))"
    p = iterate(parse_equation(f"D = {body}", depth=4)).objects[-1]
    assert len(p) == 481
    init = finposet._Partition.__init__
    monkeypatch.setattr(
        finposet._Partition, "__init__", lambda part, lab, end, loose, cell: init(part, lab, end, Counting(loose), cell)
    )
    finposet._searched(p)
    assert Counting.reads < 67_928 // 4


def _refine_ranks_unshortened(p):
    """Refinement that runs until the class count stops growing, with no
    early exit at a discrete partition; it reads the JSON matrix."""
    n = len(p)
    bot = p.elems.index(p.bottom) if p.bottom is not None else -1
    leq = poset_to_json(p)["leq"]
    key = [
        (sum(leq[j][i] for j in range(n)), sum(leq[i][j] for j in range(n)), i == bot)
        for i in range(n)
    ]
    while True:
        ranks = {k: r for r, k in enumerate(sorted(set(key)))}
        rk = [ranks[k] for k in key]
        new = [
            (
                rk[i],
                tuple(sorted(rk[j] for j in range(n) if leq[j][i])),
                tuple(sorted(rk[j] for j in range(n) if leq[i][j])),
            )
            for i in range(n)
        ]
        if len(set(new)) == len(set(key)):
            return rk
        key = new


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_refine_ranks_matches_unshortened_loop(seed):
    from epsolve.finposet import _refine_ranks
    from epsolve.suite import random_poset

    rng = random.Random(seed)
    for p in (random_poset(rng, 8), lift(random_poset(rng, 4, pointed=True)), antichain(rng.randint(1, 4))):
        for way in WAYS:
            with forced(way):
                assert _refine_ranks(p) == _refine_ranks_unshortened(p)


def _refine_ranks_all_elements(p):
    """The refinement loop as it was before singleton classes were skipped:
    every round builds the below and above ranks of every element.  It
    transposes `up` itself rather than read `p.down`."""
    from epsolve.finposet import _bit_strings

    flags = bytes.maketrans(b"01", b"\x00\x01")
    n = len(p)
    bot = -1 if p.bot is None else p.bot
    up, down = p.up, _transpose(p.up)
    key = [(down[i].bit_count(), up[i].bit_count(), i == bot) for i in range(n)]
    below = [b.encode().translate(flags) for b in _bit_strings(down)]
    above = [b.encode().translate(flags) for b in _bit_strings(up)]
    while True:
        ranks = {k: r for r, k in enumerate(sorted(set(key)))}
        rk = [ranks[k] for k in key]
        if len(ranks) == n:
            return rk
        new = [
            (r, tuple(sorted(itertools.compress(rk, b))), tuple(sorted(itertools.compress(rk, a))))
            for r, b, a in zip(rk, below, above)
        ]
        if len(set(new)) == len(set(key)):
            return rk
        key = new


@given(small_posets(max_size=9))
@settings(max_examples=200, deadline=None)
def test_refine_ranks_match_the_all_elements_loop(p):
    from epsolve.finposet import _refine_ranks

    assert _refine_ranks(p) == _refine_ranks_all_elements(p)


def test_refine_ranks_match_the_all_elements_loop_on_symmetric_shapes():
    from epsolve.finposet import _refine_ranks

    shapes = [flat(2), diamond(), chain_poset(2), chain_poset(3)]
    for x, y in itertools.product(shapes, repeat=2):
        for p in (product(x, y), coproduct(x, y), lift(product(x, y)), coproduct(product(x, y), product(y, x))):
            assert _refine_ranks(p) == _refine_ranks_all_elements(p)


# ---------------------------------------------------------------------------
# JSON

def test_poset_json_round_trip():
    for p in (one_point(), two(), diamond(), antichain(2)):
        assert poset_from_json(poset_to_json(p)) == p


def test_poset_json_rejects_invalid():
    bad = poset_to_json(two())
    bad["leq"][0][0] = False
    with pytest.raises(InvalidPoset):
        poset_from_json(bad)


@pytest.mark.parametrize(
    "field,value",
    [
        ("leq", [[1, "no"], [0, 1]]),  # truthy non-booleans
        ("leq", [[True, True], [False]]),
        ("leq", [[True, True]]),
        ("elems", ["v0", 1]),
        ("elems", "v0v1"),
        ("bottom", ["v0"]),  # unhashable, so it must not reach the intern table
    ],
)
def test_poset_json_rejects_malformed_fields(field, value):
    bad = poset_to_json(two())
    bad[field] = value
    with pytest.raises(InvalidPoset):
        poset_from_json(bad)


def test_map_from_dict_rejects_entries_outside_the_domain():
    with pytest.raises(ShapeMismatch, match="outside the domain"):
        map_from_dict(two(), two(), {"v0": "v0", "v1": "v1", "v2": "v1"})


def test_map_from_dict_rejects_values_outside_the_codomain():
    with pytest.raises(ShapeMismatch, match="outside the codomain"):
        map_from_dict(two(), two(), {"v0": "v0", "v1": "zz"})
    with pytest.raises(ShapeMismatch, match="outside the codomain"):
        map_from_dict(two(), two(), {"v0": "v0", "v1": ["v1"]})


@pytest.mark.parametrize(
    "table", [["v0", "v1"], [["v0", "v0"], ["v1", "v1"]], "v0v1"], ids=["list", "pairs", "string"]
)
def test_map_from_dict_rejects_a_table_that_is_not_a_dict(table):
    with pytest.raises(ShapeMismatch, match="must be a dict"):
        map_from_dict(two(), two(), table)


def test_map_json_round_trip():
    f = map_from_dict(two(), three(), {"v0": "v0", "v1": "v2"})
    assert map_from_json(map_to_json(f)) == f


# ---------------------------------------------------------------------------
# interning: equal fields give one object, and == is identity

def test_poset_construction_is_interned():
    e, u = ("a", "b"), (0b11, 0b10)
    p = FinPoset(e, u)
    assert p is FinPoset(e, u, None) is FinPoset(names=e, up=u, bot=None)
    assert p is FinPoset(e, up=u) is dataclasses.replace(p)
    assert p is make_poset(("a", "b"), [("a", "b")])
    assert p != FinPoset(e, u, 0) and p != FinPoset(("a", "c"), u)


def test_map_construction_is_interned():
    f = MonotoneMap(two(), three(), (0, 2))
    assert f is MonotoneMap(dom=two(), cod=three(), table=(0, 2))
    assert f is map_from_dict(two(), three(), {"v0": "v0", "v1": "v2"})
    assert f is map_from_json(map_to_json(f))
    assert compose(identity(three()), f) is f
    assert f != MonotoneMap(two(), three(), (0, 1))


def test_poset_json_round_trip_is_the_same_object():
    assert poset_from_json(poset_to_json(diamond())) is diamond()


def test_json_read_poset_keeps_names_apart_from_the_constructed_one():
    p = lift(two())
    q = poset_from_json(poset_to_json(p))
    assert q is not p and (q.elems, q.up, q.bot) == (p.elems, p.up, p.bot)


def test_unreferenced_poset_is_collected():
    p = FinPoset(("only-here",), (1,))
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None
    q = FinPoset(("only-here",), (1,))
    assert q is FinPoset(("only-here",), (1,), None)
