"""Seeded inputs for the three workloads, and the size recurrence the
output checks compare solver reports against.

Functor bodies are kept as small trees -- ("D",), ("unit",),
("const", name), ("lift", e), ("sum", a, b), ("prod", a, b),
("fun", a, b) -- and rendered to the CLI's concrete syntax.  The seed picks
how each `sum` is written (`sum(a,b)` or the `+` sugar) and how each `unit`
is written (`unit`, `const(unit)` or `1`).  The parser turns every spelling
into the same expression tree, so a seed changes the text the program
parses and echoes in its reports, but not the work it does after parsing.
Argument order and isomorphic constants were tried as well: swapping the
arguments of `prod` changed single equations' times by up to 2x, which
made the per-equation percentiles depend on the seed.
"""
from __future__ import annotations

import random

#: sizes of the posets const(<name>) can name
CONST_SIZES = {"2-chain": 2, "3-chain": 3, "diamond": 4, "flat2": 3}

#: spellings the parser maps to the same Const(one_point()) node
UNIT_SPELLINGS = ["unit", "const(unit)", "1"]

# acceptance scale of `verify-theorems` (its CLI defaults) and the quarter
# scale used as the growth probe; the first 50 chains of a seed are the
# same in both, because the suite draws its chains in order from one rng
SUITE_CHAINS, SUITE_PROBE_CHAINS, SUITE_LUB_CASES = 200, 50, 50

# solve-deep: asymmetric bodies whose stages grow by a constant number of
# elements per step, with one D each, so their cost is the defect matrix
# (cubic in depth) and not function spaces or orderings.  Depths are set so
# that each body takes about the same time, 1 s on a 2-core x86 VM.
DEEP_BODIES = [
    ("lift(D)", 92),
    ("sum(D,const(2-chain))", 52),
    ("lift(sum(D,unit))", 48),
    ("sum(lift(D),const(3-chain))", 36),
]

# solve-wide: one random draw of 40 bodies of expression depth <= 3 over the
# full grammar (leaves D, unit, const(2-chain|flat2|diamond)), kept fixed and
# in draw order, duplicates included, plus the bodies named as blow-ups.
# Per-equation times in that draw ranged from 3 ms to well over 8 s, so a
# fresh random draw per seed made the batch time depend on how many blow-ups
# it happened to contain.  The 8 draws that took between 0.4 s and 3 s are
# left out, so that no equation's outcome sits near the time limit and flips
# between repetitions, and so are 3 of the 5 draws that took longer, so that
# only four calls spend the whole limit.
WIDE_BODIES = [
    "sum(prod(unit,D),prod(const(diamond),const(diamond)))",
    "prod(D,prod(const(flat2),const(diamond)))",
    "lift(fun(D,const(diamond)))",
    "fun(const(diamond),D)",
    "sum(prod(const(flat2),D),fun(const(2-chain),const(diamond)))",
    "lift(sum(unit,D))",
    "sum(lift(D),sum(D,const(diamond)))",
    "lift(prod(D,D))",
    "D",
    "lift(fun(unit,D))",
    "fun(prod(D,const(diamond)),unit)",
    "fun(lift(D),prod(const(flat2),D))",
    "fun(D,sum(D,const(flat2)))",
    "D",
    "prod(prod(const(diamond),D),unit)",
    "sum(const(flat2),D)",
    "sum(sum(D,const(2-chain)),prod(const(2-chain),D))",
    "D",
    "D",
    "D",
    "fun(fun(const(flat2),const(diamond)),lift(D))",
    "prod(prod(const(2-chain),D),prod(const(2-chain),const(flat2)))",
    "D",
    "sum(lift(unit),prod(const(flat2),D))",
    "D",
    "fun(prod(D,const(diamond)),unit)",
    "sum(lift(D),lift(const(flat2)))",
    "D",
    "sum(fun(D,D),lift(const(flat2)))",
    # the named blow-ups: a 100 000-map enumeration before the cap fires,
    # canonical_form's search over orderings of a symmetric sum, and a
    # product of three copies of D
    "prod(fun(D,D),sum(D,const(2-chain)))",
    "sum(D,sum(const(flat2),D))",
    "prod(D,prod(D,D))",
]
WIDE_DEPTH, WIDE_PROBE_DEPTH = 4, 2


def parse(text: str):
    """Tree of a body written in the plain function-call syntax above."""
    pos = 0

    def term():
        nonlocal pos
        j = pos
        while j < len(text) and (text[j].isalnum() or text[j] in "-_"):
            j += 1
        head = text[pos:j]
        pos = j
        if head in ("D", "unit"):
            return (head,)
        assert text[pos] == "(", text
        pos += 1
        if head == "const":
            j = text.index(")", pos)
            name, pos = text[pos:j], j + 1
            return ("const", name)
        args = [term()]
        while text[pos] == ",":
            pos += 1
            args.append(term())
        assert text[pos] == ")", text
        pos += 1
        return (head, *args)

    tree = term()
    assert pos == len(text), text
    return tree


def render(tree, rng: random.Random) -> str:
    """Concrete syntax of `tree`, spelled as the rng picks."""
    head = tree[0]
    if head == "D":
        return "D"
    if head == "unit":
        return rng.choice(UNIT_SPELLINGS)
    if head == "const":
        return f"const({tree[1]})"
    if head == "lift":
        return f"lift({render(tree[1], rng)})"
    a, b = render(tree[1], rng), render(tree[2], rng)
    if head == "sum" and rng.random() < 0.5:
        # `+` associates to the left, so a right operand that is itself a
        # `+` chain needs parentheses
        return f"{a} + ({b})" if _top_level_plus(b) else f"{a} + {b}"
    return f"{head}({a},{b})"


def _top_level_plus(text: str) -> bool:
    depth = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "+" and depth == 0:
            return True
    return False


def has_fun(tree) -> bool:
    return tree[0] == "fun" or any(has_fun(t) for t in tree[1:] if isinstance(t, tuple))


def stage_sizes(tree, depth: int) -> list[int]:
    """|D_0| .. |D_depth| of the initial chain of a fun-free body, from
    |lift X| = |X|+1, |X+Y| = 1+|X|+|Y|, |X*Y| = |X|*|Y|."""

    def size(t, x):
        head = t[0]
        if head == "D":
            return x
        if head == "unit":
            return 1
        if head == "const":
            return CONST_SIZES[t[1]]
        if head == "lift":
            return size(t[1], x) + 1
        a, b = size(t[1], x), size(t[2], x)
        return 1 + a + b if head == "sum" else a * b

    sizes = [1]
    for _ in range(depth):
        sizes.append(size(tree, sizes[-1]))
    return sizes


def solve_op(tree, depth: int, rng: random.Random, label: str) -> dict:
    return {
        "label": label,
        "kind": "solve",
        "body": render(tree, rng),
        "tree": tree,
        "depth": depth,
        "scale": depth,
    }


def build(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(main ops, growth-probe ops) of a workload at a seed.  An op is one
    call into the CLI; the probe runs the same inputs at half the scale."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suite":
        def suite_op(chains):
            return {"label": "suite", "kind": "suite", "seed": seed, "chains": chains, "scale": chains}

        return [suite_op(SUITE_CHAINS)], [suite_op(SUITE_PROBE_CHAINS)]
    if workload == "solve-deep":
        main, probe = [], []
        for i, (text, depth) in enumerate(DEEP_BODIES):
            op = solve_op(parse(text), depth, rng, f"deep{i}")
            main.append(op)
            probe.append({**op, "depth": depth // 2, "scale": depth // 2})
        return main, probe
    if workload == "solve-wide":
        trees = [parse(t) for t in WIDE_BODIES]
        rng.shuffle(trees)
        main = [solve_op(t, WIDE_DEPTH, rng, f"wide{i}") for i, t in enumerate(trees)]
        probe = [{**op, "depth": WIDE_PROBE_DEPTH, "scale": WIDE_PROBE_DEPTH} for op in main]
        return main, probe
    raise ValueError(f"unknown workload {workload!r}")


def argv(op: dict, report_path: str) -> list[str]:
    """Arguments to `epsolve.cli.main` for one op."""
    if op["kind"] == "suite":
        return [
            "verify-theorems", "--seed", str(op["seed"]), "--chains", str(op["chains"]),
            "--lub-cases", str(SUITE_LUB_CASES), "--json", report_path,
        ]
    return ["solve", f"D = {op['body']}", "--depth", str(op["depth"]), "--json", report_path]
