"""Recursive domain equations: concrete syntax, the initial chain from the
one-point poset, and run reports.

Grammar (LL(1), whitespace-insensitive, case-sensitive)::

    equation := 'D' '=' expr
    expr     := term ('+' term)*          # infix sugar for sum
    term     := 'D' | 'unit' | '1' | 'lift' '(' expr ')'
              | 'sum' '(' expr ',' expr ')' | 'prod' '(' expr ',' expr ')'
              | 'fun' '(' expr ',' expr ')' | 'compose' '(' expr ',' expr ')'
              | 'const' '(' name ')' | '(' expr ')'
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields

from .chains import OmegaChain, check_local_determination, thread_approximant
from .errors import CapExceeded
from .finposet import (
    DEFAULT_ELEM_CAP,
    FinPoset,
    canonical_form,
    chain_poset,
    diamond,
    flat,
    one_point,
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
    apply_obj,
    pr_apply_mor,
)
from .opairs import PairHom, bottom_inclusion_pair, is_iso_pair

#: posets addressable from the concrete syntax via const(<name>)
NAMED_POSETS: dict[str, FinPoset] = {
    "1": one_point(),
    "unit": one_point(),
    "2-chain": chain_poset(2),
    "3-chain": chain_poset(3),
    "4-chain": chain_poset(4),
    "diamond": diamond(),
    "flat2": flat(2),
}


class EquationSyntaxError(ValueError):
    """An error at a 0-based offset into the text, reported by line and column."""

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} at line {self.line}, column {self.column}")


@dataclass(frozen=True)
class EquationSpec:
    text: str
    body: FunctorExpr
    depth: int = 4
    elem_cap: int = DEFAULT_ELEM_CAP


_TOKEN_RE = re.compile(r"\s*(=|\+|\(|\)|,|[A-Za-z0-9_\-*]+)")

#: the combinators' names in the concrete syntax, as FunctorExpr.__str__ prints them
_COMBINATORS = {cls.__name__.lower(): cls for cls in (Lift, Sum, Prod, Fun, Compose)}


def _tokenize(text: str):
    """(token, offset) pairs, then (None, len(text)) to mark the end."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            offset = len(text) - len(stripped)
            raise EquationSyntaxError(f"unexpected character {stripped[0]!r}", text, offset)
        if m.group(1):
            tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def error(self, message: str) -> EquationSyntaxError:
        """The error at the next token."""
        return EquationSyntaxError(message, self.text, self.tokens[self.i][1])

    def expected(self, what: str) -> EquationSyntaxError:
        tok = self.peek()
        return self.error(f"expected {what}, found {tok if tok is not None else 'end of input'!r}")

    def take(self, want=None):
        tok = self.peek()
        if want is not None and tok != want:
            raise self.expected(repr(want))
        self.i += 1
        return tok

    def parse_equation(self) -> FunctorExpr:
        self.take("D")
        self.take("=")
        return self.parse_whole()

    def parse_whole(self) -> FunctorExpr:
        """An expression that runs to the end of the input."""
        out = self.parse_expr()
        if self.peek() is not None:
            raise self.error(f"trailing input {self.peek()!r}")
        return out

    def parse_expr(self) -> FunctorExpr:
        out = self.parse_term()
        while self.peek() == "+":
            self.take("+")
            out = Sum(out, self.parse_term())
        return out

    def parse_term(self) -> FunctorExpr:
        tok = self.peek()
        if tok == "D":
            self.take()
            return Id()
        if tok in ("unit", "1"):
            self.take()
            return Const(one_point(), "unit")
        if tok in _COMBINATORS:
            cls = _COMBINATORS[self.take()]
            self.take("(")
            args = [self.parse_expr()]
            for _ in cls.__match_args__[1:]:
                self.take(",")
                args.append(self.parse_expr())
            self.take(")")
            return cls(*args)
        if tok == "const":
            self.take()
            self.take("(")
            name = self.peek()
            if name in (None, "=", "+", "(", ")", ","):
                raise self.expected("a poset name")
            if name not in NAMED_POSETS:
                raise self.error(f"unknown poset name {name!r}")
            self.take()
            self.take(")")
            return Const(NAMED_POSETS[name], name)
        if tok == "(":
            self.take()
            out = self.parse_expr()
            self.take(")")
            return out
        raise self.expected("a functor term")


def parse_functor(text: str) -> FunctorExpr:
    """Parse a bare functor expression (no 'D =' prefix)."""
    return _Parser(text).parse_whole()


def parse_equation(text: str, depth: int = 4, elem_cap: int = DEFAULT_ELEM_CAP) -> EquationSpec:
    body = _Parser(text).parse_equation()
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return EquationSpec(text, body, depth, elem_cap)


def iterate(spec: EquationSpec) -> OmegaChain:
    """The initial chain Δ_0 = 1, Δ_{n+1} = F(Δ_n): link 0 is the bottom
    inclusion into F(1), link n+1 is F(link n), and Δ_{n+1} is link n's target."""
    start = one_point()
    links: list[PairHom] = []
    for n in range(spec.depth):
        try:
            if n == 0:
                link = bottom_inclusion_pair(start, apply_obj(spec.body, start, spec.elem_cap))
            else:
                link = pr_apply_mor(spec.body, links[-1], spec.elem_cap)
        except CapExceeded as exc:
            raise CapExceeded(f"cap exceeded at stage {n + 1}: {exc}") from exc
        links.append(link)
    objects = (start,) + tuple(f.tgt for f in links)
    # smallest n such that every later link is an iso pair; None when the
    # final link is not an iso (no stabilization observed at this depth)
    n = len(links)
    while n > 0 and is_iso_pair(links[n - 1]):
        n -= 1
    stab = n if (n < len(links) or not links) else None
    return OmegaChain(objects, tuple(links), stab)


@dataclass
class RunReport:
    equation: str
    depth: int
    seed: int | None
    stages: list[dict] = field(default_factory=list)
    stabilized_at: int | None = None
    ld: dict | None = None
    defect_matrix: list[list[int]] | None = None
    theorem_suite: dict | None = None

    def to_json(self) -> dict:
        # every field is JSON already; asdict would deep-copy the defect matrix
        return {f.name: getattr(self, f.name) for f in fields(self)}


def solve_report(spec: EquationSpec, seed: int | None = None) -> RunReport:
    """Iterate the equation and assemble the stage/defect report."""
    d = iterate(spec)
    report = RunReport(spec.text, spec.depth, seed, stabilized_at=d.stab_index)

    # links are checked EP pairs (bottom inclusion, then pr_apply_mor), so e∘p fixes
    # just the image of Δ_n in Δ_r: defect [r][n] = |Δ_r| − |Δ_n|; the last row is checked
    sizes = [len(p) for p in d.objects]
    rows = [[sizes[r] - s for s in sizes[: r + 1]] for r in range(len(sizes) - 1)]
    last = check_local_determination(thread_approximant(d, len(sizes) - 1))
    report.defect_matrix = rows + [list(last.defects)]
    for n, p in enumerate(d.objects):
        stage = {"n": n, "size": len(p), "defect": report.defect_matrix[-1][n]}
        try:
            stage["canonical_form"] = canonical_form(p)
        except CapExceeded as exc:  # the form labels a stage; without it the solve still stands
            stage["canonical_form"], stage["canonical_form_cap"] = None, str(exc)
        report.stages.append(stage)

    if d.stab_index is not None:
        # the final row's cocone (apex Δ_last ≅ Δ_N, identity last leg) is the canonical
        # colimit up to iso: same verdict and defects, and EP, so no residuals
        report.ld = last.to_json()
    return report


def json_bytes(payload) -> bytes:
    """Every JSON document epsolve writes: two-space indent, sorted keys, final newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def report_json_bytes(report: RunReport) -> bytes:
    return json_bytes(report.to_json())


def run_solver_determinism():
    """Solver growth and determinism: D = lift(D) at depth 4 reports sizes
    1..5 with final-row defects 4-n, and identical runs are byte-identical."""
    from .suite import PropertyResult

    spec = parse_equation("D = lift(D)", depth=4)
    r1 = solve_report(spec, seed=0)
    r2 = solve_report(parse_equation("D = lift(D)", depth=4), seed=0)
    sizes = [s["size"] for s in r1.stages]
    defects = [s["defect"] for s in r1.stages]
    ok = (
        sizes == [1, 2, 3, 4, 5]
        and defects == [4 - n for n in range(5)]
        and report_json_bytes(r1) == report_json_bytes(r2)
    )
    failures = [] if ok else [{"sizes": sizes, "defects": defects}]
    return PropertyResult("P6", ok, 1, failures)
