"""Seeded property suites: the desk-scale reading of the universally
quantified statements, run over generated chains, enumerated cocones and a
generated family of functor expressions.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .chains import (
    Cocone,
    OmegaChain,
    check_local_determination,
    check_local_determination_adj,
    check_local_determination_ep,
    colimit_finite,
    is_colimiting,
)
from .errors import CapExceeded, InvalidPair, NotPointed, ShapeMismatch, WitnessError
from .finposet import (
    FinPoset,
    antichain,
    chain_poset,
    compose,
    diamond,
    flat,
    identity,
    leq_map,
    lub_map_chain,
    make_poset,
    monotone_maps,
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
    assemble_image,
    image_pairs,
)
from .opairs import Kind, PairHom, bottom_inclusion_pair, enumerate_pairs, pair_identity


@dataclass
class PropertyResult:
    name: str
    passed: bool
    cases: int
    failures: list = field(default_factory=list)
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "cases": self.cases,
            "failures": self.failures[:5],
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# generators

def random_poset(rng: random.Random, max_size: int, pointed: bool | None = None) -> FinPoset:
    """Random labeled poset: upward edges closed transitively, optionally
    forced to have a bottom."""
    n = rng.randint(1, max_size)
    if pointed is None:
        pointed = rng.random() < 0.7
    elems = tuple(f"e{i}" for i in range(n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                pairs.append((elems[i], elems[j]))
    if pointed:
        pairs.extend((elems[0], e) for e in elems[1:])
        return make_poset(elems, pairs, bottom=elems[0])
    return make_poset(elems, pairs)


def random_chain(
    rng: random.Random, kind: Kind, max_size: int, max_len: int
) -> OmegaChain:
    """Random stabilizing chain: random links up to a stabilization point,
    identity links beyond it."""
    length = rng.randint(2, max_len)
    stab = rng.randint(0, length - 1)
    objects = [random_poset(rng, max_size)]
    links: list[PairHom] = []
    for n in range(length - 1):
        if n >= stab:
            objects.append(objects[-1])
            links.append(pair_identity(objects[-1], kind))
            continue
        link = None
        for _ in range(8):  # retry until a candidate target admits a pair
            cand = random_poset(rng, max_size)
            pairs = enumerate_pairs(objects[-1], cand, kind)
            if pairs:
                link = rng.choice(pairs)
                objects.append(cand)
                break
        if link is None:
            objects.append(objects[-1])
            link = pair_identity(objects[-1], kind)
        links.append(link)
    return OmegaChain(tuple(objects), tuple(links), stab)


def apex_catalog() -> tuple[FinPoset, ...]:
    """Small posets (<= 5 elements) used as candidate cocone apexes."""
    return (
        one_point(),
        chain_poset(2),
        chain_poset(3),
        chain_poset(4),
        chain_poset(5),
        diamond(),
        flat(2),
        antichain(2),
    )


def cocones_over(d: OmegaChain, apexes):
    """Every cocone over d with an apex drawn from `apexes`: a cocone is
    determined by its final leg, so enumerate those."""
    last_obj = d.objects[-1]
    seen_apex = set()
    for apex in apexes:
        if apex in seen_apex:
            continue
        seen_apex.add(apex)
        try:
            finals = enumerate_pairs(last_obj, apex, d.kind)
        except CapExceeded:
            continue
        for final in finals:
            yield Cocone(d, final)


def functor_family(max_depth: int, consts: list[tuple[FinPoset, str]]) -> tuple[FunctorExpr, ...]:
    """All functor expression trees of depth <= max_depth over Id and the
    given constants, counting levels: a bare leaf is a tree of depth 1, one
    combinator over leaves has depth 2, and so on."""
    leaves: list[FunctorExpr] = [Id()] + [Const(p, name) for p, name in consts]
    pool = list(leaves)
    seen = set(pool)
    for _ in range(max_depth - 1):
        args = list(pool)
        new: list[FunctorExpr] = []
        for a in args:
            new.append(Lift(a))
        for a in args:
            for b in args:
                new.extend((Prod(a, b), Sum(a, b), Fun(a, b), Compose(a, b)))
        for e in new:
            if e not in seen:
                seen.add(e)
                pool.append(e)
    return tuple(pool)


# ---------------------------------------------------------------------------
# P1/P4a: locally determined <=> colimiting, over enumerated cocones

def _verdicts(k: Cocone) -> tuple[bool, bool]:
    """(colimiting, locally determined) of k; the checkers are looked up in
    this module's globals, where tests patch them."""
    return is_colimiting(k), check_local_determination(k).verdict


def _decide(k: Cocone, memo: dict[tuple, tuple[bool, bool]]) -> tuple[bool, bool]:
    """The verdicts of k, decided once per distinct cocone in `memo`, the
    dict of one property run.  It is keyed by the interned (chain, final
    leg) that fix k, so it keeps no legs alive."""
    out = memo.get((k.chain, k.final))
    if out is None:
        out = memo[k.chain, k.final] = _verdicts(k)
    return out


def run_ld_implies_colimiting(
    seed: int,
    kind: Kind = Kind.EP,
    chain_count: int = 200,
    max_size: int = 4,
    max_len: int = 5,
) -> tuple[PropertyResult, list[OmegaChain]]:
    """P1 on EP chains, P4a on ADJ chains."""
    rng = random.Random(seed)
    chains = [random_chain(rng, kind, max_size, max_len) for _ in range(chain_count)]
    failures = []
    cases = 0
    memo: dict[tuple, tuple[bool, bool]] = {}
    for d in chains:
        # Δ_N, the canonical colimit's apex
        apexes = apex_catalog() + (d.objects[d.stab_index],)
        for k in cocones_over(d, apexes):
            cases += 1
            colimiting, ld = _decide(k, memo)
            if ld != colimiting:
                failures.append({"chain": repr(d), "apex": repr(k.apex)})
    name = "P1" if kind == Kind.EP else "P4a"
    return PropertyResult(name, not failures, cases, failures), chains


# ---------------------------------------------------------------------------
# P2/P4b: the forward theorem over the generated functor family

#: workload bound of P2/P4b: a functor is checked on a cocone only when every
#: poset it builds there has at most this many elements; raising it adds cases
IMAGE_SIZE_LIMIT = 8


def _preserve_verdicts(e: FunctorExpr, canon: Cocone, memo: dict[tuple, tuple[bool, bool]]):
    """(colimiting, ld verdict) of the functor image, or None when the image
    exceeds IMAGE_SIZE_LIMIT or needs a bottom that is missing.  Images
    repeat (a constant functor sends every chain of one length and witness
    to the same cocone), so `memo` is keyed by the image's interned links,
    legs and witness, looked up before the image is assembled: each
    distinct image is assembled, checked and decided once."""
    try:
        links, legs = image_pairs(e, canon, IMAGE_SIZE_LIMIT)
    except (CapExceeded, NotPointed):
        return None
    except (InvalidPair, ShapeMismatch):
        return False, False  # an image is no valid pair
    key = links, legs, canon.chain.stab_index
    out = memo.get(key)
    if out is None:
        try:
            image = assemble_image(*key)
        except (InvalidPair, ShapeMismatch, WitnessError):
            # the images are no witnessed chain, or their legs do not commute
            out = False, False
        else:
            out = _verdicts(image)
        memo[key] = out
    return out


def run_preservation(chains: list[OmegaChain], kind: Kind) -> PropertyResult:
    """P2 on the EP chains of P1, P4b on the ADJ chains of P4a."""
    family = functor_family(2, [(one_point(), "unit"), (chain_poset(2), "2-chain")])
    canon_by_key: dict[OmegaChain, Cocone] = {}
    for d in chains:
        if d not in canon_by_key:
            canon_by_key[d] = colimit_finite(d)
    failures = []
    cases = 0
    memo: dict[tuple, tuple[bool, bool]] = {}
    for d, canon in canon_by_key.items():
        for e in family:
            verdicts = _preserve_verdicts(e, canon, memo)
            if verdicts is None:
                continue
            cases += 1
            if verdicts != (True, True):
                failures.append({"functor": str(e), "chain": repr(d)})
    name = "P2" if kind == Kind.EP else "P4b"
    return PropertyResult(name, not failures, cases, failures)


# ---------------------------------------------------------------------------
# P3: the fixed non-locally-determined counterexample

def counterexample_cocone() -> Cocone:
    """Constant chain at the one-point poset; apex the 2-chain; every leg
    the bottom-inclusion pair.  Not locally determined, not colimiting."""
    pt = one_point()
    two = chain_poset(2)
    d = OmegaChain((pt,) * 3, (pair_identity(pt),) * 2, 0)
    return Cocone(d, bottom_inclusion_pair(pt, two))


def run_counterexample() -> PropertyResult:
    k = counterexample_cocone()
    report = check_local_determination_ep(k)
    colim = is_colimiting(k)
    ok = (
        not report.verdict
        and report.defects == (1,) * len(k.legs)
        and not colim
    )
    failures = [] if ok else [{"report": report.to_json(), "colimiting": colim}]
    return PropertyResult("P3", ok, 1, failures)


# ---------------------------------------------------------------------------
# P4c: on ep-chains the adjoint second condition holds with both sides id

def _adj_second_condition_holds(d: OmegaChain) -> bool:
    """Whether the canonical colimit of the ep-chain d, read as adjoint
    pairs, is locally determined with r∘l the identity on every leg."""
    canon = colimit_finite(d)
    adj_chain = OmegaChain(d.objects, tuple(PairHom(Kind.ADJ, f.l, f.r) for f in d.links), d.stab_index)
    adj_cocone = Cocone(adj_chain, PairHom(Kind.ADJ, canon.final.l, canon.final.r))
    return check_local_determination_adj(adj_cocone).verdict and all(
        compose(leg.r, leg.l) == identity(leg.src) for leg in adj_cocone.legs
    )


def run_ep_adjoint_second_condition(chains: list[OmegaChain]) -> PropertyResult:
    """P4c on the EP chains of P1, decided once per distinct chain (so each
    ADJ chain builds its inner rows once); every case counts."""
    holds: dict[OmegaChain, bool] = {}
    failures = []
    for d in chains:
        if d not in holds:
            holds[d] = _adj_second_condition_holds(d)
        if not holds[d]:
            failures.append({"chain": repr(d)})
    return PropertyResult("P4c", not failures, len(chains), failures)


# ---------------------------------------------------------------------------
# P7: lub oracle cross-check

def run_lub_cross_check(seed: int, cases: int = 50) -> PropertyResult:
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        p = random_poset(rng, 3)
        q = random_poset(rng, 3)
        hom = monotone_maps(p, q)
        if not hom:
            continue
        f = rng.choice(hom)
        terms = [f]
        for _ in range(rng.randint(0, 3)):
            ups = [g for g in hom if leq_map(terms[-1], g)]
            terms.append(rng.choice(ups))
        stab = len(terms) - 1
        terms.extend([terms[-1]] * rng.randint(0, 2))
        got = lub_map_chain(terms, stab)
        # independent oracle: brute-force least upper bound over the hom-poset
        ubs = [u for u in hom if all(leq_map(t, u) for t in terms)]
        least = [u for u in ubs if all(leq_map(u, v) for v in ubs)]
        done += 1
        if len(least) != 1 or least[0] != got:
            failures.append({"dom": repr(p), "cod": repr(q), "chain": repr(terms)})
    return PropertyResult("P7", not failures, done, failures)


# ---------------------------------------------------------------------------
# the full suite (P5/P6 live next to their subjects and are imported here)

def run_all(
    seed: int = 0,
    chain_count: int = 200,
    max_size: int = 4,
    max_len: int = 5,
    lub_cases: int = 50,
) -> list[PropertyResult]:
    from .demo import run_proof_step_property
    from .equations import run_solver_determinism

    results = []
    p1, ep_chains = run_ld_implies_colimiting(seed, Kind.EP, chain_count, max_size, max_len)
    results.append(p1)
    results.append(run_preservation(ep_chains, Kind.EP))
    results.append(run_counterexample())
    p4a, adj_chains = run_ld_implies_colimiting(seed + 1, Kind.ADJ, chain_count, max_size, max_len)
    results.append(p4a)
    results.append(run_preservation(adj_chains, Kind.ADJ))
    results.append(run_ep_adjoint_second_condition(ep_chains))
    results.append(run_proof_step_property())
    results.append(run_solver_determinism())
    results.append(run_lub_cross_check(seed + 2, lub_cases))
    return results
