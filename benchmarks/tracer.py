"""Per-layer tracing of epsolve from outside the package.

`Tracer.install()` replaces chosen public functions with timing wrappers.
`from .finposet import compose` copies the binding into the importing
module, so each wrapper is bound under every name in every loaded
`epsolve.*` module that holds the original.  A span stack gives each span
its self time (own duration minus the time covered by wrapped callees),
which keeps the recursive `apply_obj`/`pr_apply_mor` honest; inclusive time
counts only the outermost activation of a name.  `functools.cache` miss
counts come from `cache_info()` on the originals.  Spans stay in memory
and are written once, by `write_spans`, when the worker ends.
"""
from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, function, layer name).  Functions that share a layer name add up.
WRAPPED = [
    ("finposet", "compose", "finposet.compose"),
    ("finposet", "monotone_maps", "finposet.monotone_maps"),
    ("finposet", "function_space_maps", "finposet.function_space_maps"),
    ("finposet", "canonical_form", "finposet.canonical_form"),
    ("finposet", "lift", "finposet.build"),
    ("finposet", "product", "finposet.build"),
    ("finposet", "coproduct", "finposet.build"),
    ("opairs", "pair_compose", "opairs.pair_compose"),
    ("opairs", "enumerate_pairs", "opairs.enumerate_pairs"),
    ("opairs", "derived_right_leg", "opairs.derived_right_leg"),
    ("chains", "link_composite", "chains.link_composite"),
    ("chains", "thread_approximant", "chains.thread_approximant"),
    ("chains", "is_colimiting", "chains.is_colimiting"),
    ("chains", "colimit_finite", "chains.colimit_finite"),
    ("chains", "check_local_determination_ep", "chains.check_ld_ep"),
    ("chains", "check_local_determination_adj", "chains.check_ld_adj"),
    ("functors", "apply_obj", "functors.apply_obj"),
    ("functors", "pr_apply_mor", "functors.pr_apply_mor"),
    ("functors", "preserves_cocone", "functors.preserves_cocone"),
    ("equations", "iterate", "equations.iterate"),
    ("equations", "solve_report", "equations.solve_report"),
    ("equations", "report_json_bytes", "equations.report_json_bytes"),
    ("cli", "main", "cli.main"),
]

# property-suite entry points; each returns a PropertyResult (or a tuple
# led by one) whose name (P1 .. P7) labels the span
SUITE_FUNCS = [
    ("suite", "run_ld_implies_colimiting"),
    ("suite", "run_preservation"),
    ("suite", "run_counterexample"),
    ("suite", "run_ep_adjoint_second_condition"),
    ("suite", "run_lub_cross_check"),
    ("demo", "run_proof_step_property"),
    ("equations", "run_solver_determinism"),
]

# classes whose structural __eq__ calls are counted, with their layer
EQ_CLASSES = [("finposet", "FinPoset"), ("finposet", "MonotoneMap"), ("opairs", "PairHom")]

# cached functions whose results are counted on a miss: maps enumerated by
# monotone_maps, pairs kept by enumerate_pairs
RESULT_COUNTS = {
    "finposet.monotone_maps": "finposet.monotone_maps.maps",
    "opairs.enumerate_pairs": "opairs.enumerate_pairs.pairs",
}


def _modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "epsolve" or n.startswith("epsolve.")}


def _rebind(orig, new) -> None:
    for mod in _modules().values():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one entry per span, in the order spans were entered
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._active: Counter = Counter()
        self._stack: list[list[int]] = []  # [covered child ns, span id]
        self._cached: dict[str, list] = {}  # layer -> cached originals
        self._miss0: dict[str, int] = {}
        self._finposet_caches: list = []

    def _wrap(self, fn, name: str, on_result=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, active = self._stack, self._active
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        s_name, s_parent, s_start, s_end = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )

        def wrapper(*args, **kwargs):
            depth = active[name]
            active[name] = depth + 1
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][1] if stack else -1)
            frame = [0, sid]
            stack.append(frame)
            t0 = perf_counter_ns()
            s_start.append(t0)
            s_end.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                s_end[sid] = t1
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_ns[name] += dur - frame[0]
                if depth == 0:
                    incl_ns[name] += dur
                active[name] = depth
                if stack:
                    stack[-1][0] += dur
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def install(self) -> None:
        mods = {n.rsplit(".", 1)[-1]: m for n, m in _modules().items()}
        self._finposet_caches = [
            f for f in vars(mods["finposet"]).values() if hasattr(f, "cache_info")
        ]
        for modname, fname, layer in WRAPPED:
            orig = getattr(mods[modname], fname)
            if hasattr(orig, "cache_info"):
                self._cached.setdefault(layer, []).append(orig)
            _rebind(orig, self._wrap(orig, layer, self._result_hook(layer, orig)))
        self._miss0 = {layer: self._misses(layer) for layer in self._cached}

        for modname, fname in SUITE_FUNCS:
            orig = getattr(mods[modname], fname)
            _rebind(orig, self._suite_wrapper(orig))

        presheaf = mods["presheaf"]
        for orig in list(vars(presheaf).values()):
            if (
                callable(orig)
                and not isinstance(orig, type)
                and getattr(orig, "__module__", None) == presheaf.__name__
            ):
                _rebind(orig, self._wrap(orig, "presheaf"))

        for modname, cls_name in EQ_CLASSES:
            cls = getattr(mods[modname], cls_name)
            cls.__eq__ = self._eq_wrapper(cls.__eq__, f"{modname}.eq.calls")

    def _eq_wrapper(self, orig, key: str):
        counts = self.counts

        def __eq__(a, b):
            counts[key] += 1
            return orig(a, b)

        return __eq__

    def _suite_wrapper(self, orig):
        traced = self._wrap(orig, "suite")

        def run_property(*args, **kwargs):
            t0 = perf_counter_ns()
            out = traced(*args, **kwargs)
            result = out[0] if isinstance(out, tuple) else out
            self.incl_ns[f"suite.{result.name}"] += perf_counter_ns() - t0
            self.counts[f"suite.{result.name}.cases"] += result.cases
            return out

        return run_property

    def _misses(self, layer: str) -> int:
        return sum(f.cache_info().misses for f in self._cached.get(layer, []))

    def _result_hook(self, layer: str, orig):
        key = RESULT_COUNTS.get(layer)
        if key is None:
            return None
        seen = [orig.cache_info().misses]

        def hook(out):
            misses = orig.cache_info().misses
            if misses != seen[0]:
                seen[0] = misses
                self.counts[key] += len(out)

        return hook

    def summary(self) -> dict:
        """Per-layer counts and seconds, flat, by metric name."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            out[f"{name}.incl_s"] = self.incl_ns[name] / 1e9
        for layer in self._cached:
            out[f"{layer}.miss"] = self._misses(layer) - self._miss0[layer]
        for key, ns in self.incl_ns.items():
            if key.startswith("suite."):
                out[f"{key}.incl_s"] = ns / 1e9
        out.update(self.counts)
        attempts = self.calls["opairs.derived_right_leg"]
        out["opairs.enumerate_pairs.yield"] = (
            self.counts["opairs.enumerate_pairs.pairs"] / attempts if attempts else 0.0
        )
        out["finposet.cache.entries"] = sum(f.cache_info().currsize for f in self._finposet_caches)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start_ns": self.span_start.tolist(),
                    "end_ns": self.span_end.tolist(),
                },
                fh,
            )
