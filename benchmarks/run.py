"""epsolve benchmark: drives `epsolve.cli.main` from outside on seeded
workloads, checks its outputs and prints end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload suite --seed 0 --seconds 36 --trace 0

Run it from the repository root; it uses the package under ./src and
writes its inputs, worker results and spans under ./.bench_out/.  The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1).  `--workload all` runs every workload in turn.  See
benchmarks/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

WORKLOADS = ("suite", "solve-deep", "solve-wide")
# set-up is timed a few times before every repetition and once more at the
# end, so that its median spans the whole run and not one spell of it
SETUP_SAMPLES_PER_REP = 3
MEM_CEILING_MB = 2048
# per-equation time limit on solve-wide.  Tracing slows calls by up to 2x,
# so a traced call gets twice as long and keeps the outcome it has untraced.
WIDE_LIMIT_S = 1.2
TRACE_LIMIT_FACTOR = 2
MIN_REPS = 2
# the time of the reference workload (worker.reference_in_child) that call
# times are scaled to: about its 10th percentile on the 2-core x86 VM the
# benchmark was built on (8.9 to 10.1 ms over 160 timings)
REF_NOMINAL_S = 0.010
RUN_BUDGET_S = 170  # every run must end well inside 180 s
SUITE_PROPERTIES = ["P1", "P2", "P3", "P4a", "P4b", "P4c", "P5", "P6", "P7"]


class BenchError(Exception):
    """A run that cannot produce a result."""


def subprocess_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONOPTIMIZE", "EPSOLVE_CAP_ELEMS")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_samples(env: dict, n: int) -> list[float]:
    """n timings from interpreter start through `import epsolve.cli`."""
    cmd = [sys.executable, "-c", "import epsolve.cli"]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Run:
    def __init__(self, root: str, workload: str, seed: int, deadline: float):
        self.workload, self.deadline = workload, deadline
        self.src = os.path.join(root, "src")
        self.env = subprocess_env(self.src)
        self.out = os.path.join(root, ".bench_out", workload)
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.main, self.probe = workloads.build(workload, seed)
        for op in self.main:
            op["role"] = "main"
        for op in self.probe:
            op["role"] = "probe"
        with open(os.path.join(self.out, "inputs.json"), "w") as fh:
            json.dump(
                {"workload": workload, "seed": seed, "ops": self.main + self.probe},
                fh, indent=1,
            )
        # untraced results of calls the time limit stopped, by call index
        self.limited: dict[int, dict] = {}

    def run_rep(self, rep: int, traced: bool) -> dict:
        """One repetition: a fresh worker interpreter that forks one child
        per call, main calls first, then the growth probe.

        An untraced repetition does not run again a call that the time limit
        stopped in an earlier one: it would only measure the limit again.
        Its earlier result is carried over, marked `carried`, so that the
        repetition still has a result per call and the same digest.  On
        solve-wide that leaves 4 x 1.2 s out of every repetition but the
        first, so a run holds three times as many repetitions of the calls
        whose times the metrics are made of."""
        t0 = time.monotonic()
        out = os.path.join(self.out, f"rep{rep}")
        os.makedirs(out)
        ops = self.main + self.probe
        reports = [os.path.join(out, f"op{i}.report.json") for i in range(len(ops))]
        carried = {} if traced else self.limited
        todo = [i for i in range(len(ops)) if i not in carried]
        limit = None
        if self.workload == "solve-wide":
            limit = WIDE_LIMIT_S * (TRACE_LIMIT_FACTOR if traced else 1)
        spec = {
            "src": self.src, "limit_s": limit, "mem_mb": MEM_CEILING_MB, "trace": traced, "out": out,
            "ops": [{"argv": workloads.argv(ops[i], reports[i]), "report": reports[i]} for i in todo],
        }
        spec_path, result_path = os.path.join(out, "spec.json"), os.path.join(out, "result.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a worker could start")
        # the worker and the calls it forks share a process group, so a
        # worker that overruns is stopped together with its children
        proc = subprocess.Popen(
            [sys.executable, worker, spec_path, result_path], env=self.env, start_new_session=True
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("worker exceeded the run's time budget") from None
        if code != 0:
            raise BenchError(f"worker failed with exit code {code}")
        results = [None] * len(ops)
        with open(result_path) as fh:
            for i, r in zip(todo, json.load(fh)["ops"]):
                results[i] = r
                if r["outcome"] == "timeout" and not traced:
                    self.limited[i] = r
        for i, r in carried.items():
            results[i] = {**r, "carried": True}
        problems: list[str] = []
        for op, rp, r in zip(ops, reports, results):
            r["op"], r["report_path"] = op, rp
            problems += check_op(r)
        digest = hashlib.sha256(
            json.dumps([digest_entry(r) for r in results], sort_keys=True).encode()
        ).hexdigest()
        return {
            "traced": traced, "results": results, "problems": problems,
            "digest": digest, "elapsed": time.monotonic() - t0,
        }


# ---------------------------------------------------------------------------
# output checks, independent of the checkers under test

def outcome_class(r: dict) -> str:
    """Timeouts and memory exhaustion are one class in the digest: which of
    the two stops a blow-up first depends on the machine's speed."""
    return "fail" if r["outcome"] in ("timeout", "memory") else r["outcome"]


def digest_entry(r: dict) -> list:
    op = r["op"]
    entry = [op["label"], op["role"], op.get("body"), op.get("depth"), outcome_class(r)]
    if r["outcome"] == "ok":
        entry += [r["stdout_sha"], r["report_sha"]]
    elif r["outcome"] == "cap":
        entry.append(r["stderr_head"])
    return entry


def check_op(r: dict) -> list[str]:
    """Checks one call's outputs and returns what is wrong with them.  Fills
    in, in the workload's own units (property cases for `suite`, equations
    otherwise): r["attempted"]; r["failed"], the failures of fail_frac (a
    failing case, a cap exit, a timeout or a MemoryError); r["errors"], the
    outputs that are wrong or unexpected; and r["checks"], the
    local-determination verdicts the call decided."""
    op = r["op"]
    r["report_sha"] = None
    r["checks"], r["attempted"], r["failed"], r["errors"] = 0, 1, 0, 0
    where = f"{op['label']} ({op['role']}) {op.get('body', '')}"
    problems: list[str] = []
    if r["outcome"] in ("cap", "timeout", "memory"):
        r["failed"] = 1
        if op["kind"] == "suite":
            problems.append(f"{where}: suite ended with {r['outcome']}")
    elif r["outcome"] != "ok":
        r["failed"] = 1
        problems.append(f"{where}: {r['outcome']}: {r['stderr_head']}")
    elif op["kind"] == "suite":
        problems += check_suite_report(r, where)
    else:
        problems += check_solve_report(r, where)
    r["errors"] = max(r["errors"], len(problems) > 0)
    return problems


def _read_report(r: dict):
    with open(r["report_path"], "rb") as fh:
        raw = fh.read()
    r["report_sha"] = hashlib.sha256(raw).hexdigest()
    return json.loads(raw)


def check_suite_report(r: dict, where: str) -> list[str]:
    """`verify-theorems` must report every property P1-P7, all passing."""
    results = _read_report(r)["results"]
    problems = []
    names = [p["name"] for p in results]
    if names != SUITE_PROPERTIES:
        problems.append(f"{where}: properties {names}")
    for p in results:
        if not p["passed"]:
            problems.append(f"{where}: {p['name']} failed")
            r["failed"] += max(1, len(p["failures"]))
    r["errors"] = r["failed"]
    r["attempted"] = r["checks"] = sum(p["cases"] for p in results)
    return problems


def check_solve_report(r: dict, where: str) -> list[str]:
    """Stage sizes against the size recurrence (fun-free bodies) and the
    defect matrix against the stage sizes."""
    op, report = r["op"], _read_report(r)
    depth = op["depth"]
    sizes = [s["size"] for s in report["stages"]]
    if len(sizes) != depth + 1:
        return [f"{where}: {len(sizes)} stages for depth {depth}"]
    problems = []
    if not workloads.has_fun(op["tree"]):
        expected = workloads.stage_sizes(op["tree"], depth)
        if sizes != expected:
            problems.append(f"{where}: stage sizes {sizes}, recurrence gives {expected}")
    # an ep round trip through stage n fixes exactly the image of the
    # (injective) embedding of stage n into stage d
    matrix = report["defect_matrix"]
    for d, row in enumerate(matrix):
        if row != [sizes[d] - sizes[n] for n in range(d + 1)]:
            problems.append(f"{where}: defect row {d} is {row[:8]}..., sizes {sizes[:d + 1][:8]}...")
            break
    r["checks"] = len(matrix) + (report["ld"] is not None)
    return problems


# ---------------------------------------------------------------------------
# metrics

def at_reference_speed(r: dict) -> float:
    """A call's time scaled from the machine's speed at the moment of the
    call (the reference workload timed around it) to the reference speed.
    A call the time limit stopped counts the limit as it is."""
    if r["outcome"] == "timeout":
        return r["time_s"]
    return r["time_s"] * REF_NOMINAL_S / r["ref_s"]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values (of all of them when there
    are fewer than four)."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, or the maximum when there are fewer than 11."""
    v = sorted(values)
    n = len(v)
    i = n - 11 if n >= 11 else n - 1
    return v[i], 100.0 * (i + 1) / n, n


def growth(t_main: float, t_probe: float, main_op: dict, probe_op: dict) -> float:
    """Exponent k in time ~ scale^k between the probe and the main run."""
    return math.log(t_main / t_probe) / math.log(main_op["scale"] / probe_op["scale"])


def end_to_end(run: Run, reps: list[dict], setup_s: float) -> tuple[dict, list[str]]:
    plain = [rep for rep in reps if not rep["traced"]]
    # the shared 2-core VM this was built on ran the same call at speeds up
    # to 1.7x apart, in spells of seconds to minutes, and a 36 s run often
    # sat in one spell: over 36 s windows of a 160 s trace the batch time
    # of three calls spread by 0.10 (IQR/median) and ranged over 0.3.  A
    # call's time divided by the reference timed around it spread by 0.02
    # to 0.03 over the same windows.  So every time is taken at the
    # reference speed, and each call's time is then reduced to its
    # interquartile mean over the untraced repetitions.
    times: dict[tuple, list[float]] = {}
    measured: dict[tuple, list[float]] = {}
    for rep in plain:
        for r in rep["results"]:
            key = (r["op"]["role"], r["op"]["label"])
            times.setdefault(key, []).append(at_reference_speed(r))
            measured.setdefault(key, []).append(r["time_s"])
    call_t = {k: interquartile_mean(v) for k, v in times.items()}
    # outcomes and checks are the same in every repetition (the digest
    # compares them), so the first repetition stands for all
    main = [r for r in plain[0]["results"] if r["op"]["role"] == "main"]
    probe = [r for r in plain[0]["results"] if r["op"]["role"] == "probe"]
    t_main = [call_t[("main", r["op"]["label"])] for r in main]
    t_probe = [call_t[("probe", r["op"]["label"])] for r in probe]
    wall = sum(t_main)
    if run.workload == "solve-deep":
        growth_exp = statistics.median(
            growth(tm, tp, m["op"], p["op"]) for tm, tp, m, p in zip(t_main, t_probe, main, probe)
        )
    else:
        growth_exp = growth(wall, sum(t_probe), main[0]["op"], probe[0]["op"])
    # calls stopped by the time limit are left out: their memory depends on
    # how far they got
    rss = statistics.median(
        max(r["peak_rss_mb"] for r in rep["results"] if r["op"]["role"] == "main" and outcome_class(r) != "fail")
        for rep in plain
    )
    attempted = sum(r["attempted"] for r in main)
    failed = sum(r["failed"] for r in main)
    tail_v, tail_pct, n = tail(t_main)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "checks_per_s": sum(r["checks"] for r in main) / wall,
        "growth_exp": growth_exp,
        "op_p50_s": statistics.median(t_main),
        "op_tail_s": tail_v,
        "peak_rss_mb": rss,
        "decided_frac": 1 - failed / attempted,
    }
    measured_wall = sum(interquartile_mean(measured[("main", r["op"]["label"])]) for r in main)
    speed = statistics.median(r["ref_s"] for rep in plain for r in rep["results"] if not r.get("carried"))
    notes = [
        f"times are at the reference speed; the machine ran at {REF_NOMINAL_S / speed:.2f} of it "
        f"(median), and wall_s as measured was {measured_wall:.4g} s",
        f"op_tail_s is p{tail_pct:.1f} of {n} per-call times over {len(plain)} untraced reps",
        f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} per rep)",
    ]
    return values, notes


def per_layer(reps: list[dict]) -> tuple[dict, list[str]]:
    base = next(rep for rep in reps if not rep["traced"])
    base_times = {(r["op"]["label"], r["op"]["role"]): r for r in base["results"]}
    samples: dict[str, list[float]] = {}
    overheads = []
    for rep in (rep for rep in reps if rep["traced"]):
        layers: dict[str, float] = {}
        main = [r for r in rep["results"] if r["op"]["role"] == "main"]
        for r in main:
            for k, v in r.get("layers", {}).items():
                layers[k] = layers.get(k, 0) + v
        attempts = layers.get("opairs.derived_right_leg.calls", 0)
        layers["opairs.enumerate_pairs.yield"] = (
            layers.get("opairs.enumerate_pairs.pairs", 0) / attempts if attempts else 0.0
        )
        layers["equations.report.bytes"] = sum(
            r.get("report_bytes", 0) for r in main if r["op"]["kind"] == "solve"
        )
        for kind in ("cap", "timeout", "memory"):
            layers[f"equations.fail.{kind}"] = sum(r["outcome"] == kind for r in main)
        both = [
            (at_reference_speed(r), at_reference_speed(base_times[key]))
            for r in rep["results"]
            for key in [(r["op"]["label"], r["op"]["role"])]
            if outcome_class(r) != "fail" and outcome_class(base_times[key]) != "fail"
        ]
        layers["trace.overhead"] = sum(t for t, _ in both) / sum(b for _, b in both) - 1
        overheads.append(layers["trace.overhead"])
        for k, v in layers.items():
            samples.setdefault(k, []).append(v)
    values = {k: statistics.median(v) for k, v in samples.items()}
    notes = [f"tracing overhead {statistics.median(overheads):+.1%} on calls that ended within the limit in both modes"]
    return values, notes


# ---------------------------------------------------------------------------

def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    t_start = time.monotonic()
    run = Run(root, workload, seed, t_start + RUN_BUDGET_S)
    setup_samples(run.env, 1)  # compiles the bytecode
    setups: list[float] = []
    reps: list[dict] = []
    t_reps = time.monotonic()
    while True:
        setups += setup_samples(run.env, SETUP_SAMPLES_PER_REP)
        reps.append(run.run_rep(len(reps), traced=trace and len(reps) > 0))
        now = time.monotonic()
        if len(reps) >= MIN_REPS and now - t_reps + reps[-1]["elapsed"] > seconds:
            break
        if len(reps) >= MIN_REPS and now + reps[-1]["elapsed"] > run.deadline - 10:
            break
    setups += setup_samples(run.env, SETUP_SAMPLES_PER_REP)
    setup_s = statistics.median(setups)
    problems = [p for rep in reps for p in rep["problems"]]
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"repetitions of seed {seed} gave different digests: {sorted(digests)}")
    if trace:
        values, notes = per_layer(reps)
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(run, reps, setup_s)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    ops = [r for rep in reps for r in rep["results"] if not r.get("carried")]
    return {
        "workload": workload, "seed": seed, "reps": len(reps), "traced_reps": sum(r["traced"] for r in reps),
        "digest": reps[0]["digest"], "problems": problems, "notes": notes,
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in ops),
        # cap exits and time-limit stops on solve-wide are outcomes the
        # workload is built to show; they count in fail_frac and decided_frac
        # but not here, where only wrong or unexpected outputs count
        "failed": sum(r["errors"] for r in ops),
        "metrics": metrics,
    }


def print_result(res: dict) -> None:
    print(
        f"workload {res['workload']} seed {res['seed']}: {res['reps']} reps "
        f"({res['traced_reps']} traced), digest {res['digest']}, "
        f"inputs in .bench_out/{res['workload']}/inputs.json"
    )
    for name, m in res["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    for note in res["notes"]:
        print(f"  note: {note}")
    for p in res["problems"]:
        print(f"  CHECK FAILED: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        # pair_compose validates its result with an assert
        print("run.py: refusing to run under python -O", file=sys.stderr)
        return 2
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "epsolve", "cli.py")):
        print("run.py: no epsolve source under ./src; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [
            run_workload(root, w, args.seed, args.seconds, bool(args.trace), spec) for w in names
        ]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print_result(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
