"""Runs one repetition of a workload: imports epsolve once in this fresh
interpreter, then forks one child per CLI call, so that every call starts
from the same cold state (empty caches) without paying for a new
interpreter.  Writes what happened to a JSON file.

    python3 benchmarks/worker.py SPEC.json RESULT.json

SPEC holds `src` (the package source directory), `ops` (each with `argv`
and `report`, the path its --json report goes to), `limit_s` (per-call
time limit, or null), `mem_mb` (address-space ceiling of each call's
process), `trace` and `out` (directory for per-call results and spans).
A call's time runs from the call into `epsolve.cli.main` to its exit code,
with stdout and stderr captured in memory.  Before every call and after the
last one the worker times a fixed reference workload; each call's result
holds the mean of the two timings around it as `ref_s`.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

# grace on top of the time limit before the kernel stops a call that the
# interval timer could not interrupt
CPU_GRACE_S = 5


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test catches it."""


def _alarm(signum, frame):
    raise OpTimeout()


def reference_s() -> float:
    """Time of a fixed pure-Python workload with the set, dict and tuple
    traffic of epsolve's own code: three transitive closures of a
    40-element relation.  It uses nothing from epsolve, so a change to the
    program does not change it; run.py divides call times by it to take out
    the speed of the shared machine at the moment of the call."""
    t0 = time.perf_counter()
    for _ in range(3):
        rel = {(i, j) for i in range(40) for j in range(i, 40) if (j - i) % 5 in (0, 1)}
        while True:
            succ: dict[int, set] = {}
            for a, b in rel:
                succ.setdefault(a, set()).add(b)
            new = {(a, c) for a, b in rel for c in succ.get(b, ())}
            if new <= rel:
                break
            rel |= new
        sorted(rel, key=lambda p: (p[1], p[0]))
        hash(frozenset(rel))
    return time.perf_counter() - t0


def reference_in_child() -> float:
    """reference_s() in a forked child, so that the worker's heap, which
    every call inherits, stays as it was after the imports."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        os.write(w, repr(reference_s()).encode())
        os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return float(data)


def run_op(main, argv: list[str], limit_s: float | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if limit_s:
                signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                rc = main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = "ok" if rc == 0 else f"exit{rc}"
        if rc == 2 and err.getvalue().startswith("cap exceeded"):
            outcome = "cap"
    except OpTimeout:
        outcome = "timeout"
    except MemoryError:
        outcome = "memory"
    except Exception:  # an exception escaping the CLI is a wrong output
        outcome = "error"
        err.write(traceback.format_exc().strip().splitlines()[-1])
    elapsed = time.perf_counter() - t0
    return {
        "outcome": outcome,
        "rc": rc,
        "time_s": elapsed,
        "stdout_sha": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_head": err.getvalue().split("\n", 1)[0][:300],
    }


def child(spec: dict, op: dict, i: int) -> None:
    """Body of a forked call; never returns."""
    path = os.path.join(spec["out"], f"op{i}.json")
    try:
        mem = spec["mem_mb"] << 20
        resource.setrlimit(resource.RLIMIT_AS, (mem, mem))
        if spec["limit_s"]:
            cpu = int(spec["limit_s"]) + CPU_GRACE_S
            resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        import epsolve.cli

        res = run_op(epsolve.cli.main, op["argv"], spec["limit_s"])
        if res["outcome"] == "ok" and os.path.exists(op["report"]):
            res["report_bytes"] = os.path.getsize(op["report"])
        if tracer:
            res["layers"] = tracer.summary()
            tracer.write_spans(os.path.join(spec["out"], f"op{i}.spans.json"))
        with open(path, "w") as fh:
            json.dump(res, fh)
        code = 0
    except BaseException as exc:  # report anything, then leave without cleanup
        with open(path + ".error", "w") as fh:
            fh.write(repr(exc))
        code = 1
    os._exit(code)


def main() -> int:
    if sys.flags.optimize:
        print("worker: refusing to run under python -O", file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    signal.signal(signal.SIGALRM, _alarm)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import epsolve.cli  # noqa: F401
    import epsolve.demo  # noqa: F401  (loaded so the tracer can wrap it)
    import epsolve.presheaf  # noqa: F401

    results = []
    refs = [reference_in_child()]
    for i, op in enumerate(spec["ops"]):
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            child(spec, op, i)
        _, status, usage = os.wait4(pid, 0)
        path = os.path.join(spec["out"], f"op{i}.json")
        if os.path.exists(path):
            with open(path) as fh:
                res = json.load(fh)
        elif os.WIFSIGNALED(status) and os.WTERMSIG(status) in (signal.SIGXCPU, signal.SIGKILL):
            res = {"outcome": "timeout", "rc": None, "time_s": usage.ru_utime + usage.ru_stime}
        else:
            detail = ""
            if os.path.exists(path + ".error"):
                with open(path + ".error") as fh:
                    detail = fh.read()
            print(f"worker: call {i} died with status {status} {detail}", file=sys.stderr)
            return 1
        res["peak_rss_mb"] = usage.ru_maxrss / 1024
        refs.append(reference_in_child())
        res["ref_s"] = (refs[-2] + refs[-1]) / 2
        results.append(res)
    with open(sys.argv[2], "w") as fh:
        json.dump({"ops": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
