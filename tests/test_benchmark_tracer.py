"""The benchmark tracer (`benchmarks/tracer.py`) wraps epsolve functions
and classes by name; a rename or deletion in the package must fail here,
not only in a traced benchmark run."""
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks import tracer


@pytest.mark.parametrize(
    "module,name",
    [(m, f) for m, f, _layer in tracer.WRAPPED] + list(tracer.SUITE_FUNCS),
)
def test_wrapped_function_resolves(module, name):
    fn = getattr(importlib.import_module(f"epsolve.{module}"), name)
    assert callable(fn) and not isinstance(fn, type)


@pytest.mark.parametrize("module,name", tracer.EQ_CLASSES)
def test_counted_class_resolves(module, name):
    assert isinstance(getattr(importlib.import_module(f"epsolve.{module}"), name), type)


#: a traced run as the benchmark worker makes one: import the package,
#: install the tracer, then drive the CLI; argv[1:3] are the source and
#: benchmarks directories
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import epsolve.cli
import epsolve.demo
import epsolve.presheaf
from tracer import Tracer

tracer = Tracer()
tracer.install()
argvs = [
    ["yoneda-demo"],
    ["solve", "D = fun(D,const(2-chain))", "--depth", "2"],
    ["verify-theorems", "--chains", "3", "--lub-cases", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [epsolve.cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes, "summary": tracer.summary()}))
"""


def test_traced_run_counts_every_layer(tmp_path):
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "src"), str(root / "benchmarks")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, check=True,
    )
    res = json.loads(out.stdout)
    assert res["codes"] == [0, 0, 0]
    summary = res["summary"]
    for key in ("presheaf.calls", "functors.pr_apply_mor.calls", "finposet.monotone_maps.maps"):
        assert summary.get(key, 0) > 0, key
