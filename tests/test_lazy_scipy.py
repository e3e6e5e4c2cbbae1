"""scipy.optimize and numpy are loaded only by the numeric paths: the
numeric cutting planes, the numeric orthogonality graph and quantum
values, and the realization search.  multiprocessing is loaded only
when a process pool starts.

Importing them would take most of the time and memory of `import
siccert`, so the exact commands must never load them.  Each boundary
check runs in a fresh interpreter, where nothing else has imported
either yet.  The realization search loads both in the caller before a
pool forks, and every call still goes through the module names
certify.linprog and realize.minimize, which perfbench's tracer and the
tests replace."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import siccert
from siccert import certify, fixture_path, realize
from siccert.certify import certify_sic, parse_vector_file
from siccert.graphs import Graph

YU_OH_G6 = "L?AB?vOLDPHa`o"
YU_OH_VEC = str(fixture_path("yu_oh_d3.vec"))

BOUNDARY = """
import contextlib, io, json, sys
import siccert, siccert.cli
code = None
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = siccert.cli.main(argv)
print(json.dumps({"code": code, **{
    top: sorted(m for m in sys.modules
                if m == top or m.startswith(top + "."))
    for top in ("scipy", "numpy", "multiprocessing")}}))
"""

POOL = """
import json, sys
from siccert import runner
from siccert.graphs import parse_graph6
from siccert.realize import find_realization

def key(r):
    return [r.status, repr(r.residual), r.vectors.tobytes().hex(),
            r.restart_index]

runner._usable_cpus = lambda: 2  # a real pool even on one usable CPU
g = parse_graph6(sys.argv[1])
before = "scipy.optimize" in sys.modules
numpy_before = "numpy" in sys.modules
mp_before = "multiprocessing" in sys.modules
pooled = find_realization(g, 3, restarts=4, workers=2)
after = "scipy.optimize" in sys.modules
numpy_after = "numpy" in sys.modules
mp_after = "multiprocessing" in sys.modules
serial = find_realization(g, 3, restarts=4, workers=1)
print(json.dumps({"before": before, "after": after,
                  "numpy_before": numpy_before, "numpy_after": numpy_after,
                  "mp_before": mp_before, "mp_after": mp_after,
                  "pooled": key(pooled), "serial": key(serial)}))
"""


def fresh(script: str, *args: str) -> dict:
    """Run script in a new interpreter that imports this siccert; return
    the JSON object it prints."""
    src = str(Path(siccert.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    [],
    ["enumerate", "--max-n", "7"],
    ["graph", "chif", "K_GTCceEQHHB"],
    ["certify", YU_OH_VEC],  # chi_f decides it: no linprog call
    ["inequality", YU_OH_VEC],
], ids=["import", "enumerate", "graph-chif", "certify-exact",
        "inequality-exact"])
def test_exact_paths_load_no_scipy(argv):
    # and no numpy or multiprocessing either
    got = fresh(BOUNDARY, json.dumps(argv))
    assert got["scipy"] == []
    assert got["numpy"] == []
    assert got["multiprocessing"] == []
    assert got["code"] == (0 if argv else None)


def test_numeric_certify_loads_scipy_optimize():
    # the control: the boundary check sees scipy and numpy when they
    # are loaded
    got = fresh(BOUNDARY, json.dumps(["certify", "--numeric", YU_OH_VEC]))
    assert "scipy.optimize" in got["scipy"]
    assert "numpy" in got["numpy"]


def test_search_loads_scipy_optimize_before_the_pool():
    # without the load in find_realization, only the forked workers
    # import scipy.optimize (and numpy), and each pooled call imports
    # it again
    got = fresh(POOL, YU_OH_G6)
    assert not got["before"]
    assert got["after"]
    assert not got["numpy_before"]
    assert got["numpy_after"]
    # multiprocessing loads with the first pool
    assert not got["mp_before"]
    assert got["mp_after"]
    assert got["pooled"] == got["serial"]


def _counting(monkeypatch, module, name) -> list:
    results = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(module, name, wrapper)
    return results


def test_every_linprog_call_goes_through_certify_linprog(monkeypatch):
    results = _counting(monkeypatch, certify, "linprog")
    with open(YU_OH_VEC) as fh:
        s = parse_vector_file(fh.read(), "numeric")
    assert certify_sic(s).status == "UNDECIDED"
    assert len(results) == 11
    assert all(res.success for res in results)


def test_every_minimize_call_goes_through_realize_minimize(monkeypatch):
    results = _counting(monkeypatch, realize, "minimize")
    realize.find_realization(Graph.complete(4), 3, restarts=5)
    assert len(results) == 5
    # perfbench's tracer reads these from every result
    assert all(res.nfev > 0 and res.nit >= 0 for res in results)
