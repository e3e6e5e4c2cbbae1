"""Per-layer tracing installed from outside the program.

Tracer.install wraps siccert's layer functions in place: a function
bound by `from .x import y` lives under its name in several modules, so
every siccert module attribute that is the original object is replaced.
A span records calls and self time (its duration minus the time of the
spans it encloses).  The pools' worker entry points are wrapped as
tasks: inside a worker each task starts from empty counters and, when
it ends, appends its busy time and counters as one JSON line to a log
that the parent merges after the timed phase.  This relies on the
pools forking, which is the default start method on Linux.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.pool
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name); calls and self_s are recorded for each
SPANS = [
    ("canon", "equitable_partition", "canon.equitable_partition"),
    ("canon", "canonicalize", "canon.canonicalize"),
    ("enumeration", "enumerate_square_free_connected",
     "enumeration.enumerate_square_free_connected"),
    ("graphs", "encode_graph6", "graphs.encode_graph6"),
    ("graphs", "is_connected", "graphs.is_connected"),
    ("graphs", "parse_graph6", "graphs.parse_graph6"),
    ("graphs", "maximal_independent_sets", "graphs.maximal_independent_sets"),
    ("graphs", "max_weight_independent_set", "graphs.max_weight_independent_set"),
    ("coloring", "chi_greater_than", "coloring.chi_greater_than"),
    ("coloring", "fractional_chromatic_number", "coloring.fractional_chromatic_number"),
    ("exact", "lp_solve_exact", "exact.lp_solve_exact"),
    ("exact", "psd_check_exact", "exact.psd_check_exact"),
    ("exact", "nullspace", "exact.nullspace"),
    ("certify", "certify_sic", "certify.certify_sic"),
    ("certify", "orthogonality_graph", "certify.orthogonality_graph"),
    ("certify", "linprog", "certify.linprog"),
    ("certify", "parse_vector_file", "certify.parse_vector_file"),
    ("realize", "minimize", "realize.minimize"),
    ("realize", "_objective", "realize.objective"),
    ("cli", "main", "cli.main"),
]
TASKS = [
    ("enumeration", "_seed_worker", "enumeration.pool"),
    ("realize", "_one_restart", "realize.pool"),
]


def _sets(out, stats):
    stats["graphs.maximal_independent_sets.sets"] += len(out)


def _minimize(out, stats):
    stats["realize.minimize.nfev"] += out.nfev
    stats["realize.minimize.nit"] += out.nit


AFTER = {
    "graphs.maximal_independent_sets": _sets,
    "realize.minimize": _minimize,
}


class Tracer:
    def __init__(self, worker_log: str):
        self.worker_log = worker_log
        self.parent = os.getpid()
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.stack: list[list[float]] = []

    # -- spans -------------------------------------------------------------

    def span(self, fn, name: str, calls_key: str | None = None,
             time_key: str | None = None):
        calls_key = calls_key or name + ".calls"
        time_key = time_key or name + ".self_s"
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                self.stats[calls_key] += 1
                self.stats[time_key] += dt - frame[0]
            if after is not None:
                after(out, self.stats)
            return out

        return wrapper

    def task(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.parent:  # serial path: not a pool task
                return fn(*args, **kwargs)
            self.stats = defaultdict(float)
            self.stack = []
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            rec = {"pool": name, "busy_s": time.perf_counter() - t0,
                   "stats": self.stats}
            with open(self.worker_log, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items()
                if k == "siccert" or k.startswith("siccert.")]
        for modname, attr, name in SPANS:
            self._replace(mods, modname, attr, self.span(
                getattr(sys.modules[f"siccert.{modname}"], attr), name))
        for modname, attr, name in TASKS:
            self._replace(mods, modname, attr, self.task(
                getattr(sys.modules[f"siccert.{modname}"], attr), name))
        graph = sys.modules["siccert.graphs"].Graph
        graph.__post_init__ = self.span(
            graph.__post_init__, "graphs.Graph",
            "graphs.Graph.constructed", "graphs.Graph.check_s")
        # time spent waiting on a pool is not self time of the caller
        pool_cls = multiprocessing.pool.Pool
        pool_cls.map = self.span(pool_cls.map, "pool.map")

    @staticmethod
    def _replace(mods, modname, attr, wrapper) -> None:
        original = wrapper.__wrapped__
        for m in mods:
            for k, v in list(vars(m).items()):
                if v is original:
                    setattr(m, k, wrapper)

    # -- results ------------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Counters so far, merged with the worker log; then reset both."""
        out = self.stats
        self.stats = defaultdict(float)
        if os.path.exists(self.worker_log):
            with open(self.worker_log) as fh:
                for line in fh:
                    rec = json.loads(line)
                    pool = rec["pool"]
                    out[pool + ".tasks"] += 1
                    out[pool + ".busy_s"] += rec["busy_s"]
                    out[pool + ".task_max_s"] = max(out[pool + ".task_max_s"],
                                                    rec["busy_s"])
                    for k, v in rec["stats"].items():
                        out[k] += v
            os.remove(self.worker_log)
        return out
