"""siccert benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload {census,certify,realize,parallel} \
        --seed N --seconds S --trace {0,1}

Run from a checkout: the program is imported from its src/ directory.
The run writes the workload's inputs, repeats whole rounds of the
workload's calls for at least S seconds (and at least two rounds),
times the set-up in fresh interpreters, checks every answer with
checks.py, and prints one JSON object as the last line of stdout.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 the layer functions are wrapped (tracing.py) and it
reports the per-layer metrics, each per round of the timed phase.  See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "siccert" / "fixtures"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

CENSUS_N = 10
REALIZE_DIM = 3
REALIZE_RESTARTS = 20
REALIZE_TOL = 1e-12
REALIZE_DELTA = 1e-6
PARALLEL_WORKERS = 2
PARALLEL_RESTARTS = 8
SETUP_REPEATS = 3
SAMPLE_LINES = 300
MIN_ROUNDS = 2


def load_program():
    """Import siccert from the checkout's src/ and nowhere else."""
    if not (SRC / "siccert" / "__init__.py").is_file():
        raise SystemExit(f"error: no siccert package under {SRC}")
    sys.path.insert(0, str(SRC))
    import siccert
    import siccert.cli

    if Path(siccert.__file__).resolve().parent != SRC / "siccert":
        raise SystemExit(f"error: siccert imported from {siccert.__file__}")
    return siccert


class Workload:
    """A fixed batch of calls, repeated as whole rounds."""

    probe_kind = "none"
    ops_per_round = 1

    def __init__(self, sc, seed: int, work: Path):
        self.sc = sc
        self.seed = seed
        self.work = work
        self.failed = 0
        self.program_s = 0.0  # summed time of the calls into siccert

    def probe_files(self) -> list[Path]:
        return []

    def load(self) -> None:
        """Read the inputs in this process (untimed, traced)."""

    def round(self) -> list[float]:
        """Run one round through timed(); return the latencies of its
        items."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def timed(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.program_s += time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, None
        dt = time.perf_counter() - t0
        self.program_s += dt
        return out, dt


def census_call(cli_main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"siccert {' '.join(argv)} exited {rc}")
    return buf.getvalue()


class Census(Workload):
    """The paper's search: CLI census with the chi > 3 filter, serial."""

    def __init__(self, *a):
        super().__init__(*a)
        self.outputs: list[str] = []

    def round(self):
        argv = ["enumerate", "--max-n", str(CENSUS_N), "--chi-gt", "3"]
        out, dt = self.timed(census_call, self.sc.cli.main, argv)
        if out is None:
            return []
        self.outputs.append(out)
        return [dt]

    def check(self):
        import checks

        checks.require(all(o == self.outputs[0] for o in self.outputs),
                       "census output differs between rounds")
        counts, filtered = checks.parse_census_table(self.outputs[0], CENSUS_N)
        checks.check_counts(counts, CENSUS_N)
        checks.check_filtered(filtered, CENSUS_N)


class Certify(Workload):
    """certify_sic on a seeded batch of exact, numeric and non-SIC sets."""

    probe_kind = "vec"

    def __init__(self, *a):
        super().__init__(*a)
        self.batch = inputs.certify_batch(self.seed, FIXTURES)
        self.ops_per_round = len(self.batch)
        self.files = []
        for i, rs in enumerate(self.batch):
            path = self.work / f"{i:02d}-{rs.name}.vec"
            path.write_text(rs.text())
            self.files.append(path)
        self.results: list[list] = [[] for _ in self.batch]

    def probe_files(self):
        return self.files

    def load(self):
        self.sets = [self.sc.parse_vector_file(p.read_text()) for p in self.files]

    def round(self):
        lat = []
        for s, res in zip(self.sets, self.results):
            cert, dt = self.timed(self.sc.certify_sic, s)
            if cert is not None:
                res.append(cert)
                lat.append(dt)
        return lat

    def check(self):
        import checks

        def key(c):
            return c.status, c.w, c.y, c.obstruction, c.diagnostics

        for rs, res in zip(self.batch, self.results):
            if not res:
                continue
            first = res[0]
            checks.require(all(key(c) == key(first) for c in res),
                           f"{rs.name}: verdict differs between rounds")
            try:
                if rs.expect == "SIC":
                    expect_y = inputs.YU_OH_Y if rs.name.startswith("yu_oh") else None
                    checks.check_sic(rs.vectors, first, expect_y)
                elif rs.expect == "NOT_SIC":
                    checks.check_not_sic(rs.vectors, first)
                else:
                    checks.check_numeric_undecided(first)
            except checks.CheckError as exc:
                raise checks.CheckError(f"{rs.name}: {exc}") from None


class Realize(Workload):
    """find_realization in d = 3, serial, one fixed seed per graph."""

    probe_kind = "graph6"

    def __init__(self, *a):
        super().__init__(*a)
        self.jobs = inputs.realize_batch(self.seed, FIXTURES)
        self.ops_per_round = len(self.jobs)
        self.file = self.work / "realize.g6"
        self.file.write_text("".join(j.graph6 + "\n" for j in self.jobs))
        self.results: list[list] = [[] for _ in self.jobs]

    def probe_files(self):
        return [self.file]

    def load(self):
        self.graphs = [self.sc.parse_graph6(line) for line in self.file.read_text().split()]

    def round(self):
        lat = []
        for g, job, res in zip(self.graphs, self.jobs, self.results):
            out, dt = self.timed(self.sc.find_realization, g, REALIZE_DIM,
                                 field=job.field, restarts=REALIZE_RESTARTS,
                                 tol=REALIZE_TOL, delta=REALIZE_DELTA,
                                 seed=job.seed)
            if out is not None:
                res.append(out)
                lat.append(dt)
        return lat

    def check(self):
        import checks

        yu = inputs.yu_oh_graph6(FIXTURES)
        checks.require(checks.nx.is_isomorphic(
            checks.decode(yu), checks.exact_graph(inputs.YU_OH)),
            "the sixth thirteen-vertex class is not the Yu-Oh graph")
        for job, res in zip(self.jobs, self.results):
            for r in res[1:]:
                checks.same_realization(res[0], r)
            if not res:
                continue
            checks.check_realization(job.graph6, REALIZE_DIM, res[0],
                                     REALIZE_TOL, REALIZE_DELTA)
            if job.graph6 == yu:
                checks.require(res[0].status == "found",
                               f"Yu-Oh not found in the {job.field} field")
            if job.graph6 == inputs.K4_G6:
                checks.require(res[0].status != "found", "K4 realized in d = 3")


class Parallel(Workload):
    """The process pools: unfiltered census with two workers written to
    a file (replayed through the parent's sink) and a two-worker
    realization search on Yu-Oh."""

    probe_kind = "graph6"
    ops_per_round = 2

    def __init__(self, *a):
        super().__init__(*a)
        self.yu_g6 = inputs.yu_oh_graph6(FIXTURES)
        self.file = self.work / "yu_oh.g6"
        self.file.write_text(self.yu_g6 + "\n")
        self.out = self.work / "census.g6"
        self.rseed = random.Random(f"parallel/{self.seed}").randrange(2 ** 30)
        self.tables: list[str] = []
        self.files: list[bytes] = []
        self.realized: list = []

    def probe_files(self):
        return [self.file]

    def load(self):
        self.graph = self.sc.parse_graph6(self.file.read_text())

    def round(self):
        argv = ["enumerate", "--max-n", str(CENSUS_N), "--workers",
                str(PARALLEL_WORKERS), "--output", str(self.out)]
        table, dt = self.timed(census_call, self.sc.cli.main, argv)
        if table is not None:
            self.tables.append(table)
            self.files.append(self.out.read_bytes())
        res, _ = self.timed(self.sc.find_realization, self.graph, REALIZE_DIM,
                            restarts=PARALLEL_RESTARTS, tol=REALIZE_TOL,
                            delta=REALIZE_DELTA, seed=self.rseed,
                            workers=PARALLEL_WORKERS)
        if res is not None:
            self.realized.append(res)
        return [] if table is None else [dt]

    def check(self):
        import checks

        if self.tables:
            checks.require(len(set(self.tables)) == 1 and len(set(self.files)) == 1,
                           "census output differs between rounds")
            counts, _ = checks.parse_census_table(self.tables[0], CENSUS_N)
            checks.check_counts(counts, CENSUS_N)
            lines = self.files[0].decode().splitlines()
            checks.require(len(lines) == sum(counts.values()),
                           "census file and count table disagree")
            checks.check_census_lines(lines, CENSUS_N,
                                      random.Random(f"sample/{self.seed}"),
                                      SAMPLE_LINES)
        if self.realized:
            for r in self.realized:
                checks.check_realization(self.yu_g6, REALIZE_DIM, r,
                                         REALIZE_TOL, REALIZE_DELTA)
            checks.require(self.realized[0].status == "found",
                           "Yu-Oh not found by the pool search")
            serial = self.sc.find_realization(
                self.graph, REALIZE_DIM, restarts=PARALLEL_RESTARTS,
                tol=REALIZE_TOL, delta=REALIZE_DELTA, seed=self.rseed)
            for r in self.realized:
                checks.same_realization(serial, r)


WORKLOADS = {"census": Census, "certify": Certify, "realize": Realize,
             "parallel": Parallel}


def measure_setup(wl: Workload) -> float:
    """Median over fresh interpreters of import plus input parsing."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           wl.probe_kind, *map(str, wl.probe_files())]
    totals = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        rec = json.loads(proc.stdout.splitlines()[-1])
        totals.append(rec["import_s"] + rec["parse_s"])
    return statistics.median(totals)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def per_layer(spec, setup_stats, stats, rounds: int) -> dict:
    out = {}
    for m in spec:
        name = m["name"]
        if name == "certify.parse_vector_file.self_s":
            value = setup_stats.get(name, 0.0)
        elif name.endswith(".task_max_s"):
            value = stats.get(name, 0.0)
        else:
            value = stats.get(name, 0.0) / rounds
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sc = load_program()
    work = HERE / "_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](sc, args.seed, work)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(str(work / "workers.jsonl"))
            tracer.install()
        wl.load()
        setup_stats = tracer.take() if tracer else {}

        round_s: list[float] = []
        items: list[float] = []
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        while len(round_s) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            t0 = wl.program_s
            items += wl.round()
            round_s.append(wl.program_s - t0)
        cpu = cpu_seconds() - cpu0
        # read before the set-up probes, so that the only reaped children
        # are the pools' workers
        rss = peak_rss_mb()
        stats = tracer.take() if tracer else {}
        stats["proc.cpu_s"] = cpu
        setup_s = 0.0 if tracer else measure_setup(wl)

        correct = True
        try:
            wl.check()
        except Exception as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        rounds = len(round_s)
        wall_s = statistics.median(round_s)
        print(f"{args.workload}: trace {args.trace}, setup_s {setup_s:.4f}, "
              f"wall_s {wall_s:.4f}, rounds "
              + " ".join(f"{t:.3f}" for t in round_s), file=sys.stderr)
        if tracer:
            metrics = per_layer(spec["per_layer"], setup_stats, stats, rounds)
        else:
            values = {"setup_s": setup_s, "wall_s": wall_s,
                      "item_p50_ms": 1000 * statistics.median(items) if items else 0.0,
                      "peak_rss_mb": rss}
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        return {"correct": correct, "attempted": rounds * wl.ops_per_round,
                "failed": wl.failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="siccert benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
