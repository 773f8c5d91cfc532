"""lpgreedy benchmark: three closed-loop workloads, one call after another.

    python3 bench/run.py --workload hull-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run sets up SETUP_SAMPLES times in a row, then repeats whole rounds of
the same operations until the next round would end past ``--seconds`` (at
least one round).  A round times each greedy run and each audit of its
report, wall and CPU time, and checks every output (see ``checks.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.
``--workload all`` runs each workload in its own process, one after
another, and prints a table.
"""

from __future__ import annotations

import os

# One process and one BLAS thread: the load stays within nproc threads and
# timings do not depend on how many cores the machine lends.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 16  # set-ups in a row before the rounds; setup_s is their median
AUDIT_REPS = 5   # audits of each report; audit_s sums the per-report medians
P_GRID = (1.5, 2.0, 3.0, 4.0)
EXACT_ALGOS = ("wcga", "wgafr", "rwrga", "rrxga", "wrga", "wdga", "gg")
BOUND_IDS = ("cor21", "thm52", "cor52", "thm72", "cor72", "prop72", "thm91")
MAX_M = 100


def derived_seeds(seed: int, count: int) -> list:
    """Input seeds drawn from the workload seed: same seed, same inputs."""
    return [int(s) % 1_000_000 for s in
            np.random.SeedSequence(seed).generate_state(count)]


def import_lpgreedy():
    """A fresh import of the package, so each set-up pays for it."""
    for name in [n for n in sys.modules
                 if n == "lpgreedy" or n.startswith("lpgreedy.")]:
        del sys.modules[name]
    lp = importlib.import_module("lpgreedy")
    importlib.import_module("lpgreedy.harness")
    return lp


@dataclass
class Round:
    """What one round measured and found."""

    run_s: float = 0.0
    audit_s: float = 0.0
    run_cpu_s: float = 0.0
    audit_cpu_s: float = 0.0
    iter_ns: list = field(default_factory=list)
    iterations: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def attempt(self, fn):
        """One operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the benchmark keeps running and reports it
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None

    def timed(self, tracer, phase: str, fn):
        """One timed operation under the tracer's root span for its phase:
        its result, wall time and CPU time."""
        c0, t0 = time.process_time(), time.perf_counter()
        with root(tracer, phase):
            out = self.attempt(fn)
        return out, time.perf_counter() - t0, time.process_time() - c0

    def run(self, tracer, fn):
        """One greedy run (or sweep), timed."""
        out, dt, cpu = self.timed(tracer, "run", fn)
        self.run_s += dt
        self.run_cpu_s += cpu
        return out

    def audited(self, tracer, fn) -> object:
        """Audit one report AUDIT_REPS times, right after the run that made
        it, so the audit samples are spread over the round like the runs."""
        samples = [self.timed(tracer, "audit", fn) for _ in range(AUDIT_REPS)]
        self.audit_s += statistics.median(s[1] for s in samples)
        self.audit_cpu_s += statistics.median(s[2] for s in samples)
        return samples[-1][0]


@dataclass
class Case:
    p: float
    D: object
    target: object


class ExactWorkload:
    """Greedy runs called through the library, each audited after it."""

    algos: tuple = ()
    rule: str = "exact_argmax"
    t: float = 1.0
    n, size, k = 64, 256, 16  # dimension, dictionary size, target sparsity
    # Inputs per p in a round.  A run's cost depends on its inputs, so a
    # round averages over several draws.
    instances: int = 2

    def setup(self, lp, seed: int) -> list:
        """``instances`` (dictionary, target) pairs for each p."""
        seeds = iter(derived_seeds(seed, 2 * self.instances * len(P_GRID)))
        cases = []
        for p in P_GRID:
            space = lp.lp_space(p, self.n)
            for _ in range(self.instances):
                D = lp.build_dictionary(space, "random_gauss", self.size,
                                        seed=next(seeds))
                target = lp.make_target(D, lp.TargetSpec(mode="a1_sparse", k=self.k,
                                                         seed=next(seeds)))
                cases.append(Case(p, D, target))
        return cases

    def round(self, lp, cases, tracer, rnd: Round) -> None:
        tau = lp.WeaknessSchedule(kind="constant", t0=self.t)
        for case in cases:
            for algo in self.algos:
                rep = rnd.run(tracer, lambda: lp.run_greedy(
                    algo, case.target.f, case.D, tau, max_m=MAX_M,
                    rule=self.rule, target=case.target))
                if rep is None:
                    continue
                rnd.iter_ns.extend(r.wall_ns for r in rep.records)
                rnd.iterations += len(rep.records)
                audit = rnd.audited(tracer, lambda: self.audit(lp, rep))
                rnd.problems += checks.check_termination(rep)
                if audit is not None:
                    rnd.problems += checks.check_audit(rep, *audit)
                rnd.problems += self.check(case, rep)

    @staticmethod
    def audit(lp, rep) -> tuple:
        conditions = lp.audit_conditions(rep)
        margins = lp.error_reduction_margins(rep)
        lp.verify_rates(rep, list(BOUND_IDS))
        return conditions, margins

    def check(self, case, rep) -> list:
        raise NotImplementedError


class HullGrid(ExactWorkload):
    algos = EXACT_ALGOS
    # wcga with unit weakness either recovers the k-sparse target in about k
    # steps or runs to the full span for ten times the cost, in about half
    # the draws.  At n = 64 one such run costs a third of a round's other
    # 27 runs, so round time swings by a quarter with the draw; at n = 32 it
    # costs a tenth, and a round fits in the run.
    n, size, k = 32, 128, 8

    def check(self, case, rep) -> list:
        out = checks.check_cor52(rep, case.p)
        if rep.algorithm == "rrxga":
            out += checks.check_thm91(rep, case.p)
        if rep.algorithm == "wcga" and case.p == 2.0:
            out += checks.check_omp_trajectory(rep, case.D.matrix,
                                               case.target.f.coords)
        return out


class WeakChebyshev(ExactWorkload):
    algos = ("wcga",)
    rule = "threshold_first"
    t = 0.5

    def check(self, case, rep) -> list:
        return (checks.check_cor21(rep, case.p, self.t)
                + checks.check_projection(rep, case.p, case.D.matrix,
                                          case.target.f.coords))


class ApproxCli:
    """The approximate class through the CLI, in process: each sweep, then
    an audit of every report it stored."""

    ps = (1.5, 3.0)
    # target seeds per sweep, drawn apart for each sweep: awcga either
    # arrives in ~8 steps or runs to the full span, and awgafr's
    # two-direction solve sometimes runs to its 60-round cap, so a round
    # averages over many draws
    instances = 3
    algos = ("awcga", "awgafr", "arwrga")
    schedules = (("pow", "err:delta=pow:0.1,1.1,eta=pow:0.1,1.1"),
                 ("auto", "err:delta=prop72auto,eta=prop72auto"))
    bounds = ("--bound", "prop72", "--bound", "thm72", "--bound", "cor72")
    # one directory per process, so two runs in one checkout never share files
    out = OUT / f"approx-cli-{os.getpid()}"

    def setup(self, lp, seed: int):
        """One dictionary per p and ``instances`` targets per sweep, built
        here as a library user would; the CLI builds them again from the
        specs."""
        per_p = 1 + self.instances * len(self.schedules)
        seeds = iter(derived_seeds(seed, per_p * len(self.ps)))
        sweeps = []
        for p in self.ps:
            dseed = next(seeds)
            D = lp.build_dictionary(lp.lp_space(p, 32), "random_gauss", 128,
                                    seed=dseed)
            for sched, errors in self.schedules:
                tseeds = [next(seeds) for _ in range(self.instances)]
                for t in tseeds:
                    lp.make_target(D, lp.TargetSpec(mode="a1_sparse", k=8, seed=t))
                sweeps.append({
                    "sched": sched, "tseeds": tseeds,
                    "dir": self.out / f"p{p:g}-{sched}",
                    "args": ["sweep", "--algos", ",".join(self.algos),
                             "--seeds", ",".join(map(str, tseeds)),
                             "--space", f"lp:p={p:g},n=32",
                             "--dict", f"random_gauss,N=128,seed={dseed}",
                             "--target", "a1,k=8,seed=0", "--errors", errors,
                             "--iters", str(MAX_M)]})
        return sweeps

    @staticmethod
    def call(lp, args: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return lp.harness.main(args)

    def stems(self, sw: dict) -> list:
        return [sw["dir"] / f"{algo}_k8_s{t}" for algo in self.algos
                for t in sw["tseeds"]]

    def sweep(self, lp, tracer, rnd: Round, sw: dict, out_dir: Path) -> None:
        args = sw["args"] + ["--out-dir", str(out_dir)]
        code = rnd.run(tracer, lambda: self.call(lp, args))
        if code is not None:
            rnd.problems += checks.check_exit_code("sweep " + out_dir.name, code)

    def round(self, lp, sweeps, tracer, rnd: Round) -> None:
        for sw in sweeps:
            self.sweep(lp, tracer, rnd, sw, sw["dir"])
            for stem in self.stems(sw):
                self.check_report(lp, tracer, rnd, sw, stem)
        # the first sweep's arwrga run on its first target, once more
        first, t = sweeps[0], sweeps[0]["tseeds"][0]
        args = first["args"].copy()
        args[args.index("--algos") + 1] = "arwrga"
        args[args.index("--seeds") + 1] = str(t)
        self.sweep(lp, tracer, rnd, {"args": args}, self.out / "repeat")
        a = first["dir"] / f"arwrga_k8_s{t}.csv"
        b = self.out / "repeat" / a.name
        if a.exists() and b.exists():
            rnd.problems += checks.check_identical(a.name, a.read_bytes(),
                                                   b.read_bytes())
        else:
            rnd.problems.append(f"{a.name}: repeated sweep wrote nothing")

    def check_report(self, lp, tracer, rnd: Round, sw: dict, stem: Path) -> None:
        try:
            rep = json.loads(stem.with_suffix(".json").read_text())
            csv_text = stem.with_suffix(".csv").read_text()
        except FileNotFoundError:
            rnd.problems.append(f"{stem.name}: no report written")
            return
        rnd.iter_ns.extend(r["wall_ns"] for r in rep["records"])
        rnd.iterations += len(rep["records"])
        args = ["audit", str(stem.with_suffix(".json")), *self.bounds]
        code = rnd.audited(tracer, lambda: self.call(lp, args))
        if code is not None:
            rnd.problems += checks.check_exit_code("audit " + stem.name, code)
        rnd.problems += checks.check_csv_rows(csv_text, rep)
        rnd.problems += checks.check_bo_slack(rep)
        if sw["sched"] == "auto":
            rnd.problems += checks.check_auto_delta(rep)


WORKLOADS = {"hull-grid": HullGrid, "weak-chebyshev": WeakChebyshev,
             "approx-cli": ApproxCli}


def root(tracer, name: str):
    return tracer.root(name) if tracer is not None else contextlib.nullcontext()


def set_up(wl, seed: int, tracer) -> tuple:
    """A fresh import of lpgreedy and every input of the workload: the
    package, the inputs and the wall time it took."""
    t0 = time.perf_counter()
    with root(tracer, "setup"):
        lp = import_lpgreedy()
        if tracer is not None:
            tracer.install()
        inputs = wl.setup(lp, seed)
    return lp, inputs, time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    wl = WORKLOADS[name]()
    tracer = spans.Tracer() if trace else None
    setup_times = []
    for _ in range(SETUP_SAMPLES):  # the rounds use the last set-up
        lp, inputs, dt = set_up(wl, seed, tracer)
        setup_times.append(dt)

    rounds = []
    start = time.perf_counter()
    try:
        while True:
            r0 = time.perf_counter()
            rnd = Round()
            wl.round(lp, inputs, tracer, rnd)
            rounds.append(rnd)
            if tracer is not None:
                tracer.add("run", "algorithms.iterations", rnd.iterations)
            now = time.perf_counter()
            if now - start + (now - r0) > seconds:
                break
    finally:
        if isinstance(wl, ApproxCli):
            shutil.rmtree(wl.out, ignore_errors=True)

    iter_ns = [x for r in rounds for x in r.iter_ns]
    problems = [p for r in rounds for p in r.problems]
    for p in dict.fromkeys(problems):
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    run_s = statistics.median(r.run_s for r in rounds)
    if trace:
        per = {"setup": SETUP_SAMPLES, "run": len(rounds),
               "audit": len(rounds) * AUDIT_REPS}
        figures = tracer.per_layer(per)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in figures.items()}
        detail = {"layers": figures, "traced_run_s": run_s,
                  "traced_audit_s": statistics.median(r.audit_s for r in rounds),
                  "accounting": tracer.accounting(per)}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "audit_s": {"value": statistics.median(r.audit_s for r in rounds),
                        "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        # per-iteration times mix per-algorithm clusters, so a percentile
        # jumps with the input mix; kept here for reading, not as a metric
        detail = {"iterations_per_round": rounds[0].iterations,
                  "iteration_ms": {f"p{q}": float(np.percentile(iter_ns, q)) / 1e6
                                   for q in (50, 90, 95, 99)}}
    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    record = dict(result, workload=name, seed=seed, seconds=seconds,
                  trace=int(trace), rounds=len(rounds),
                  round_run_s=[r.run_s for r in rounds],
                  round_audit_s=[r.audit_s for r in rounds],
                  # CPU time of the same operations, beside their wall time
                  round_run_cpu_s=[r.run_cpu_s for r in rounds],
                  round_audit_cpu_s=[r.audit_cpu_s for r in rounds],
                  setup_runs_s=setup_times, **detail)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    kind = "trace" if trace else "run"
    (OUT / "results" / f"{name}-seed{seed}-{kind}.json").write_text(
        json.dumps(record, indent=1))
    return result, record


def _unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def _print_table(title: str, result: dict) -> None:
    print(f"{title}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<44s} {m['value']:>14.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        ok = ok and result["correct"] and result["failed"] == 0
        _print_table(name, result)
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "lpgreedy" / "__init__.py").is_file():
        print(f"error: no lpgreedy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    if args.workload == "all":
        return run_all(args)
    lp = import_lpgreedy()
    if Path(lp.__file__).resolve().parent != SRC / "lpgreedy":
        print(f"error: imported lpgreedy from {lp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    _print_table(f"{args.workload} seed={args.seed}, {record['rounds']} round(s)",
                 result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
