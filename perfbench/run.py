"""Benchmark of fetr: closed-loop fits on four seeded workloads.

Run from the root of a fetr checkout:

    python3 perfbench/run.py --workload crit5_shared --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 16 --trace 0

One caller starts each fit only after the previous one returned (a closed
loop with one client). With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer metrics from spans that
the benchmark wraps around the program's public functions. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("crit5_shared", "large_shared", "school_pertask", "baselines_race")
# Fresh processes per run that each time set-up.
SETUP_CHILDREN = 5
CHILD_TIMEOUT_S = 170


def import_fetr():
    sys.path.insert(0, str(SRC))
    import fetr

    return fetr


def run_child(args: list[str]) -> str:
    """Run this script in a fresh process and return its last output line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


class Ledger:
    """Outcome of every attempted operation; failures are kept and printed."""

    def __init__(self, workload):
        import workloads

        self.workload = workload
        self.references = workloads.load_references()
        self.check = workloads.check
        self.attempted = 0
        self.failures: list[str] = []
        self.excesses: list[float] = []

    @property
    def worst_excess(self) -> float:
        return max((e for e in self.excesses if not math.isnan(e)), default=math.nan)

    def timed(self, fetr, problem) -> float:
        """Run one operation, check it, and return its wall seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            results = self.workload.operation(fetr, problem)
        except Exception as exc:  # a raising operation is a failed sample, not a crash
            elapsed = time.perf_counter() - start
            self.failures.append(f"{self.workload.name}/{problem.key}: raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - start
        tasks = self.workload.check_tasks(problem)
        for key, model in results:
            excess, problems = self.check(tasks, key, model, self.references)
            self.failures.extend(problems)
            self.excesses.append(excess)
        return elapsed


def setup(name: str, seed: int, tracer=None):
    """Import numpy and fetr and build the inputs: what every run pays first.

    In a ``--setup-only`` child, whose time is one set-up sample, nothing
    before this call imports numpy.
    """
    start = time.perf_counter()
    import workloads

    fetr = import_fetr()
    workload = workloads.WORKLOADS[name]
    with tracer.installed() if tracer else contextlib.nullcontext():
        problems = workload.problems(fetr, seed)
    setup_s = time.perf_counter() - start
    return fetr, problems, setup_s, Ledger(workload)


def blas_record() -> list[dict]:
    """Vendor, version and thread count of every BLAS loaded in this process."""
    import ctypes

    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "blas" in path.lower() and ".so" in path:
                paths.add(path)
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                    entry["threads"] = threads()
        out.append(entry)
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    from workloads import input_seed

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "seed": seed,
        "input_seed": input_seed(seed),
    }


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 11) / (n - 1)


def passes(seconds: float):
    """Pass numbers until ``seconds`` have elapsed; each pass runs every problem once."""
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        yield index
        index += 1


def measure(args) -> tuple[dict, list[tuple], Ledger]:
    """End-to-end metrics; returns (metrics, printed rows, ledger)."""
    from speed import KERNELS, LatencyKernel, normalized

    # (set-up seconds, latency kernel seconds just after it in the same process)
    children = [
        json.loads(run_child(["--workload", args.workload, "--seed", str(args.seed), "--setup-only"]))
        for _ in range(SETUP_CHILDREN)
    ]
    setups = [s * LatencyKernel.ref_s / k for s, k in children]
    setup_walls = [s for s, _ in children]
    fetr, problems, _, ledger = setup(args.workload, args.seed)
    first = ledger.timed(fetr, problems[0])

    kernel = KERNELS[ledger.workload.kernel]()
    kernel.run()  # warm-up
    walls, kernels = [], [kernel.run()]
    for _ in passes(args.seconds):
        for problem in problems:
            walls.append(ledger.timed(fetr, problem))
            kernels.append(kernel.run())
    warm = normalized(walls, kernels, kernel.ref_s)
    scale_note = f"at the {ledger.workload.kernel} kernel's reference speed"

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setups),
        "fit_s": statistics.median(warm),
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"setup_s": "s", "fit_s": "s", "peak_rss_mb": "MB"}
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"median of {len(setups)} fresh processes, at the latency kernel's reference speed"),
        ("setup_wall_s", statistics.median(setup_walls), "s", f"median of {len(setups)} fresh processes, as measured"),
        ("fit_s", metrics["fit_s"], "s", f"median of {len(warm)} warm operations, {scale_note}"),
        ("fit_wall_s", statistics.median(walls), "s", f"median of {len(walls)} warm operations, as measured"),
        ("speed", kernel.ref_s / statistics.median(kernels), "ratio",
         f"{ledger.workload.kernel} kernel reference time / median of {len(kernels)} kernel runs"),
    ]
    tail_value = tail(warm)
    if tail_value is None:
        rows.append(("fit_s_tail", float("nan"), "s", f"undefined: {len(warm)} samples, needs 11"))
    else:
        rows.append(("fit_s_tail", tail_value[0], "s",
                     f"p{tail_value[1]:.1f} of {len(warm)} warm operations, 10 beyond, {scale_note}"))
    rows += [
        ("first_fit_s", first, "s", "1 sample: the first operation of the run's process, as measured"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of the run's process"),
    ]
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, rows, ledger


PER_LAYER_UNITS = {
    "dataio.load_manifest.s": "s",
    "datatypes.validate.s": "s",
    "datatypes.validate.calls": "count",
    "wsolvers.gram.s": "s",
    "wsolvers.solve_w.s": "s",
    "wsolvers.solve_w.calls": "count",
    "wsolvers.gd_iters": "count",
    "covariance.sigma1.s": "s",
    "covariance.sigma2.s": "s",
    "linalg.sym_eig.s": "s",
    "linalg.sym_eig.calls": "count",
    "trainer.objective.s": "s",
    "trainer.objective.calls": "count",
    "trainer.sweeps": "count",
    "trainer.fit.self_s": "s",
    "baselines.pgd.s": "s",
    "baselines.pgd.iters": "count",
    "baselines.pgd.accept_ratio": "ratio",
    "baselines.project.s": "s",
    "baselines.flipflop.s": "s",
    "baselines.flipflop.iters": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def measure_traced(args) -> tuple[dict, list[tuple], Ledger]:
    """Per-layer metrics per traced operation; passes alternate traced/untraced."""
    from tracing import Tracer

    origin = time.perf_counter()
    setup_tracer = Tracer("setup")
    fetr, problems, _, ledger = setup(args.workload, args.seed, setup_tracer)
    ledger.timed(fetr, problems[0])  # warm-up, untimed

    tracer = Tracer("ops")
    traced, untraced = [], []
    for index in passes(args.seconds):
        for problem in problems:
            if index % 2 == 0:
                tracer.op = len(traced)
                with tracer.installed():
                    traced.append(ledger.timed(fetr, problem))
            else:
                untraced.append(ledger.timed(fetr, problem))
    if not untraced:  # at least one untraced pass, for the overhead
        for problem in problems:
            untraced.append(ledger.timed(fetr, problem))

    n = len(traced)
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    trials = counts["baselines.pgd.trials"]
    values = {
        "dataio.load_manifest.s": setup_tracer.self_s["dataio.load_manifest"],
        "datatypes.validate.s": s["datatypes.validate"] / n,
        "datatypes.validate.calls": calls["datatypes.validate"] / n,
        "wsolvers.gram.s": s["wsolvers.gram"] / n,
        "wsolvers.solve_w.s": s["wsolvers.solve_w"] / n,
        "wsolvers.solve_w.calls": calls["wsolvers.solve_w"] / n,
        "wsolvers.gd_iters": counts["wsolvers.gd_iters"] / n,
        "covariance.sigma1.s": s["covariance.sigma1"] / n,
        "covariance.sigma2.s": s["covariance.sigma2"] / n,
        "linalg.sym_eig.s": s["linalg.sym_eig"] / n,
        "linalg.sym_eig.calls": calls["linalg.sym_eig"] / n,
        "trainer.objective.s": s["trainer.objective"] / n,
        "trainer.objective.calls": calls["trainer.objective"] / n,
        "trainer.sweeps": counts["trainer.sweeps"] / n,
        "trainer.fit.self_s": s["trainer.fit"] / n,
        "baselines.pgd.s": s["baselines.pgd"] / n,
        "baselines.pgd.iters": counts["baselines.pgd.iters"] / n,
        "baselines.pgd.accept_ratio": counts["baselines.pgd.iters"] / trials if trials else 0.0,
        "baselines.project.s": s["baselines.project"] / n,
        "baselines.flipflop.s": s["baselines.flipflop"] / n,
        "baselines.flipflop.iters": counts["baselines.flipflop.iters"] / n,
        "trace.coverage": sum(s.values()) / sum(traced),
        "trace.overhead": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
    spans_path.unlink(missing_ok=True)
    setup_tracer.write(spans_path, origin)
    tracer.write(spans_path, origin)

    notes = {
        "dataio.load_manifest.s": "once, in set-up",
        "trace.coverage": f"over {n} traced operations",
        "trace.overhead": f"median of {n} traced / median of {len(untraced)} untraced, minus 1",
    }
    rows = [(k, v, PER_LAYER_UNITS[k], notes.get(k, f"per operation, mean of {n} traced"))
            for k, v in values.items()]
    for name in sorted(set(setup_tracer.missing + tracer.missing)):
        print(f"note: {name} not found; its layer reads 0")
    print(f"spans written to {spans_path.relative_to(ROOT)} ({len(setup_tracer.spans) + len(tracer.spans)} spans)")
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}, rows, ledger


def run_workload(args) -> int:
    if args.workload == "large_shared":
        run_child(["--workload", args.workload, "--seed", str(args.seed), "--prepare"])
    metrics, rows, ledger = measure_traced(args) if args.trace else measure(args)
    from workloads import EXCESS_TOL

    workload = ledger.workload
    failed = len(ledger.failures)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'objective_excess':<28} {ledger.worst_excess:>14.3g} {'':<6} "
          f"worst over {ledger.attempted} operations, fails above {EXCESS_TOL:g}")
    print(f"  {'fail_frac':<28} {failed / ledger.attempted:>14.6g} {'':<6} "
          f"{failed} failed of {ledger.attempted} attempted")
    for message in ledger.failures:
        print(f"  FAILED {message}")
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload.name, "trace": args.trace, "env": env,
              "rows": [list(r) for r in rows], "failures": ledger.failures,
              "worst_excess": ledger.worst_excess, "attempted": ledger.attempted}
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every table, then a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fetr" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fetr sources at {SRC / 'fetr'}; run from a fetr checkout")
    if args.workload == "all":
        return run_all(args)
    if args.prepare:
        from workloads import prepare_large

        prepare_large(args.seed)
        print("prepared")
        return 0
    if args.setup_only:
        setup_s = setup(args.workload, args.seed)[2]
        from speed import LatencyKernel

        kernel = LatencyKernel()
        kernel.run()  # warm-up
        kernel_s = statistics.median(kernel.run() for _ in range(3))
        print(json.dumps([setup_s, kernel_s]))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
