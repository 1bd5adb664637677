"""Record the reference objectives that the benchmark's check compares against.

    python3 perfbench/reference.py [workload ...]

For every input seed 0..REF_SEEDS-1 and every problem of each named
workload (all by default), runs the operation once and stores the final
objective, recomputed by ``workloads.direct_objective``, together with the
iteration counts the run reported. Entries for other workloads already in
reference.json are kept. Run it only on the commit whose results are the
reference; a later commit is judged against them.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import fetr  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def large_problem(seed: int) -> workloads.Problem:
    # the same arrays that load_manifest reads back from the CSVs, bitwise
    x, y = workloads.shared_synthetic(20000, 100, 40, seed)
    tasks = [(x, y[:, i]) for i in range(y.shape[1])]
    return workloads.Problem(key=str(seed), data=fetr.validate_dataset(tasks), tasks=tasks)


def record(name: str, objectives: dict, counts: dict) -> None:
    workload = workloads.WORKLOADS[name]
    for seed in range(workloads.REF_SEEDS):
        problems = [large_problem(seed)] if name == "large_shared" else workload.problems(fetr, seed)
        for problem in problems:
            tracer = Tracer("reference")
            with tracer.installed():
                results = workload.operation(fetr, problem)
            for key, model in results:
                w = model.weights.matrix
                objectives[key] = workloads.direct_objective(
                    problem.tasks, w, model.covariances.sigma1, model.covariances.sigma2
                )
                counts[key] = {
                    "iterations": model.report.iterations,
                    "objective_evals": model.report.objective_evals,
                }
            if tracer.counts["wsolvers.gd_iters"]:
                counts[results[0][0]]["gd_iters"] = tracer.counts["wsolvers.gd_iters"]
        print(name, seed, flush=True)


def main(names: list[str]) -> None:
    path = workloads.REFERENCE_PATH
    table = json.loads(path.read_text()) if path.exists() else {"objectives": {}, "counts": {}}
    for name in names or list(workloads.WORKLOADS):
        objectives = {k: v for k, v in table["objectives"].items() if not k.startswith(name)}
        counts = {k: v for k, v in table["counts"].items() if not k.startswith(name)}
        record(name, objectives, counts)
        table = {"objectives": dict(sorted(objectives.items())), "counts": dict(sorted(counts.items()))}
        path.write_text(json.dumps(table, indent=0) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
