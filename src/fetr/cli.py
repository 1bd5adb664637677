"""Command-line front end.

Subcommands: ``train`` (fit one model and write a report bundle), ``cv``
(k-fold cross-validation over an eta grid), ``bench-w`` (time the three
weight solvers on synthetic data), ``compare`` (race coordinate
minimization against projected gradient descent and flip-flop under a
wall-clock budget).

Exit codes: 0 success, 2 argument errors, 3 data errors, 4 solver errors.
Every command is deterministic given --seed (timings excluded).
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import baselines, dataio, trainer, wsolvers
from .datatypes import FetrConfig, WSolver
from .exceptions import DataError, SolverError
from .trainer import FetrModel

ETA_DEFAULT = 1.0
# Spectrum-bound defaults: wide for data fitting, the benchmark commands
# use the narrower synthetic-benchmark box.
TRAIN_BOUNDS = (1e-3, 1e3)
BENCH_BOUNDS = (1e-2, 1e2)


def _parse_rff(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        parts.append("1.0")  # default bandwidth
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"--rff must be 'p,bandwidth', got {text!r}")
    try:
        p, bw = int(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"--rff must be 'p,bandwidth', got {text!r}")
    if p < 2 or p % 2 != 0 or bw <= 0:
        raise argparse.ArgumentTypeError("--rff needs even p >= 2 and bandwidth > 0")
    return p, bw


def _parse_synthetic(text: str):
    try:
        n, d, m = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--synthetic must be 'n,d,m', got {text!r}")
    if min(n, d, m) < 1:
        raise argparse.ArgumentTypeError("--synthetic sizes must be >= 1")
    return n, d, m


def _parse_grid(text: str):
    pairs = []
    for token in text.split(","):
        try:
            d_str, m_str = token.lower().split("x")
            pairs.append((int(d_str), int(m_str)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"--grid must look like '10x5,20x10', got {text!r}"
            )
    return pairs


def _parse_eta_grid(text: str):
    """Either 'a..b' (decade steps, inclusive) or an explicit comma list."""
    if ".." in text:
        lo_str, hi_str = text.split("..", 1)
        lo, hi = float(lo_str), float(hi_str)
        if lo <= 0 or hi < lo:
            raise argparse.ArgumentTypeError(f"bad eta range {text!r}")
        k0 = round(np.log10(lo))
        k1 = round(np.log10(hi))
        if not (np.isclose(10.0 ** k0, lo) and np.isclose(10.0 ** k1, hi)):
            raise argparse.ArgumentTypeError(
                f"eta range endpoints must be powers of ten, got {text!r}"
            )
        return [10.0 ** k for k in range(int(k0), int(k1) + 1)]
    values = [float(v) for v in text.split(",")]
    if any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("eta values must be > 0")
    return values


def _load_data(args):
    if getattr(args, "synthetic", None) is not None:
        n, d, m = args.synthetic
        return dataio.generate_synthetic(n, d, m, args.seed)
    data = dataio.load_manifest(args.manifest)
    if getattr(args, "rff", None) is not None:
        p, bw = args.rff
        data = dataio.rff_transform(data, p, bw, args.seed, orthogonal=args.rff_orthogonal)
    return data


def _config(args, eta: float, **stopping) -> FetrConfig:
    return FetrConfig(
        eta=eta, l=args.l, u=args.u, w_solver=args.w_solver, seed=args.seed, **stopping
    )


def cmd_train(args) -> int:
    data = _load_data(args)
    config = _config(
        args, args.eta, max_outer_iters=args.max_outer, rel_obj_tol=args.rel_obj_tol
    )
    model = trainer.fit_fetr(data, config)
    preds = [trainer.predict(model.weights, t.x) for t in data.tasks]
    per_task, aggregate = trainer.metrics(
        [t.y for t in data.tasks], [p[:, i] for i, p in enumerate(preds)], kind="mse"
    )
    model = model.with_metrics(
        {"train_mse_mean": float(aggregate)}
        | {f"train_mse_task{i}": float(v) for i, v in enumerate(per_task)}
    )
    if args.out:
        dataio.write_report(model.report, model, args.out)
    print(f"train MSE (mean over tasks): {aggregate:.17g}")
    return 0


def cmd_cv(args) -> int:
    data = _load_data(args)
    splits = dataio.kfold_split(data, args.folds, args.seed)
    etas = args.eta_grid
    summary = {"metric": args.metric, "folds": args.folds, "etas": etas, "per_eta": {}}
    best = None
    for eta in etas:
        config = _config(args, eta)
        fold_scores = []
        for train_data, test_data in splits:
            model = trainer.fit_fetr(train_data, config)
            preds = [trainer.predict(model.weights, t.x) for t in test_data.tasks]
            _, aggregate = trainer.metrics(
                [t.y for t in test_data.tasks],
                [p[:, i] for i, p in enumerate(preds)],
                kind=args.metric,
            )
            fold_scores.append(aggregate)
        mean = float(np.mean(fold_scores))
        std = float(np.std(fold_scores))
        summary["per_eta"][f"{eta:g}"] = {"mean": mean, "std": std}
        if best is None or mean < best[1]:
            best = (eta, mean, std)
    summary["best_eta"] = best[0]
    summary["best_mean"] = best[1]
    summary["best_std"] = best[2]
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out:
        dataio.write_text(args.out, text + "\n")
    print(text)
    return 0


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def cmd_bench_wsolvers(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    for d, m in args.grid:
        data = dataio.generate_synthetic(args.n, d, m, args.seed)
        gram = wsolvers.GramCache(data)
        sigma1 = dataio.random_bounded_spd(d, args.l, args.u, rng)
        sigma2 = dataio.random_bounded_spd(m, args.l, args.u, rng)
        schedule = wsolvers.step_schedule(gram.xtx_eigs, args.eta, args.l, args.u)

        def run(method):
            if method == "closed":
                return wsolvers.solve_w_closed(
                    gram, sigma1, sigma2, args.eta, max_system=args.closed_guard
                ).matrix
            if method == "sylvester":
                return wsolvers.solve_w_sylvester(gram, sigma1, sigma2, args.eta).matrix
            w, _ = wsolvers.solve_w_gd(
                gram, sigma1, sigma2, args.eta, schedule=schedule, rel_tol=1e-10
            )
            return w.matrix

        solutions = {}
        for method in ("closed", "gd", "sylvester"):
            if method == "closed" and d * m > args.closed_guard:
                rows.append((d, m, method, "capacity", "", "", args.repeats))
                continue
            run(method)  # warm-up excluded from timing
            samples = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                solutions[method] = run(method)
                samples.append(time.perf_counter() - t0)
            rows.append(
                (d, m, method, "ok", float(np.mean(samples)), float(np.var(samples)), args.repeats)
            )
        names = sorted(solutions)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                gap = _relative_gap(solutions[a], solutions[b])
                if gap > 1e-6:
                    raise SolverError(
                        f"solvers {a} and {b} disagree at d={d}, m={m}: "
                        f"relative gap {gap:.3e}"
                    )
        print(f"d={d} m={m}: solvers agree ({', '.join(names)})")

    if args.out:
        dataio.write_text(
            args.out,
            "d,m,solver,status,mean_seconds,var_seconds,repeats\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in rows),
        )
    return 0


def _plateau_point(trace, rel: float = 1e-4):
    """First trace point within ``rel`` relative of the final objective."""
    final = trace[-1].objective
    threshold = rel * (1.0 + abs(final))
    for point in trace:
        if abs(point.objective - final) <= threshold:
            return point
    return trace[-1]


def _compare_entry(model: FetrModel) -> dict:
    trace = model.report.trace
    plateau = _plateau_point(trace)
    return {
        "final_objective": trace[-1].objective,
        "iterations": model.report.iterations,
        "converged": model.report.converged,
        "objective_evals": model.report.objective_evals,
        "evals_to_plateau": plateau.evals,
        "seconds_to_plateau": plateau.seconds,
        "events": list(model.report.events),
    }


def cmd_compare(args) -> int:
    data = _load_data(args)
    config = _config(args, args.eta)
    budget = args.budget_seconds
    runs = {
        "fetr": lambda: trainer.fit_fetr(data, config, budget_seconds=budget),
        "projected_gd": lambda: baselines.fit_projected_gd(
            data, config, max_iters=args.pgd_max_iters, budget_seconds=budget
        ),
        "flipflop": lambda: baselines.fit_mtfrl_flipflop(
            data,
            eta=args.eta,
            epsilon=args.fudge,
            l=args.l,
            u=args.u,
            w_solver=args.w_solver,
            budget_seconds=budget,
        ),
    }
    summary = {
        "budget_seconds": budget,
        "config": {"eta": args.eta, "l": args.l, "u": args.u, "seed": args.seed,
                   "fudge": args.fudge},
        "methods": {},
    }
    for name, fit in runs.items():
        model = fit()
        summary["methods"][name] = _compare_entry(model)
        if args.out:
            dataio.write_text(
                f"{args.out}.{name}.trace.csv",
                "seconds,objective,evals\n"
                + "".join(
                    f"{p.seconds:.6f},{dataio.FLOAT_FORMAT.format(p.objective)},{p.evals}\n"
                    for p in model.report.trace
                ),
            )
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out:
        dataio.write_text(f"{args.out}.summary.json", text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fetr",
        description="Multitask regression with bounded-spectrum precision learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bounds):
        p.add_argument("--eta", type=float, default=ETA_DEFAULT)
        p.add_argument("--l", type=float, default=bounds[0], help="lower spectrum bound")
        p.add_argument("--u", type=float, default=bounds[1], help="upper spectrum bound")
        p.add_argument(
            "--w-solver",
            choices=[s.value for s in WSolver],
            default=WSolver.AUTO.value,
        )
        p.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser("train", help="fit one model and write a report bundle")
    p_train.add_argument("--manifest", required=True)
    add_common(p_train, TRAIN_BOUNDS)
    p_train.add_argument("--rff", type=_parse_rff, default=None, metavar="P,BANDWIDTH")
    p_train.add_argument("--rff-orthogonal", action="store_true")
    p_train.add_argument("--out", default=None, help="report bundle path prefix")
    p_train.add_argument("--max-outer", type=int, default=100)
    p_train.add_argument("--rel-obj-tol", type=float, default=1e-8)
    p_train.set_defaults(func=cmd_train)

    p_cv = sub.add_parser("cv", help="k-fold cross-validation over an eta grid")
    p_cv.add_argument("--manifest", required=True)
    add_common(p_cv, TRAIN_BOUNDS)
    p_cv.add_argument("--folds", type=int, default=10)
    p_cv.add_argument("--eta-grid", type=_parse_eta_grid, default=_parse_eta_grid("1e-5..1e3"))
    p_cv.add_argument("--metric", choices=["mse", "nmse"], default="nmse")
    p_cv.add_argument("--rff", type=_parse_rff, default=None, metavar="P,BANDWIDTH")
    p_cv.add_argument("--rff-orthogonal", action="store_true")
    p_cv.add_argument("--out", default=None, help="also write the summary JSON here")
    p_cv.set_defaults(func=cmd_cv)

    p_bench = sub.add_parser("bench-w", help="time the three weight solvers")
    p_bench.add_argument("--n", type=int, default=10_000)
    p_bench.add_argument("--grid", type=_parse_grid, default=_parse_grid("10x5,20x10,40x20"))
    p_bench.add_argument("--repeats", type=int, default=10)
    add_common(p_bench, BENCH_BOUNDS)
    p_bench.add_argument("--closed-guard", type=int, default=wsolvers.CLOSED_FORM_GUARD)
    p_bench.add_argument("--out", default=None, help="timings CSV path")
    p_bench.set_defaults(func=cmd_bench_wsolvers)

    p_cmp = sub.add_parser("compare", help="race the optimizers under a time budget")
    src = p_cmp.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest")
    src.add_argument("--synthetic", type=_parse_synthetic, metavar="N,D,M")
    add_common(p_cmp, BENCH_BOUNDS)
    p_cmp.add_argument("--budget-seconds", type=float, default=60.0)
    p_cmp.add_argument("--fudge", type=float, default=1e-3, help="flip-flop epsilon")
    p_cmp.add_argument("--pgd-max-iters", type=int, default=5000)
    p_cmp.add_argument("--out", default=None, help="trace/summary path prefix")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"fetr: data error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"fetr: solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
