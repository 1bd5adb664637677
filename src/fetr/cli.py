"""Command-line front end.

Subcommands: ``train`` (fit one model and write a report bundle), ``cv``
(k-fold cross-validation over an eta grid), ``bench-w`` (time the four
weight solvers on synthetic data), ``compare`` (race coordinate
minimization against projected gradient descent and flip-flop under a
wall-clock budget).

Exit codes: 0 success, 2 argument errors, 3 data errors, 4 solver errors.
Every command is deterministic given --seed (timings excluded).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import baselines, dataio, trainer, wsolvers
from .datatypes import FetrConfig
from .exceptions import CapacityError, DataError, DomainError, SolverError
from .trainer import FetrModel

ETA_DEFAULT = 1.0
# Spectrum-bound defaults: FetrConfig's wide box for data fitting, the
# benchmark commands use the narrower synthetic-benchmark box.
TRAIN_BOUNDS = (FetrConfig.l, FetrConfig.u)
BENCH_BOUNDS = (1e-2, 1e2)


def _number(kind, low, strict=False):
    """Argument type: a finite ``kind`` that is >= ``low``, or > ``low`` if ``strict``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind.__name__}, got {text!r}")
        if not math.isfinite(value) or value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    return parse


def _separated(item, sep=",", count=None):
    """Argument type: case-folded ``text`` split on ``sep``, a tuple of ``item``-read parts."""

    def parse(text: str):
        parts = text.lower().split(sep)
        if count is not None and len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} values separated by {sep!r}, got {text!r}"
            )
        return tuple(item(part) for part in parts)

    return parse


_positive_int = _number(int, 1)
_positive_float = _number(float, 0.0, strict=True)
_nonnegative_float = _number(float, 0.0)
_parse_synthetic = _separated(_positive_int, count=3)
_parse_grid = _separated(_separated(_positive_int, "x", count=2))


def _parse_rff(text: str):
    """'P' or 'P,BANDWIDTH': even P >= 2 and bandwidth > 0, 1.0 if not given."""
    p_text, comma, bw_text = text.partition(",")
    p, bw = _positive_int(p_text), _positive_float(bw_text if comma else "1.0")
    if p % 2 != 0:
        raise argparse.ArgumentTypeError(f"P must be even, got {p}")
    return p, bw


def _parse_eta_grid(text: str):
    """Either 'a..b' (decade steps, inclusive) or an explicit comma list of distinct values."""
    if ".." not in text:
        etas = list(_separated(_positive_float)(text))
        if len(set(etas)) < len(etas):
            raise argparse.ArgumentTypeError(f"eta values must be distinct, got {text!r}")
        return etas
    lo, hi = _separated(_positive_float, "..", count=2)(text)
    k0, k1 = int(round(np.log10(lo))), int(round(np.log10(hi)))
    if hi < lo or not np.isclose([10.0**k0, 10.0**k1], [lo, hi], atol=0.0).all():
        raise argparse.ArgumentTypeError(
            f"eta range must be 'a..b' with a <= b powers of ten, got {text!r}"
        )
    return [10.0**k for k in range(k0, k1 + 1)]


def _load_data(args):
    if getattr(args, "synthetic", None) is not None:
        n, d, m = args.synthetic
        return dataio.generate_synthetic(n, d, m, args.seed)
    data = dataio.load_manifest(args.manifest)
    if getattr(args, "rff", None) is not None:
        p, bw = args.rff
        data = dataio.rff_transform(data, p, bw, args.seed, orthogonal=args.rff_orthogonal)
    return data


def _task_scores(model: FetrModel, data, kind: str):
    """Per-task and mean ``kind`` metric of the predictions X_i w_i."""
    w = model.weights.matrix
    preds = [t.x @ w[:, i] for i, t in enumerate(data.tasks)]
    return trainer.metrics([t.y for t in data.tasks], preds, kind=kind)


def cmd_train(args) -> int:
    data = _load_data(args)
    model = trainer.fit_fetr(data, args.config)
    per_task, aggregate = _task_scores(model, data, "mse")
    model = model.with_metrics(
        {"train_mse_mean": float(aggregate)}
        | {f"train_mse_task{i}": float(v) for i, v in enumerate(per_task)}
    )
    if args.out:
        dataio.write_report(model, args.out)
    print(f"train MSE (mean over tasks): {aggregate:.17g}")
    return 0


def cmd_cv(args) -> int:
    data = _load_data(args)
    etas = args.eta_grid
    scores = {eta: [] for eta in etas}  # per eta, one score per fold
    for train_data, test_data in dataio.kfold_split(data, args.folds, args.seed):
        for eta, fold_scores in scores.items():
            model = trainer.fit_fetr(train_data, dataclasses.replace(args.config, eta=eta))
            fold_scores.append(_task_scores(model, test_data, args.metric)[1])
    summary = {"metric": args.metric, "folds": args.folds, "etas": etas, "per_eta": {}}
    best = None
    for eta, fold_scores in scores.items():
        mean = float(np.mean(fold_scores))
        std = float(np.std(fold_scores))
        summary["per_eta"][f"{eta:g}"] = {"mean": mean, "std": std}
        if best is None or mean < best[1]:
            best = (eta, mean, std)
    summary["best_eta"], summary["best_mean"], summary["best_std"] = best
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
        sigma1 = dataio.random_bounded_spd(d, args.l, args.u, rng)
        sigma2 = dataio.random_bounded_spd(m, args.l, args.u, rng)
        schedule = wsolvers.step_schedule(data.gram.xtx_eigs, args.eta, args.l, args.u)

        problem = (data, sigma1, sigma2, args.eta)
        solvers = {
            "closed": lambda: wsolvers.solve_w_closed(*problem, max_system=args.closed_guard),
            "cg": lambda: wsolvers.solve_w_cg(*problem, rel_tol=1e-10)[0],
            "gd": lambda: wsolvers.solve_w_gd(*problem, schedule=schedule, rel_tol=1e-10)[0],
            "sylvester": lambda: wsolvers.solve_w_sylvester(*problem),
        }
        solutions = {}
        for method, run in solvers.items():
            try:
                run()  # warm-up excluded from timing
            except CapacityError:
                rows.append((d, m, method, "capacity", "", "", args.repeats))
                continue
            samples = []
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                solutions[method] = run().matrix
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
    return next(p for p in trace if abs(p.objective - final) <= rel * (1.0 + abs(final)))


def _compare_entry(model: FetrModel) -> dict:
    plateau = _plateau_point(model.report.trace)
    return dataio.report_fields(model.report) | {
        "evals_to_plateau": plateau.evals,
        "seconds_to_plateau": plateau.seconds,
    }


def cmd_compare(args) -> int:
    data = _load_data(args)
    budget = args.budget_seconds
    runs = {
        "fetr": lambda: trainer.fit_fetr(data, args.config, budget_seconds=budget),
        "projected_gd": lambda: baselines.fit_projected_gd(
            data, args.config, max_iters=args.pgd_max_iters, budget_seconds=budget
        ),
        "flipflop": lambda: baselines.fit_mtfrl_flipflop(
            data,
            eta=args.eta,
            epsilon=args.fudge,
            l=args.l,
            u=args.u,
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
            dataio.write_trace(model.report.trace, f"{args.out}.{name}.trace.csv")
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

    def add_common(p, bounds, eta=True):
        if eta:
            p.add_argument("--eta", type=float, default=ETA_DEFAULT)
        p.add_argument("--l", type=float, default=bounds[0], help="lower spectrum bound")
        p.add_argument("--u", type=float, default=bounds[1], help="upper spectrum bound")
        p.add_argument("--seed", type=_number(int, 0), default=0)
        p.set_defaults(subparser=p)  # reports a config error with this command's usage

    p_train = sub.add_parser("train", help="fit one model and write a report bundle")
    p_train.add_argument("--manifest", required=True)
    add_common(p_train, TRAIN_BOUNDS)
    p_train.add_argument("--rff", type=_parse_rff, default=None, metavar="P,BANDWIDTH")
    p_train.add_argument("--rff-orthogonal", action="store_true")
    p_train.add_argument("--out", default=None, help="report bundle path prefix")
    p_train.add_argument("--max-outer", dest="max_outer_iters", type=int,
                         default=FetrConfig.max_outer_iters)
    p_train.add_argument("--rel-obj-tol", type=float, default=FetrConfig.rel_obj_tol)
    p_train.set_defaults(func=cmd_train)

    # no abbreviations: they would take --eta for --eta-grid
    p_cv = sub.add_parser(
        "cv", help="k-fold cross-validation over an eta grid", allow_abbrev=False
    )
    p_cv.add_argument("--manifest", required=True)
    add_common(p_cv, TRAIN_BOUNDS, eta=False)  # cv fits each --eta-grid value
    p_cv.add_argument("--folds", type=_number(int, 2), default=10)
    p_cv.add_argument("--eta-grid", type=_parse_eta_grid, default=_parse_eta_grid("1e-5..1e3"))
    p_cv.add_argument("--metric", choices=["mse", "nmse"], default="nmse")
    p_cv.add_argument("--rff", type=_parse_rff, default=None, metavar="P,BANDWIDTH")
    p_cv.add_argument("--rff-orthogonal", action="store_true")
    p_cv.add_argument("--out", default=None, help="also write the summary JSON here")
    p_cv.set_defaults(func=cmd_cv)

    p_bench = sub.add_parser("bench-w", help="time the four weight solvers")
    p_bench.add_argument("--n", type=_positive_int, default=10_000)
    p_bench.add_argument("--grid", type=_parse_grid, default=_parse_grid("10x5,20x10,40x20"))
    p_bench.add_argument("--repeats", type=_positive_int, default=10)
    add_common(p_bench, BENCH_BOUNDS)
    p_bench.add_argument("--closed-guard", type=_positive_int, default=wsolvers.CLOSED_FORM_GUARD)
    p_bench.add_argument("--out", default=None, help="timings CSV path")
    p_bench.set_defaults(func=cmd_bench_wsolvers)

    p_cmp = sub.add_parser("compare", help="race the optimizers under a time budget")
    src = p_cmp.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifest")
    src.add_argument("--synthetic", type=_parse_synthetic, metavar="N,D,M")
    add_common(p_cmp, BENCH_BOUNDS)
    p_cmp.add_argument("--budget-seconds", type=_nonnegative_float, default=60.0)
    p_cmp.add_argument("--fudge", type=_nonnegative_float, default=1e-3, help="flip-flop epsilon")
    p_cmp.add_argument("--pgd-max-iters", type=_positive_int, default=baselines.PGD_MAX_ITERS)
    p_cmp.add_argument("--out", default=None, help="trace/summary path prefix")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the config checks every value it holds, so a bad one exits 2 before any data is read;
    # cv has no --eta and sets the config's eta per grid value
    given = {k: getattr(args, k) for k in ("eta", "max_outer_iters", "rel_obj_tol") if k in args}
    try:
        args.config = FetrConfig(**{"eta": ETA_DEFAULT, **given}, l=args.l, u=args.u)
    except DomainError as exc:
        args.subparser.error(str(exc))
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
