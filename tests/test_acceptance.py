"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single PASS/FAIL line with
the measured quantities (run pytest with -s to stream them). Criterion 10
needs externally supplied robot-arm CSVs and skips itself when the data
directory is absent.
"""
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import fetr
from fetr import (
    FetrConfig,
    brute_force_min_matching,
    clamped_spectrum,
    cov_subobjective,
    fetr_objective,
    fit_fetr,
    flip_flop_step,
    generate_synthetic,
    grad_h,
    h_value,
    matching_weight,
    mtfrl_objective_unconstrained,
    oracle_cov_minimize,
    solve_w_closed,
    solve_w_gd,
    solve_w_sylvester,
    step_schedule,
    validate_dataset,
)
from fetr.baselines import objective_gradients
from fetr.cli import main
from fetr.dataio import draw_rff_frequencies, read_csv_matrix, rff_features

from conftest import random_spd, rel_gap


def report_line(num, ok, name, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {status} {name}: {detail}")


@pytest.fixture(scope="module")
def solver_runs():
    """50 random shared-instance problems solved by all three strategies."""
    master = np.random.default_rng(20240607)
    l, u = 0.01, 100.0
    runs = []
    start = time.perf_counter()
    for _ in range(50):
        d = int(master.integers(2, 13))
        m = int(master.integers(2, 13))
        eta = float(master.choice([0.1, 1.0, 10.0]))
        x = master.uniform(size=(200, d))
        w0 = master.standard_normal((d, m))
        y = x @ w0 + 0.01 * master.standard_normal((200, m))
        data = validate_dataset([(x, y[:, i]) for i in range(m)])
        sigma1 = random_spd(master, d, l, u)
        sigma2 = random_spd(master, m, l, u)
        sched = step_schedule(data.gram.xtx_eigs, eta, l, u)

        w_closed = solve_w_closed(data, sigma1, sigma2, eta).matrix
        w_sylv = solve_w_sylvester(data, sigma1, sigma2, eta).matrix
        sq_errors = []
        w_gd, _ = solve_w_gd(
            data,
            sigma1,
            sigma2,
            eta,
            sched,
            rel_tol=1e-10,
            callback=lambda w: sq_errors.append(float(np.linalg.norm(w - w_closed) ** 2)),
        )
        runs.append(
            {
                "dims": (d, m, eta),
                "closed": w_closed,
                "sylvester": w_sylv,
                "gd": w_gd.matrix,
                "gamma": sched.gamma,
                "err0_sq": float(np.linalg.norm(w_closed) ** 2),
                "sq_errors": sq_errors,
            }
        )
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_01_solver_equivalence(solver_runs):
    runs, elapsed = solver_runs
    worst = 0.0
    for run in runs:
        worst = max(
            worst,
            rel_gap(run["closed"], run["sylvester"]),
            rel_gap(run["closed"], run["gd"]),
            rel_gap(run["sylvester"], run["gd"]),
        )
    ok = worst <= 1e-6 and elapsed < 30.0
    report_line(
        1,
        ok,
        "solver equivalence",
        f"worst pairwise relative gap {worst:.3e} over {len(runs)} problems "
        f"in {elapsed:.1f}s",
    )
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_02_gd_contraction(solver_runs):
    runs, _ = solver_runs
    checked = 0
    worst_margin = np.inf
    for run in runs:
        err0_sq = run["err0_sq"]
        log_gamma = np.log(run["gamma"])
        if err0_sq == 0.0:
            continue
        for t, err_sq in enumerate(run["sq_errors"], start=1):
            if err_sq == 0.0:
                continue
            margin = (np.log(err0_sq) + t * log_gamma + 1e-9) - np.log(err_sq)
            worst_margin = min(worst_margin, margin)
            checked += 1
    ok = worst_margin >= 0.0
    report_line(
        2,
        ok,
        "gradient-descent contraction bound",
        f"{checked} per-step bounds checked, tightest log-margin {worst_margin:.3e}",
    )
    assert ok


def test_criterion_03_covariance_vs_oracle():
    rng = np.random.default_rng(11)
    l, u = 0.1, 10.0
    start = time.perf_counter()
    instances = {}  # k -> (S, c, closed-form value) of each instance, in draw order
    for idx in range(30):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        w = rng.standard_normal((d, m))
        if idx % 2 == 0:
            sigma_other = random_spd(rng, m, l, u)
            s = w @ sigma_other @ w.T
            c = float(m)
        else:
            sigma_other = random_spd(rng, d, l, u)
            s = w.T @ sigma_other @ w
            c = float(d)
        closed = clamped_spectrum(s, c, l, u)[2]
        closed_val = cov_subobjective(closed, s, c)
        k = s.shape[0]
        instances.setdefault(k, []).append((s, c, closed_val))
        for _ in range(1000):
            candidate = random_spd(rng, k, l, u)
            assert closed_val <= cov_subobjective(candidate, s, c) + 1e-9
    # one oracle call per k on the stack of its instances, each instance's
    # iterates bitwise those of its own call
    worst_oracle_gap = -np.inf
    for group in instances.values():
        ss, cs, closed_vals = zip(*group)
        for s, c, closed_val, oracle in zip(ss, cs, closed_vals, oracle_cov_minimize(np.stack(ss), cs, l, u)):
            worst_oracle_gap = max(worst_oracle_gap, closed_val - cov_subobjective(oracle, s, c))
    elapsed = time.perf_counter() - start
    ok = worst_oracle_gap <= 1e-6 and elapsed < 60.0
    report_line(
        3,
        ok,
        "covariance closed form vs oracle",
        f"worst (closed - oracle) objective gap {worst_oracle_gap:.3e}, "
        f"30 instances plus 1000 random candidates each in {elapsed:.1f}s",
    )
    assert worst_oracle_gap <= 1e-6
    assert elapsed < 60.0


def test_criterion_04_minimum_weight_matching():
    rng = np.random.default_rng(7)
    rematch_checked = 0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        lam = np.sort(rng.uniform(0.05, 5.0, size=k))[::-1]
        nu = np.sort(rng.uniform(0.0, 5.0, size=k))
        inst = brute_force_min_matching(lam, nu)
        assert np.isclose(inst.weight, float(lam @ nu), rtol=1e-12, atol=1e-12)

        if k >= 2:
            perm = list(rng.permutation(k))
            inversions = [
                (i, j) for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
            ]
            if inversions:
                i, j = inversions[int(rng.integers(len(inversions)))]
                swapped = perm.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert (
                    matching_weight(lam, nu, swapped)
                    <= matching_weight(lam, nu, perm) + 1e-12
                )
                rematch_checked += 1
    report_line(
        4,
        True,
        "minimum-weight matching",
        f"100 brute-force enumerations matched the sorted-opposite pairing; "
        f"{rematch_checked} inverse-pair rematches never increased weight",
    )


def test_criterion_05_monotone_convergence():
    data = generate_synthetic(2000, 30, 10, seed=0)
    config = FetrConfig(eta=1.0, l=0.01, u=100.0, rel_obj_tol=1e-8)
    start = time.perf_counter()
    model = fit_fetr(data, config)
    elapsed = time.perf_counter() - start

    objs = [p.objective for p in model.report.trace]
    monotone = all(
        cur <= prev + 1e-10 * (1 + abs(prev)) for prev, cur in zip(objs, objs[1:])
    )
    converged = bool(model.report.converged)
    iterations = int(model.report.iterations)
    ok = monotone and converged and iterations <= 10 and elapsed < 60.0
    report_line(
        5,
        ok,
        "monotone convergence",
        f"monotone={monotone}, converged={converged} in "
        f"{iterations} outer iterations (limit 10), {elapsed:.1f}s",
    )
    assert monotone
    assert elapsed < 60.0
    # The d > m geometry leaves a 20-dimensional upper-clamped eigenspace of
    # the feature-precision block whose orientation co-rotates with W. Along
    # those rotations plain exact block minimization shrinks the objective
    # gap by only 0.91-0.95 per sweep and needs 72 outer iterations here.
    # The trainer's Sigma1 block ends with a Newton step on the objective
    # with Sigma1 eliminated, which resolves those rotations in a few
    # sweeps.
    assert converged and iterations <= 10, (
        f"converged={converged} after {iterations} outer iterations; a slow "
        "co-rotation of W and Sigma1 is not being resolved (see comment above)"
    )


def test_criterion_06_ill_posedness():
    rng = np.random.default_rng(3)
    # (a) one raw flip-flop step without fudge collapses the spectrum
    w = rng.standard_normal((3, 2))
    s1, _ = flip_flop_step(w, np.eye(3), np.eye(2), epsilon=0.0)
    min_eig = float(np.linalg.eigvalsh(s1)[0])

    # (b) the unconstrained objective dives below any threshold along
    # scaled-identity precision matrices
    x = rng.uniform(size=(5, 30))
    data = validate_dataset([(x, np.zeros(5)) for _ in range(10)])
    w0 = np.zeros((30, 10))
    values = [
        mtfrl_objective_unconstrained(
            w0, (10.0**k) * np.eye(30), (10.0**k) * np.eye(10), data, eta=1000.0
        )
        for k in range(9)
    ]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    ok = min_eig <= 1e-10 and decreasing and values[-1] < -1e6
    report_line(
        6,
        ok,
        "ill-posedness reproductions",
        f"raw flip-flop min eigenvalue {min_eig:.2e}; unconstrained objective "
        f"strictly decreasing to {values[-1]:.3e}",
    )
    assert min_eig <= 1e-10
    assert decreasing
    assert values[-1] < -1e6


def test_criterion_07_head_to_head(tmp_path):
    out = tmp_path / "race"
    code = main(
        [
            "compare",
            "--synthetic",
            "2000,30,10",
            "--eta",
            "1.0",
            "--budget-seconds",
            "20",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "race.summary.json").read_text())
    methods = summary["methods"]
    fetr_final = methods["fetr"]["final_objective"]
    pgd_final = methods["projected_gd"]["final_objective"]
    ff_final = methods["flipflop"]["final_objective"]
    fetr_evals = methods["fetr"]["evals_to_plateau"]
    pgd_evals = methods["projected_gd"]["evals_to_plateau"]
    beats = fetr_final <= pgd_final + 1e-6 and fetr_final <= ff_final + 1e-6
    faster = fetr_evals < pgd_evals
    ok = beats and faster
    report_line(
        7,
        ok,
        "head-to-head comparison",
        f"final objectives fetr={fetr_final:.6g}, projected_gd={pgd_final:.6g}, "
        f"flipflop={ff_final:.6g}; evals to 1e-4 plateau fetr={fetr_evals} vs "
        f"projected_gd={pgd_evals}",
    )
    assert beats
    assert faster


def test_criterion_08_gradient_correctness():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        n = int(rng.integers(10, 25))
        eta = float(rng.choice([0.1, 1.0, 10.0]))
        l, u = 0.5, 2.0
        x = rng.uniform(size=(n, d))
        y = rng.standard_normal((n, m))
        data = validate_dataset([(x, y[:, i]) for i in range(m)])
        sigma1 = random_spd(rng, d, l, u)
        sigma2 = random_spd(rng, m, l, u)
        w = rng.standard_normal((d, m))

        step = 1e-6

        def central(f, matrix):
            g = np.zeros_like(matrix)
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    up = matrix.copy()
                    dn = matrix.copy()
                    up[i, j] += step
                    dn[i, j] -= step
                    g[i, j] = (f(up) - f(dn)) / (2 * step)
            return g

        gw, g1, g2 = objective_gradients(w, sigma1, sigma2, data, eta)
        fd_w = central(lambda v: h_value(v, data, sigma1, sigma2, eta), w)
        fd_s1 = central(lambda v: fetr_objective(w, v, sigma2, data, eta), sigma1)
        fd_s2 = central(lambda v: fetr_objective(w, sigma1, v, data, eta), sigma2)
        worst = max(
            worst,
            rel_gap(grad_h(w, data, sigma1, sigma2, eta), fd_w),
            rel_gap(gw, fd_w),
            rel_gap(g1, fd_s1),
            rel_gap(g2, fd_s2),
        )
    ok = worst <= 1e-5
    report_line(
        8,
        ok,
        "gradient correctness",
        f"worst relative gap to central finite differences {worst:.3e} "
        "over 20 feasible points",
    )
    assert ok


def test_criterion_09_rff_kernel():
    rng = np.random.default_rng(29)
    d, p, bandwidth = 5, 4096, 1.0
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(size=d)
        y = rng.uniform(size=d)
        target = float(np.exp(-np.sum((x - y) ** 2) / (2 * bandwidth**2)))
        estimates = []
        for seed in range(20):  # Monte-Carlo average over independent draws
            omega, bias = draw_rff_frequencies(d, p, bandwidth, seed=seed, orthogonal=True)
            zx = rff_features(x[None, :], omega, bias)[0]
            zy = rff_features(y[None, :], omega, bias)[0]
            estimates.append(float(zx @ zy))
        worst = max(worst, abs(float(np.mean(estimates)) - target))
    ok = worst <= 0.02
    report_line(
        9,
        ok,
        "random Fourier feature kernel",
        f"worst |estimate - RBF| {worst:.4f} over 10 pairs at p={p}",
    )
    assert ok


SARCOS_REFERENCE_MSE = (31.08, 22.68, 9.08, 9.73, 0.13, 0.83, 0.43)


def test_criterion_10_sarcos_linear():
    data_dir = Path(os.environ.get("FETR_SARCOS_DIR", "data/sarcos"))
    needed = [
        data_dir / "sarcos_train_features.csv",
        data_dir / "sarcos_train_targets.csv",
        data_dir / "sarcos_test_features.csv",
        data_dir / "sarcos_test_targets.csv",
    ]
    if not all(p.exists() for p in needed):
        print("[ACCEPTANCE 10] SKIP robot-arm benchmark: data not present "
              f"(looked in {data_dir})")
        pytest.skip(f"robot-arm CSVs not found under {data_dir}")

    x_train = read_csv_matrix(needed[0])
    y_train = read_csv_matrix(needed[1])
    x_test = read_csv_matrix(needed[2])
    y_test = read_csv_matrix(needed[3])
    m = y_train.shape[1]

    rng = np.random.default_rng(0)
    perm = rng.permutation(x_train.shape[0])
    dev_idx, val_idx = perm[:31138], perm[31138 : 31138 + 13346]

    def as_dataset(x, y):
        return validate_dataset([(x, y[:, i]) for i in range(m)])

    best = None
    for k in range(-5, 4):
        eta = 10.0**k
        config = FetrConfig(eta=eta, l=1e-3, u=1e3, max_outer_iters=200)
        model = fit_fetr(as_dataset(x_train[dev_idx], y_train[dev_idx]), config)
        preds = x_train[val_idx] @ model.weights.matrix
        _, val_mse = fetr.metrics(y_train[val_idx], preds, kind="mse")
        if best is None or val_mse < best[0]:
            best = (val_mse, eta, model)
    _, best_eta, model = best
    per_task, _ = fetr.metrics(y_test, x_test @ model.weights.matrix, kind="mse")
    within = [
        abs(got - ref) <= 0.05 * ref for got, ref in zip(per_task, SARCOS_REFERENCE_MSE)
    ]
    ok = all(within)
    report_line(
        10,
        ok,
        "robot-arm linear benchmark",
        f"eta={best_eta:g}, per-task test MSE {np.round(per_task, 2).tolist()} vs "
        f"reference {list(SARCOS_REFERENCE_MSE)} (tolerance 5%)",
    )
    assert ok
