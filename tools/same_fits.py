"""Run a fixed set of 114 fits and record what each one did, bitwise.

    python tools/same_fits.py --out LEDGER.json
    python tools/same_fits.py --compare OLD.json NEW.json

Run it from any directory; it imports fetr from this checkout's ``src/`` and
the input generators and ``direct_objective`` of ``perfbench/workloads.py``,
which it only reads. The fits, all at that module's eta, ``ETA = 1``:

- ``crit5/s``: ``fit_fetr`` on ``shared_synthetic(2000, 30, 10, s)``, s = 0-63,
  at [1e-2, 1e2];
- ``school/s``: ``fit_fetr`` on ``school_like(s)``, s = 0-2, at [1e-2, 1e2],
  capped at 3 sweeps of at most 2000 CG steps per W block;
- ``large/s``: ``fit_fetr`` on ``shared_synthetic(20000, 100, 40, s)``, s = 0-1,
  at [1e-2, 1e2], capped at 12 sweeps;
- ``pgd/s``, ``flipflop-1e-3/s`` and ``flipflop-0/s``: projected GD (40
  iterations) and flip-flop at epsilon 1e-3 and 0 on crit5 seeds 0-3;
- ``shared_small/[l,u]`` and ``pertask_small/[l,u]``: ``fit_fetr`` on the test
  fixtures at [1e-3, 1e3], [1e-2, 1e2], [1e-6, 1e6] and [1e-9, 1e3];
- ``synthetic20/[l,u]/s``: ``fit_fetr`` on ``generate_synthetic(20, 10, 3, s)``,
  s = 0-7, at [1e-2, 1e10], [1e-3, 1e9] and [1e-6, 1e6];
- ``rff/0``: ``fit_fetr`` on ``rff_transform(generate_synthetic(2000, 10, 10, 0),
  256, 1.0, 0)`` at [1e-2, 1e2].

Per fit the ledger holds the outcome ("ok", or the type and message of the
exception raised), ``iterations``, ``objective_evals``, ``converged``,
``events``, ``w_iterations``, the final objective, ``direct_objective`` (the
objective recomputed from the fit's task arrays, its W and its dense
precisions, whose ``slogdet`` loses the digits of eigenvalues far below the
largest, so at u/l of 1e12 it can differ from the final objective by 1e-6) and
SHA-256 digests of W, both dense precisions and the (iteration, block,
objective, evals) trace.
Times are left out, so two runs on one host agree in every field; digests of
floating-point results can differ between hosts and BLAS builds.
``--compare`` names the entry keys that only one ledger holds, as a ledger
written before a key was added lacks it, and compares each fit on the keys and
digests both of its entries hold. It prints one line per fit that differs or
that only one ledger has and a summary line, and exits 1 if there is any.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import fetr  # noqa: E402
from workloads import ETA, direct_objective, school_like, shared_synthetic  # noqa: E402

BOX = dict(eta=ETA, l=1e-2, u=1e2)
FIXTURE_BOXES = ((1e-3, 1e3), (1e-2, 1e2), (1e-6, 1e6), (1e-9, 1e3))
SYNTHETIC20_BOXES = ((1e-2, 1e10), (1e-3, 1e9), (1e-6, 1e6))


def _shared(n, d, m, seed):
    x, y = shared_synthetic(n, d, m, seed)
    return fetr.validate_dataset([(x, y[:, i]) for i in range(m)])


def _crit5(seed):
    return _shared(2000, 30, 10, seed)


def _fetr(**config):
    return lambda data: fetr.fit_fetr(data, fetr.FetrConfig(**config))


def _cases() -> dict:
    """Each fit by name, as a pair of calls: one that builds its dataset and one
    that fits a dataset and returns the model."""
    cases = {}
    for s in range(64):
        cases[f"crit5/{s}"] = (lambda s=s: _crit5(s), _fetr(**BOX))
    for s in range(3):
        cases[f"school/{s}"] = (
            lambda s=s: fetr.validate_dataset(school_like(s)),
            _fetr(**BOX, max_outer_iters=3, gd_max_iters=2000),
        )
    for s in range(2):
        cases[f"large/{s}"] = (lambda s=s: _shared(20000, 100, 40, s), _fetr(**BOX, max_outer_iters=12))
    for s in range(4):
        cases[f"pgd/{s}"] = (
            lambda s=s: _crit5(s),
            lambda data: fetr.fit_projected_gd(data, fetr.FetrConfig(**BOX), max_iters=40),
        )
        for tag, eps in (("1e-3", 1e-3), ("0", 0.0)):
            cases[f"flipflop-{tag}/{s}"] = (
                lambda s=s: _crit5(s),
                lambda data, eps=eps: fetr.fit_mtfrl_flipflop(data, ETA, eps, BOX["l"], BOX["u"]),
            )
    for fixture in ("shared_small", "pertask_small"):
        manifest = ROOT / "tests" / "data" / fixture / "manifest.json"
        for l, u in FIXTURE_BOXES:
            cases[f"{fixture}/[{l:g},{u:g}]"] = (
                lambda manifest=manifest: fetr.load_manifest(manifest), _fetr(eta=ETA, l=l, u=u)
            )
    for l, u in SYNTHETIC20_BOXES:
        for s in range(8):
            cases[f"synthetic20/[{l:g},{u:g}]/{s}"] = (
                lambda s=s: fetr.generate_synthetic(20, 10, 3, s), _fetr(eta=ETA, l=l, u=u)
            )
    cases["rff/0"] = (
        lambda: fetr.rff_transform(fetr.generate_synthetic(2000, 10, 10, 0), 256, 1.0, 0),
        _fetr(**BOX),
    )
    return cases


CASES = _cases()


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _array_digest(a) -> str:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return _digest(repr(a.shape).encode() + a.tobytes())


def record(data, model) -> dict:
    """The ledger entry of one model fitted to ``data``."""
    report, w = model.report, model.weights.matrix
    sigma1, sigma2 = np.asarray(model.covariances.sigma1), np.asarray(model.covariances.sigma2)
    trace = [(int(p.iteration), str(p.block), float(p.objective), int(p.evals)) for p in report.trace]
    return {
        "outcome": "ok",
        "iterations": int(report.iterations),
        "objective_evals": int(report.objective_evals),
        "converged": bool(report.converged),
        "events": [str(e) for e in report.events],
        "w_iterations": [int(i) for i in report.w_iterations],
        "final_objective": float(report.final_objective),
        "direct_objective": direct_objective([(t.x, t.y) for t in data.tasks], w, sigma1, sigma2),
        "digests": {
            "W": _array_digest(w),
            "sigma1": _array_digest(sigma1),
            "sigma2": _array_digest(sigma2),
            "trace": _digest(repr(trace).encode()),
        },
    }


def run(names=None) -> dict:
    """Fit the named cases, all by default, and return their entries in order."""
    out = {}
    for name in CASES if names is None else names:
        make_data, fit = CASES[name]
        try:
            data = make_data()
            out[name] = record(data, fit(data))
        except fetr.FetrError as exc:
            out[name] = {"outcome": f"{type(exc).__name__}: {exc}"}
    return out


def differences(old: dict, new: dict) -> list[str]:
    """One line per case that only one side has, or whose entries differ under
    a key or digest both of them hold; a key only one entry has is no difference."""
    lines = []
    for name in list(old) + [n for n in new if n not in old]:
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'new' if a is None else 'old'}")
            continue
        changed = [
            f"{key} {a[key]!r} -> {b[key]!r}"
            for key in sorted(set(a) & set(b))
            if key != "digests" and a[key] != b[key]
        ]
        da, db = a.get("digests", {}), b.get("digests", {})
        moved = [key for key in sorted(set(da) & set(db)) if da[key] != db[key]]
        if moved:
            changed.append("digests differ: " + ", ".join(moved))
        if changed:
            lines.append(f"{name}: " + "; ".join(changed))
    return lines


def one_sided_keys(old: dict, new: dict) -> list[str]:
    """One line per side naming the entry keys and digests that only its ledger holds."""
    def keys(cases):
        return {k for e in cases.values() for k in e} | {
            f"digests.{k}" for e in cases.values() for k in e.get("digests", {})
        }

    ka, kb = keys(old), keys(new)
    return [f"keys only in {side}: {', '.join(sorted(only))}"
            for side, only in (("old", ka - kb), ("new", kb - ka)) if only]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the ledger of all fits here")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two ledgers")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text())["cases"] for p in args.compare)
        lines, total = differences(old, new), len(set(old) | set(new))
        for line in one_sided_keys(old, new) + lines:
            print(line)
        print(f"{total - len(lines)} of {total} cases bitwise identical, {len(lines)} differ")
        return 1 if lines else 0
    start = time.perf_counter()
    cases = run()
    ledger = {"numpy": np.__version__, "cases": cases}
    Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"{len(cases)} fits in {time.perf_counter() - start:.1f} s, written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
