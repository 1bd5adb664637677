"""Run a fixed set of 89 fits and record what each one did, bitwise.

    python tools/same_fits.py --out LEDGER.json
    python tools/same_fits.py --compare OLD.json NEW.json

Run it from any directory; it imports fetr from this checkout's ``src/`` and
the input generators of ``perfbench/workloads.py``, which it only reads. The
fits, all at eta = 1:

- ``crit5/s``: ``fit_fetr`` on ``shared_synthetic(2000, 30, 10, s)``, s = 0-63,
  at [1e-2, 1e2];
- ``school/s``: ``fit_fetr`` on ``school_like(s)``, s = 0-2, at [1e-2, 1e2],
  capped at 3 sweeps of at most 2000 CG steps per W block;
- ``large/s``: ``fit_fetr`` on ``shared_synthetic(20000, 100, 40, s)``, s = 0-1,
  at [1e-2, 1e2], capped at 12 sweeps;
- ``pgd/s``, ``flipflop-1e-3/s`` and ``flipflop-0/s``: projected GD (40
  iterations) and flip-flop at epsilon 1e-3 and 0 on crit5 seeds 0-3;
- ``shared_small/[l,u]`` and ``pertask_small/[l,u]``: ``fit_fetr`` on the test
  fixtures at [1e-3, 1e3], [1e-2, 1e2], [1e-6, 1e6] and [1e-9, 1e3].

Per fit the ledger holds the outcome ("ok", or the type and message of the
exception raised), ``iterations``, ``objective_evals``, ``converged``,
``events``, ``w_iterations``, the final objective and SHA-256 digests of W,
both dense precisions and the (iteration, block, objective, evals) trace.
Times are left out, so two runs on one host agree in every field; digests of
floating-point results can differ between hosts and BLAS builds.
``--compare`` prints one line per fit that differs and a summary line, and
exits 1 if any fit differs.
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
from workloads import school_like, shared_synthetic  # noqa: E402

BOX = dict(eta=1.0, l=1e-2, u=1e2)
FIXTURE_BOXES = ((1e-3, 1e3), (1e-2, 1e2), (1e-6, 1e6), (1e-9, 1e3))


def _shared(n, d, m, seed):
    x, y = shared_synthetic(n, d, m, seed)
    return fetr.validate_dataset([(x, y[:, i]) for i in range(m)])


def _crit5(seed):
    return _shared(2000, 30, 10, seed)


def _cases() -> dict:
    """Each fit by name, as a call that returns its model."""
    cases = {}
    for s in range(64):
        cases[f"crit5/{s}"] = lambda s=s: fetr.fit_fetr(_crit5(s), fetr.FetrConfig(**BOX))
    for s in range(3):
        cfg = fetr.FetrConfig(**BOX, max_outer_iters=3, gd_max_iters=2000)
        cases[f"school/{s}"] = lambda s=s, cfg=cfg: fetr.fit_fetr(
            fetr.validate_dataset(school_like(s)), cfg
        )
    for s in range(2):
        cfg = fetr.FetrConfig(**BOX, max_outer_iters=12)
        cases[f"large/{s}"] = lambda s=s, cfg=cfg: fetr.fit_fetr(_shared(20000, 100, 40, s), cfg)
    for s in range(4):
        cases[f"pgd/{s}"] = lambda s=s: fetr.fit_projected_gd(
            _crit5(s), fetr.FetrConfig(**BOX), max_iters=40
        )
        for tag, eps in (("1e-3", 1e-3), ("0", 0.0)):
            cases[f"flipflop-{tag}/{s}"] = lambda s=s, eps=eps: fetr.fit_mtfrl_flipflop(
                _crit5(s), BOX["eta"], eps, BOX["l"], BOX["u"]
            )
    for fixture in ("shared_small", "pertask_small"):
        manifest = ROOT / "tests" / "data" / fixture / "manifest.json"
        for l, u in FIXTURE_BOXES:
            cases[f"{fixture}/[{l:g},{u:g}]"] = lambda manifest=manifest, l=l, u=u: fetr.fit_fetr(
                fetr.load_manifest(manifest), fetr.FetrConfig(eta=1.0, l=l, u=u)
            )
    return cases


CASES = _cases()


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _array_digest(a) -> str:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return _digest(repr(a.shape).encode() + a.tobytes())


def record(model) -> dict:
    """The ledger entry of one fitted model."""
    report = model.report
    trace = [(int(p.iteration), str(p.block), float(p.objective), int(p.evals)) for p in report.trace]
    return {
        "outcome": "ok",
        "iterations": int(report.iterations),
        "objective_evals": int(report.objective_evals),
        "converged": bool(report.converged),
        "events": [str(e) for e in report.events],
        "w_iterations": [int(i) for i in report.w_iterations],
        "final_objective": float(report.final_objective),
        "digests": {
            "W": _array_digest(model.weights.matrix),
            "sigma1": _array_digest(model.covariances.sigma1),
            "sigma2": _array_digest(model.covariances.sigma2),
            "trace": _digest(repr(trace).encode()),
        },
    }


def run(names=None) -> dict:
    """Fit the named cases, all by default, and return their entries in order."""
    out = {}
    for name in CASES if names is None else names:
        try:
            out[name] = record(CASES[name]())
        except fetr.FetrError as exc:
            out[name] = {"outcome": f"{type(exc).__name__}: {exc}"}
    return out


def differences(old: dict, new: dict) -> list[str]:
    """One line per case whose entries differ or that only one side has."""
    lines = []
    for name in list(old) + [n for n in new if n not in old]:
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{name}: only in {'new' if a is None else 'old'}")
            continue
        changed = [
            f"{key} {a.get(key)!r} -> {b.get(key)!r}"
            for key in sorted(set(a) | set(b))
            if key != "digests" and a.get(key) != b.get(key)
        ]
        da, db = a.get("digests", {}), b.get("digests", {})
        moved = [key for key in sorted(set(da) | set(db)) if da.get(key) != db.get(key)]
        if moved:
            changed.append("digests differ: " + ", ".join(moved))
        lines.append(f"{name}: " + "; ".join(changed))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write the ledger of all fits here")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two ledgers")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text())["cases"] for p in args.compare)
        lines, total = differences(old, new), len(set(old) | set(new))
        for line in lines:
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
