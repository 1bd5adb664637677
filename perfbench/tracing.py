"""Spans around the program's public functions, installed from outside it.

Each wrapper records (name, start, end, parent) in memory. A span's self
time is its duration minus the time covered by its child spans; the self
times of all spans inside an operation add up to the part of the
operation's wall time that the spans cover.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from collections import defaultdict


def _sweeps(model):
    return {"trainer.sweeps": model.report.iterations}


def _pgd(model):
    # every evaluation after the initial one is a line-search trial
    return {
        "baselines.pgd.iters": model.report.iterations,
        "baselines.pgd.trials": model.report.objective_evals - 1,
    }


def _flipflop(model):
    return {"baselines.flipflop.iters": model.report.iterations}


# (span name, module that defines the function, attribute, counts taken
# from its result). The wrapper replaces the attribute in every fetr module
# that holds the same function object, because callers look the name up in
# their own namespace.
SPANNED = (
    ("trainer.fit", "trainer", "fit_fetr", _sweeps),
    ("baselines.pgd", "baselines", "fit_projected_gd", _pgd),
    ("baselines.flipflop", "baselines", "fit_mtfrl_flipflop", _flipflop),
    ("dataio.load_manifest", "dataio", "load_manifest", None),
    ("datatypes.validate", "datatypes", "validate_dataset", None),
    ("trainer.objective", "trainer", "fetr_objective", None),
    ("wsolvers.solve_w", "wsolvers", "solve_w", None),
    ("covariance.sigma1", "covariance", "minimize_sigma1", None),
    ("covariance.sigma2", "covariance", "minimize_sigma2", None),
    ("linalg.sym_eig", "linalg", "sym_eig", None),
    ("baselines.project", "linalg", "project_bounded_spd", None),
)
MODULES = ("linalg", "datatypes", "dataio", "wsolvers", "covariance", "trainer", "baselines")


class Tracer:
    def __init__(self, phase: str):
        self.phase = phase
        self.op = -1  # index of the operation the next spans belong to
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._open: list[int] = []
        self._child_s: list[float] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([self.op, name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)
        self._child_s.append(0.0)

    def end(self) -> None:
        now = time.perf_counter()
        span = self.spans[self._open.pop()]
        span[3] = now
        duration = now - span[2]
        self.self_s[span[1]] += duration - self._child_s.pop()
        self.calls[span[1]] += 1
        if self._child_s:
            self._child_s[-1] += duration

    def _wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.missing = []
        modules = [importlib.import_module(f"fetr.{m}") for m in MODULES]
        modules.append(importlib.import_module("fetr"))
        for name, home, attr, counter in SPANNED:
            original = getattr(importlib.import_module(f"fetr.{home}"), attr, None)
            if original is None:
                self.missing.append(f"fetr.{home}.{attr}")
                continue
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

        wsolvers = importlib.import_module("fetr.wsolvers")
        gram = getattr(wsolvers, "GramCache", None)
        if gram is None:
            self.missing.append("fetr.wsolvers.GramCache")
        else:
            # wrap the constructor: solvers test isinstance(data, GramCache)
            self._patch(gram, "__init__", self._wrap("wsolvers.gram", gram.__init__))

        gd = getattr(wsolvers, "solve_w_gd", None)
        if gd is None:
            self.missing.append("fetr.wsolvers.solve_w_gd")
        else:
            # solve_w drops the step count that solve_w_gd returns; no span
            # here, so gradient descent stays inside the solve_w span
            @functools.wraps(gd)
            def counting_gd(*args, **kwargs):
                w, iters = gd(*args, **kwargs)
                self.counts["wsolvers.gd_iters"] += iters
                return w, iters

            self._patch(wsolvers, "solve_w_gd", counting_gd)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path, origin: float) -> None:
        """Append the spans as CSV rows, times in seconds from ``origin``."""
        new = not path.exists()
        with open(path, "a", newline="") as fh:
            out = csv.writer(fh)
            if new:
                out.writerow(["phase", "op", "id", "name", "start_s", "end_s", "parent"])
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                out.writerow([self.phase, op, i, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent])
