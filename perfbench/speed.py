"""Fixed calibration kernels that gauge how fast the machine runs right now.

The vCPUs of a shared host change speed by up to 40% for tens of seconds at
a time, so the wall time of one fit says as much about the host as about
the program. The benchmark runs a kernel between operations and scales each
operation's wall time by ``kernel.ref_s / kernel seconds``, averaged over
the kernel runs on either side of it: the result is the operation's time at
the speed at which the kernel takes ``ref_s``. A set-up time is scaled
the same way by a kernel run just after the set-up, in the same fresh
process. A kernel is the benchmark's own numpy code and calls nothing of
the program, so no change to the program can move it.

Three kernels, because the host slows cache-resident arithmetic, memory
traffic and memory latency by different amounts. ``ComputeKernel`` mixes
what the small workloads' fits do: dense products of a 2000x30 matrix, a
30x30 symmetric eigendecomposition, a Python loop over small per-task
products, and plain Python arithmetic. ``MemoryKernel`` does what dominates
``large_shared`` fits, which allocate and fill hundreds of megabytes: it
copies a 128 MB array into freshly allocated memory. ``LatencyKernel``
gathers a 32 MB array at random indices; of the kernels tried, it alone
tracked set-up, which runs cold code in a fresh process (imports, and CSV
parsing on ``large_shared``).
"""
from __future__ import annotations

import time

import numpy as np


class Kernel:
    # Repetitions of ``step`` per run.
    reps: int
    # Seconds one run took on the reference machine (2-vCPU Intel Xeon,
    # numpy 2.4.6 with OpenBLAS 0.3.31), median over its fast periods.
    # Fixed, so that normalized times are comparable between commits.
    ref_s: float

    def __init__(self) -> None:
        self.rng = np.random.default_rng(20170214)  # independent of the run's seed
        self.sink = 0.0

    def step(self) -> float:
        raise NotImplementedError

    def run(self) -> float:
        """Run the kernel once; return its wall seconds."""
        start = time.perf_counter()
        for _ in range(self.reps):
            self.sink += self.step()
        return time.perf_counter() - start


class ComputeKernel(Kernel):
    reps = 48  # about 20 ms
    ref_s = 0.02

    def __init__(self) -> None:
        super().__init__()
        rng = self.rng
        self.a = rng.uniform(size=(2000, 30))
        self.b = rng.standard_normal((30, 10))
        self.y = self.a @ self.b + 0.01 * rng.standard_normal((2000, 10))
        self.s = self.a.T @ self.a / 2000.0 + np.eye(30)
        self.tasks = [rng.standard_normal((60, 27)) for _ in range(20)]
        self.w = rng.standard_normal(27)

    def step(self) -> float:
        r = self.y - self.a @ self.b
        acc = float(np.sum(r * r))
        w, v = np.linalg.eigh(self.s)
        g = self.a.T @ r
        acc += float(np.sum(np.clip(w, 1e-2, 1e2))) + float(np.trace(v.T @ (g @ g.T) @ v))
        for x in self.tasks:
            acc += float(np.sum(x.T @ (x @ self.w)))
        for i in range(1000):
            acc += (i % 7) * 0.5
        return acc


class MemoryKernel(Kernel):
    reps = 1  # about 45 ms
    ref_s = 0.045

    def __init__(self) -> None:
        super().__init__()
        self.src = self.rng.uniform(size=16 * 1024 * 1024)  # 128 MB

    def step(self) -> float:
        copy = np.array(self.src)  # fresh pages: faulted in, then filled
        return float(copy[::512].sum())


class LatencyKernel(Kernel):
    reps = 1  # about 70 ms
    ref_s = 0.07

    def __init__(self) -> None:
        super().__init__()
        self.src = self.rng.uniform(size=1 << 22)  # 32 MB
        self.order = self.rng.integers(0, 1 << 22, size=1 << 22)

    def step(self) -> float:
        return float(self.src[self.order][::4096].sum())


KERNELS = {"compute": ComputeKernel, "memory": MemoryKernel}


def normalized(walls: list[float], kernels: list[float], ref_s: float) -> list[float]:
    """Operation times at reference speed.

    ``kernels[i]`` ran just before ``walls[i]`` and ``kernels[i + 1]`` just
    after it, so there is one more kernel time than operation times.
    """
    if len(kernels) != len(walls) + 1:
        raise ValueError("need one kernel run before and one after every operation")
    return [w * 2.0 * ref_s / (kernels[i] + kernels[i + 1]) for i, w in enumerate(walls)]
