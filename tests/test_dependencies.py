"""numpy is the only numerical dependency: fetr imports, fits and runs its
CLI in a fresh interpreter in which importing scipy fails."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())

import numpy as np

import fetr
import fetr.cli

try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("the scipy block did not take effect")

data = fetr.generate_synthetic(60, 4, 3, 0)
model = fetr.fit_fetr(data, fetr.FetrConfig(eta=1.0, l=1e-2, u=1e2))
assert np.isfinite(model.weights.matrix).all()
w = fetr.solve_w_closed(data, np.eye(4), np.eye(3), 1.0).matrix
assert w.shape == (4, 3)
assert fetr.fit_ridge_stl(data, 0.1).matrix.shape == (4, 3)
flipflop = fetr.fit_mtfrl_flipflop(data, 1.0, 1e-3, 1e-2, 1e2)
assert len(flipflop.report.trace) > 1
assert fetr.cli.main(["bench-w", "--n", "50", "--grid", "3x2", "--repeats", "1"]) == 0
assert "scipy" not in sys.modules, "scipy was loaded"
print("numpy only: ok")
"""


def test_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "numpy only: ok" in proc.stdout
