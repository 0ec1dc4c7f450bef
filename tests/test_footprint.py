"""The library's import footprint: what a fresh process loads to use it.

``scipy.optimize`` alone adds about 240 modules and 21 MiB of peak RSS to a
process that already holds numpy and ``scipy.linalg``, and the library's
scalar roots run on its own Brent port instead. A future use of
``scipy.optimize`` (say ``newton_krylov`` as a fallback solver) has to
import it lazily, on the path that needs it, or this test fails. The child
also runs ``mimoslnr selftest``, so the reference routes in
``mimoslnr.oracles`` are held to the same rule.
"""

import json
import os
import subprocess
import sys

import mimoslnr

CHILD = """
import json, sys
import numpy as np
from mimoslnr import (
    SystemConfig, gamma_common_r, gamma_exp_even, loading_constants, run_cdf_experiment,
    run_loading_sweep, solve_exponential_fixed_point,
)
from mimoslnr.cli import main

loading_constants()
run_loading_sweep(np.array([0.0, 10.0, 20.0]))
gamma_exp_even(16, 8, 0.5, 0.01)
gamma_common_r(np.ones(8), 8, 1e-6)
solve_exponential_fixed_point(16, 0.5, np.linspace(0.0, 1.0, 8), 0.01)
run_cdf_experiment(SystemConfig.make(N=8, K=4, snr_db=10.0, trials=2))
assert main(["selftest"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["scipy", "optimize"])))
"""


def test_public_calls_leave_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(mimoslnr.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
