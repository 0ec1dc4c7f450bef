"""The library's import footprint: what a fresh process loads to use it.

The LAPACK routines the library calls (the Cholesky routines
``zposv``/``zpotrf``/``zpotri``, the least-squares fit ``dgelsd`` with its
workspace query ``dgelsd_lwork``, and the tridiagonal eigensolver
``dpteqr``) come from scipy's compiled LAPACK module,
``scipy.linalg._flapack``, loaded from its file:
importing the ``scipy.linalg`` package for them would add about 85 scipy
modules and 26 MiB of RSS to every process. ``scipy.optimize`` alone adds
about 240 modules and 21 MiB more, and the library's scalar roots run on its
own Brent port instead. A future use of either package (say
``newton_krylov`` as a fallback solver) has to import it lazily, on the path
that needs it, or these tests fail. The child also runs ``mimoslnr
selftest``, so the reference routes in ``mimoslnr.oracles`` are held to the
same rule.
"""

import json
import os
import subprocess
import sys

import pytest

import mimoslnr

CHILD = """
import json, sys
import numpy as np
from mimoslnr import (
    SystemConfig, gamma_common_r, gamma_exp_even, loading_constants, run_cdf_experiment,
    run_correlation_sweep, run_loading_sweep, solve_exponential_fixed_point,
)
from mimoslnr.cli import main

loading_constants()
run_loading_sweep(np.array([0.0, 10.0, 20.0]))
gamma_exp_even(16, 8, 0.5, 0.01)
run_correlation_sweep(16, 0.5, 10.0, np.array([0.0, 0.5]), trials_for_random_theta=1)
gamma_common_r(np.ones(8), 8, 1e-6)
solve_exponential_fixed_point(16, 0.5, np.linspace(0.0, 1.0, 8), 0.01)
run_cdf_experiment(SystemConfig.make(N=8, K=4, snr_db=10.0, trials=2))
assert main(["selftest"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# scipy.linalg imported after the library finds the extension module it
# loaded: every routine the library binds is scipy's own callable.
ROUTINES = ["zposv", "zpotrf", "zpotri", "dgelsd", "dgelsd_lwork", "dpteqr"]
SHARED_CHILD = f"""
import json
from mimoslnr import linalg
import scipy.linalg
names = {ROUTINES!r}
print(json.dumps([sorted(linalg.LAPACK_ROUTINES) == sorted(names)]
                 + [getattr(scipy.linalg.lapack, name) is getattr(linalg, name) for name in names]))
"""


def run_child(code):
    """The JSON on the last line that ``code`` prints in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(mimoslnr.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def scipy_modules():
    return run_child(CHILD)


def test_public_calls_leave_scipy_optimize_unloaded(scipy_modules):
    assert [m for m in scipy_modules if m.split(".")[:2] == ["scipy", "optimize"]] == []


def test_public_calls_load_only_the_lapack_extension(scipy_modules):
    assert "scipy" not in scipy_modules and "scipy.linalg" not in scipy_modules
    assert set(scipy_modules) <= {"scipy.linalg._flapack"}


def test_later_scipy_linalg_import_shares_the_extension():
    assert run_child(SHARED_CHILD) == [True] * (1 + len(ROUTINES))
