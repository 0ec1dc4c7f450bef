"""The library's import footprint: what a fresh process loads to use it.

The LAPACK routines the library calls (the Cholesky routines
``zposv``/``zpotrf``/``zpotri``, the least-squares fit ``dgelsd`` with its
workspace query ``dgelsd_lwork``, and the tridiagonal eigensolver
``dpteqr``) come from scipy's compiled LAPACK module,
``scipy.linalg._flapack``, loaded from its file at the first call that
needs one (the optimal-loading path never does): importing the
``scipy.linalg`` package for them would add about 85 scipy modules and
26 MiB of RSS to every process. ``scipy.optimize`` alone adds about 240
modules and 21 MiB more, and the library's scalar roots run on its
own safeguarded Newton instead. A future use of either package (say
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

# Every routine the library binds is scipy's own callable, whichever of the
# two loads the extension module first: a later scipy.linalg import finds
# the one the library loaded, and a library that loads LAPACK after
# scipy.linalg (LAPACK loads at its first use) reuses scipy's.
ROUTINES = ["zposv", "zpotrf", "zpotri", "dgelsd", "dgelsd_lwork", "dpteqr"]
SHARED_CHILD = f"""
import json
from mimoslnr import linalg
if LIBRARY_FIRST:
    linalg._bind_lapack()
import scipy.linalg
names = {ROUTINES!r}
print(json.dumps([sorted(linalg.LAPACK_ROUTINES) == sorted(names)]
                 + [getattr(scipy.linalg.lapack, name) is getattr(linalg, name) for name in names]))
"""

# The optimal loading versus SNR is scalar work: a process that computes it
# loads no LAPACK, so neither the extension module nor scipy's OpenBLAS
# (a library in scipy's own directories, unlike numpy's copy). The first
# call that needs LAPACK loads the module.
LOADING_CHILD = """
import json, os, sys
import numpy as np
from mimoslnr import compute_metrics, loading_constants, optimal_x_exact, run_loading_sweep
from mimoslnr.cli import main

def scipy_openblas():
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh}
    return sorted(p for p in paths if "openblas" in os.path.basename(p)
                  and os.path.basename(os.path.dirname(p)).split(".")[0] == "scipy")

loading_constants()
run_loading_sweep(np.array([0.0, 10.0, 20.0]))
optimal_x_exact(0.1)
assert main(["loading", "--snr-db", "10"]) == 0
before = ["scipy.linalg._flapack" in sys.modules, scipy_openblas()]
compute_metrics(np.eye(4, 2, dtype=complex), 0.1)
print(json.dumps(before + ["scipy.linalg._flapack" in sys.modules]))
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
    code = SHARED_CHILD.replace("LIBRARY_FIRST", "True")
    assert run_child(code) == [True] * (1 + len(ROUTINES))


def test_lapack_loaded_after_scipy_linalg_reuses_its_extension():
    code = SHARED_CHILD.replace("LIBRARY_FIRST", "False")
    assert run_child(code) == [True] * (1 + len(ROUTINES))


def test_optimal_loading_path_loads_no_lapack():
    flapack_before, scipy_openblas, flapack_after = run_child(LOADING_CHILD)
    assert not flapack_before
    assert flapack_after
    if scipy_openblas is None:
        pytest.skip("no /proc/self/maps to read the mapped libraries from")
    assert scipy_openblas == []
