"""What a result was measured on: code, libraries, BLAS threading, machine."""

import hashlib
import os
import platform
import subprocess
import sys

import blas

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def source_info(root):
    """Git commit (when the tree is a git checkout) and a hash of the sources."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "mimoslnr")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def runtime_info():
    """Library versions, BLAS build and threads, thread variables, cores."""
    import numpy
    import scipy

    build = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {"name": build.get("name"), "version": build.get("version")},
        "blas_loaded": blas.info(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }
