"""One BLAS thread around the library's kernels (:func:`one_blas_thread`).

numpy and scipy each load an OpenBLAS with its own thread pool. At this
library's sizes a second thread costs more than it saves, and a threaded
``zpotrf`` rounds differently for each thread count.

numpy's pool is mapped at import; scipy's only when ``linalg`` first loads
LAPACK, which may happen inside a decorated call. :func:`find_new_pools`
then sets the new pool to one thread at once and restores it with the
others when the outermost call returns, so that first LAPACK call runs on
one thread like every later one.
"""

import ctypes
import functools
import threading

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
            "openblas_{}_num_threads64_", "openblas_{}_num_threads")

# The pools are process-wide, so this state is too: only the outermost
# decorated call in the process saves, sets and restores them. ``_saved``
# holds one count per pool in ``_pools`` while a call is running.
_lock = threading.Lock()
_depth = 0
_saved = []
_pools = None
_paths = set()


def _bind(lib):
    for name in _SYMBOLS:
        get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _scan():
    """``(get_threads, set_threads)`` of each OpenBLAS mapped since the last scan.

    The caller holds ``_lock``.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
        paths -= _paths
        found = [_bind(ctypes.CDLL(path)) for path in sorted(paths)]
    except OSError:  # no /proc, or a mapping that will not load: change nothing
        return []
    _paths.update(paths)
    return [pair for pair in found if pair is not None]


def pools():
    """``(get_threads, set_threads)`` of each loaded OpenBLAS, found on first use."""
    global _pools
    if _pools is None:
        with _lock:
            if _pools is None:
                _pools = _scan()
    return _pools


def find_new_pools():
    """Add the OpenBLAS pools mapped since :func:`pools` first looked.

    Inside a decorated call, each new pool is set to one thread at once and
    gets its count back with the others when the outermost call returns.
    """
    found = pools()
    with _lock:
        for get, set_ in _scan():
            if _depth:
                _saved.append(get())
                set_(1)
            found.append((get, set_))


def one_blas_thread(fn):
    """Run ``fn`` with every OpenBLAS pool at one thread, then restore the caller's count.

    Nested and concurrent calls only step a counter. Without OpenBLAS this does nothing.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _depth
        # The list itself, so a pool that find_new_pools adds mid-call is restored too.
        found = pools()
        with _lock:
            if _depth == 0:
                _saved[:] = [get() for get, _ in found]
                for _, set_ in found:
                    set_(1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for (_, set_), n in zip(found, _saved):
                        set_(n)

    return wrapper
