"""The BLAS libraries loaded in this process, found from its memory map.

numpy and scipy each bundle their own OpenBLAS, so a process holds two
thread pools. Their exported functions report and set each pool's threads;
symbol names carry the bundle's prefix and, for 64-bit integer builds, a
``64_`` suffix.
"""

import ctypes
import os


def _loaded_paths():
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if name.startswith("lib") and "blas" in name and ".so" in name:
                paths.add(path)
    return sorted(paths)


def _symbol(lib, stem):
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def _libraries():
    for path in _loaded_paths():
        try:
            yield path, ctypes.CDLL(path)
        except OSError:
            yield path, None


def info():
    """Each loaded BLAS library with its build string and current threads."""
    out = []
    for path, lib in _libraries():
        entry = {"library": os.path.basename(path), "config": None, "threads": None}
        get_config = lib and _symbol(lib, "get_config")
        if get_config:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            entry["config"] = get_config().decode()
        get_threads = lib and _symbol(lib, "get_num_threads")
        if get_threads:
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            entry["threads"] = get_threads()
        out.append(entry)
    return out


def set_threads(n):
    """Set every loaded OpenBLAS pool to ``n`` threads, where it can be set."""
    for _, lib in _libraries():
        set_fn = lib and _symbol(lib, "set_num_threads")
        if set_fn:
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            set_fn(n)
