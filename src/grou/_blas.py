"""A scope that holds every bundled OpenBLAS at one thread.

numpy and scipy each bundle an OpenBLAS that starts one thread per core.
The Monte Carlo study and the joint network search make many small fits
on matrices of tens of rows, where those threads cost more in hand-off
than they compute.  Inside :class:`one_blas_thread` every bundled OpenBLAS
that exposes a thread-count control is set to one thread; the previous
count is restored when the last overlapping scope ends.  Where a library
cannot be loaded or a symbol is missing, the pin does nothing.

Measured on a 2-core machine with scipy 1.17.1: every ``scipy.linalg.expm``
call, even of one 2x2 matrix, wakes the worker thread of scipy's OpenBLAS,
which then spins for ~0.1-0.2 s, and a pin entered afterwards does not
stop it.  numpy's ``linalg``, ``cho_factor``/``cho_solve``, the batched
``scipy.linalg.solve``, ``solve_continuous_lyapunov`` and ``eigh`` do not
wake it.  So
:func:`grou.model.expm` enters this scope around each exponential, and
entering it must be cheap: it is a class rather than a generator-based
context manager (~5 us to enter and leave, ~1 us when nested), and
:func:`grou.simulate.simulate_path` holds one scope over each path so that
its per-step exponentials nest.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import os
import threading

# (package, getter, setter) of each bundled OpenBLAS; numpy's is the 64-bit-integer build
_OPENBLAS_SYMBOLS = (
    ("numpy", "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

# The OpenBLAS thread count is global to the process, so the pin's state is too:
# the first of any overlapping scopes (from user threads) saves the counts and
# the last restores them.
_lock = threading.Lock()
_depth = 0
_saved: list = []


@functools.cache
def _openblas_control(package, getter, setter):
    """``(get, set)`` of the OpenBLAS bundled in ``<package>.libs``, or None."""
    module = importlib.import_module(package)
    libdir = os.path.join(os.path.dirname(module.__file__), os.pardir, f"{package}.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get, put = getattr(lib, getter, None), getattr(lib, setter, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def openblas_controls() -> list:
    """``(get, set)`` pairs of every bundled OpenBLAS found; looked up on first use."""
    found = (_openblas_control(*entry) for entry in _OPENBLAS_SYMBOLS)
    return [control for control in found if control is not None]


class one_blas_thread:
    """Hold every bundled OpenBLAS at one thread; restore the previous counts on exit."""

    __slots__ = ()

    def __enter__(self):
        global _depth, _saved
        with _lock:
            if _depth == 0:
                _saved = [(put, get()) for get, put in openblas_controls()]
                for put, _ in _saved:
                    put(1)
            _depth += 1

    def __exit__(self, *exc_info):
        global _depth
        with _lock:
            _depth -= 1
            if _depth == 0:
                for put, count in _saved:
                    put(count)
