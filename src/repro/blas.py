"""One BLAS thread per process.

Host parallelism in this package is the engine's worker processes
(:mod:`repro.parallel`), never threads inside one.  OpenBLAS would
otherwise split each of the field's small matrix products (a 2048-row
batch times a 32- or 64-wide layer) over every core: the extra threads
buy no throughput at that size, each holds its own buffers (about 5 MB
of resident memory), and under ``run-all --jobs N`` they spin against
the other workers' threads for the same cores.

:func:`use_one_blas_thread` runs once when :mod:`repro` is imported, so
every entry point (the runner, ``run-all`` workers forked or spawned,
the kernel benches, the end-to-end benchmark) computes with one BLAS
thread.  It finds the OpenBLAS that NumPy loaded by reading the
process's memory map and calls its ``set_num_threads`` through
:mod:`ctypes`; with another BLAS, or none found, it changes nothing.
"""

from __future__ import annotations

import ctypes

#: The process's memory map, where a loaded OpenBLAS shows its path.
MAPS_PATH = "/proc/self/maps"

#: ``(set, get)`` thread-count symbol pairs, in the order tried: the
#: ``scipy-openblas`` wheels NumPy ships, then OpenBLAS builds with and
#: without the 64-bit-integer suffix.
THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_symbols():
    """``(set, get)`` functions of the mapped OpenBLAS, or ``None``."""
    try:
        with open(MAPS_PATH) as maps:
            paths = [line.split(maxsplit=5)[-1].strip() for line in maps]
    except OSError:
        return None
    path = next((p for p in paths if "openblas" in p and ".so" in p), None)
    if path is None:
        return None
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    for set_name, get_name in THREAD_SYMBOLS:
        set_fn = getattr(library, set_name, None)
        get_fn = getattr(library, get_name, None)
        if set_fn is not None and get_fn is not None:
            set_fn.argtypes = (ctypes.c_int,)
            set_fn.restype = None
            get_fn.argtypes = ()
            get_fn.restype = ctypes.c_int
            return set_fn, get_fn
    return None


def use_one_blas_thread() -> bool:
    """Set the loaded OpenBLAS to one thread; ``False`` (and nothing
    changed) where no OpenBLAS with a thread-count symbol is mapped."""
    symbols = _openblas_symbols()
    if symbols is None:
        return False
    symbols[0](1)
    return True


def blas_threads():
    """The loaded OpenBLAS's thread count, or ``None`` where none is found."""
    symbols = _openblas_symbols()
    return None if symbols is None else int(symbols[1]())
