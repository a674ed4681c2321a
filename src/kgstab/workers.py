"""Forked worker pools: the one map helper of the sweep points and the box
parity blocks.

`worker_count` gives one worker per CPU in this process's affinity mask,
at most one per item, and 1 (in-process) off Linux, where workers could
not be forked, and inside a worker, so a sweep point solves its box
blocks in-process.  `worker_map` yields a map over the items: the builtin
one for one worker, else one over forked processes, which inherit the
imported modules and start without re-importing numpy and scipy.  The
pool modules are imported only when a pool starts, so importing this
module loads nothing beyond `os` and `sys`.

`scipy_openblas_setter` finds the thread setter of scipy's bundled
OpenBLAS, the BLAS under SuperLU and ARPACK; the block pool, and the
sweep pool where a point factors a box, set it to one thread in each
worker, so that two workers on two cores do not run four BLAS threads.
"""

from __future__ import annotations

import contextlib
import os
import sys


def worker_count(items: int) -> int:
    """One worker per CPU in this process's affinity mask, at most one per
    item; 1 off Linux and inside a worker."""
    if not sys.platform.startswith("linux") or items <= 1:
        return 1
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1
    return min(len(os.sched_getaffinity(0)), items)


@contextlib.contextmanager
def worker_map(workers: int, initializer=None, initargs=()):
    """A map that yields results in input order: the builtin one
    in-process, or one over `workers` forked processes, each of which runs
    `initializer(*initargs)` first. On exit, items not started are
    cancelled."""
    if workers == 1:
        yield map
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, context, initializer=initializer, initargs=initargs)
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)


def scipy_openblas_setter():
    """`set_num_threads(int)` of scipy's bundled OpenBLAS, from the
    `*openblas*` library in `scipy.libs`; None where there is no such
    library or it exports no setter."""
    import ctypes
    import glob

    import scipy

    libdir = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_set_num_threads", "openblas_set_num_threads"):
            if hasattr(handle, sym):
                setter = getattr(handle, sym)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None
