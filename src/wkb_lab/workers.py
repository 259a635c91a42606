"""The one worker-process policy of the package.

``map_jobs(fn, jobs, threads)`` runs ``fn`` on each job, in order, in the
calling process for ``threads`` = 1 and otherwise in ``threads`` worker
processes.  The workers are spawned, not forked, so that each starts its
BLAS on one thread: the workers already share out the cores, and a BLAS
thread pool in each oversubscribes them (two forked workers, each with two
OpenBLAS threads, ran 32 trained points of ``nll`` 7x slower on a 2-vCPU
host than with one thread each).  A BLAS reads its thread count once, as
it loads, so forked workers would keep the caller's.

Spawned workers start a fresh interpreter that imports the caller's main
module, and they receive ``fn`` and the jobs by pickling.  A script that
passes ``threads`` > 1 must therefore guard its entry point with
``if __name__ == "__main__":``, and ``fn`` and every object in the jobs
(a score, say) must be picklable by reference: defined at the top level
of an importable module or of the script file, not in an interactive
session or ``python -c``.

The process pool is imported at the first parallel call, as
``wasserstein`` imports scipy's solver: a serial run never loads
``multiprocessing``.
"""

from __future__ import annotations

import contextlib
import os

# BLAS libraries read these as they load
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


@contextlib.contextmanager
def _one_blas_thread_each():
    """Pin BLAS to one thread in the worker processes spawned inside: they
    inherit the environment, which is restored on exit."""
    saved = {key: os.environ.get(key) for key in _ONE_BLAS_THREAD}
    os.environ.update(_ONE_BLAS_THREAD)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def map_jobs(fn, jobs, threads: int) -> list:
    """[fn(job) for job in jobs], over ``threads`` spawned worker processes
    with one BLAS thread each when ``threads`` > 1."""
    if threads <= 1:
        return [fn(job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with _one_blas_thread_each(), ProcessPoolExecutor(
            max_workers=threads, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, jobs, chunksize=1))
