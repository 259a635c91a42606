import os
import subprocess
import sys
import textwrap
from pathlib import Path

from wkb_lab.workers import map_jobs

SRC = Path(__file__).resolve().parents[1] / "src"
_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _job_and_blas_threads(job):
    return job, tuple(os.environ.get(key) for key in _KEYS)


def test_workers_keep_the_job_order_and_run_blas_on_one_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = map_jobs(_job_and_blas_threads, range(5), threads=2)
    assert out == [(job, ("1", "1", "1")) for job in range(5)]
    # the caller's environment stays, and one worker means no worker process
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4" and "MKL_NUM_THREADS" not in os.environ
    assert map_jobs(_job_and_blas_threads, [7], threads=1) == [
        (7, ("4",) + tuple(os.environ.get(key) for key in _KEYS[1:]))]


SCRIPT = """
import numpy as np

from wkb_lab.gaussian_oracle import GaussianModel
from wkb_lab.likelihood import FdStencil, nll_dataset


class Score:  # defined in the script, so the workers import it from there
    def __init__(self, inner):
        self.inner = inner

    def __call__(self, x, t):
        return self.inner(x, t)


if __name__ == "__main__":
    model = GaussianModel(beta=1.0, v0=2.0, epsilon=0.3)
    sched, score = model.to_schedule(dim=2, t_min=0.05), model.to_score(dim=2)
    pts = np.array([[0.1, 0.0], [-0.2, 0.1], [0.0, 0.3]])
    kw = dict(stencil=FdStencil(0.05), tol_outer=1e-4, tol_inner=1e-6)
    serial = nll_dataset(Score(score), sched, pts, threads=1, **kw)
    spread = nll_dataset(Score(score), sched, pts, threads=2, **kw)
    print(spread.n_failed, spread.reports == serial.reports)
"""


def test_a_guarded_script_runs_its_own_score_on_workers(tmp_path):
    # the documented contract of threads > 1: an entry point under a
    # __main__ guard, and a score class the workers can import by name
    script = tmp_path / "run_nll.py"
    script.write_text(textwrap.dedent(SCRIPT))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert run.stdout.split() == ["0", "True"]
