"""The commands that never solve an assignment or a quadrature must not load
scipy's solvers, which add about 50 MB and most of the package's import
time.  ``wasserstein`` and ``gaussian_oracle`` import them on first use, and
the lazily loaded solvers must return what the eagerly loaded ones do.

Training must load exactly the package modules whose sources key the cached
trained models (``conftest._TRAIN_SOURCES``): a module it loads beyond them
could change training without retraining them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import _TRAIN_SOURCES
from wkb_lab.gaussian_oracle import GaussianModel
from wkb_lab.wasserstein import w2_exact

SRC = Path(__file__).resolve().parents[1] / "src"

A = [[0.0, 0.0], [1.0, 0.5], [-0.3, 2.0]]
B = [[0.9, 0.1], [0.1, 1.8], [-0.2, 0.4]]
MODEL = {"beta": 1.0, "v0": 2.0, "epsilon": 0.3}

PROBE = f"""
import sys
import wkb_lab, wkb_lab.cli
from wkb_lab import gaussian_oracle, likelihood, sampler, train, wasserstein
loaded = lambda: [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]
print(loaded())
print(repr(float(wasserstein.w2_exact({A}, {B}).distance)))
print(loaded())
print(repr(float(gaussian_oracle.GaussianModel(**{MODEL}).verify_flow_identity(0.5))))
print(loaded())
"""


def test_scipy_solvers_load_at_first_use_only():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True)
    at_import, w2, after_w2, residual, after_quad = run.stdout.splitlines()
    assert at_import == "[]"
    assert after_w2 == "['scipy.optimize']"
    assert after_quad == "['scipy.optimize', 'scipy.integrate']"

    import scipy.integrate  # noqa: F401  (the eager reference)
    import scipy.optimize  # noqa: F401

    assert float(w2) == w2_exact(np.array(A), np.array(B)).distance
    assert float(residual) == GaussianModel(**MODEL).verify_flow_identity(0.5)


TRAIN_PROBE = """
import sys
import wkb_lab.train
print(sorted(m for m in sys.modules if m == "wkb_lab" or m.startswith("wkb_lab.")))
"""


def test_training_loads_exactly_the_sources_that_key_the_zoo():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", TRAIN_PROBE], env=env, capture_output=True,
                         text=True, check=True)
    want = ["wkb_lab"] + [f"wkb_lab.{name.removesuffix('.py')}" for name in _TRAIN_SOURCES]
    assert ast.literal_eval(run.stdout) == sorted(want)
