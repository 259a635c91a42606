"""The commands that never solve an assignment or a quadrature must not load
scipy's solvers, which add about 50 MB and most of the package's import
time.  ``wasserstein`` and ``gaussian_oracle`` import them on first use, and
the lazily loaded solvers must return what the eagerly loaded ones do.
Nor may importing the package load the process pool, which only a
parallel run needs.

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


def _probe(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


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
    at_import, w2, after_w2, residual, after_quad = _probe(PROBE).splitlines()
    assert at_import == "[]"
    assert after_w2 == "['scipy.optimize']"
    assert after_quad == "['scipy.optimize', 'scipy.integrate']"

    import scipy.integrate  # noqa: F401  (the eager reference)
    import scipy.optimize  # noqa: F401

    assert float(w2) == w2_exact(np.array(A), np.array(B)).distance
    assert float(residual) == GaussianModel(**MODEL).verify_flow_identity(0.5)


POOL_PROBE = """
import sys
import wkb_lab, wkb_lab.cli
from wkb_lab import (gaussian_oracle, likelihood, pathaction, sampler, stencil, train,
                     verify, wasserstein, workers)
print([m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules])
"""


def test_process_pool_loads_at_first_parallel_use_only():
    # a serial run never starts a worker, so importing the package must not
    # load the process pool (``workers.map_jobs`` imports it for threads > 1)
    assert _probe(POOL_PROBE).strip() == "[]"


TRAIN_PROBE = """
import sys
import wkb_lab.train
print(sorted(m for m in sys.modules if m == "wkb_lab" or m.startswith("wkb_lab.")))
"""


def test_training_loads_exactly_the_sources_that_key_the_zoo():
    want = ["wkb_lab"] + [f"wkb_lab.{name.removesuffix('.py')}" for name in _TRAIN_SOURCES]
    assert ast.literal_eval(_probe(TRAIN_PROBE)) == sorted(want)


_GENERATOR_FACTORIES = {"SeedSequence", "PCG64", "Generator", "default_rng"}


def _factory_calls(tree) -> list[tuple[int, str]]:
    """(line, name) of every call to a generator factory under ``tree``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in _GENERATOR_FACTORIES:
                out.append((node.lineno, name))
    return out


def test_data_stream_is_the_only_generator_factory():
    # every seeded stream of the package comes from data.stream, so one
    # (seed, key) fixes its bits everywhere
    calls = {}
    for path in sorted((SRC / "wkb_lab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls[path.name] = _factory_calls(tree)
        if path.name == "data.py":
            stream = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "stream")
            inside = _factory_calls(stream)
            assert sorted(name for _, name in inside) == \
                ["Generator", "PCG64", "SeedSequence"]
            calls[path.name] = [call for call in calls[path.name] if call not in inside]
    assert {name: found for name, found in calls.items() if found} == {}


def _shim_block(source: str) -> set[str]:
    """Names imported or defined under the comment that names
    ``perfbench/tracing.py``: the comment lines, then the imports and
    top-level functions up to the next ``# --`` section comment."""
    lines = source.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("#") and "perfbench/tracing.py" in line)
    while lines[start].startswith("#"):
        start += 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("# --"))
    block = ast.parse("\n".join(lines[start:end]))
    assert all(isinstance(node, (ast.ImportFrom, ast.FunctionDef)) for node in block.body)
    return {alias.name for node in block.body if isinstance(node, ast.ImportFrom)
            for alias in node.names} | {node.name for node in block.body
                                       if isinstance(node, ast.FunctionDef)}


def test_every_traced_likelihood_name_is_called_or_a_named_shim():
    # perfbench/tracing.py wraps functions by their name in the likelihood
    # module; a wrapped name that likelihood.py never calls reads zero, so
    # each such name must sit in the one block of shims kept for the tracer
    tracing = ast.parse((SRC.parent / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    traced = {node.elts[1].value for node in ast.walk(tracing)
              if isinstance(node, ast.Tuple) and len(node.elts) == 3
              and isinstance(node.elts[0], ast.Name) and node.elts[0].id == "likelihood"
              and isinstance(node.elts[1], ast.Constant)}
    source = (SRC / "wkb_lab" / "likelihood.py").read_text(encoding="utf-8")
    called = {node.func.id for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    shims = _shim_block(source)
    assert "solve_adaptive" in traced  # the scan reads the tracer's targets
    assert shims and not shims & called, "a shim that is called is no shim"
    assert traced - called == shims
