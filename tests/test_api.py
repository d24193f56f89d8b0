"""Every name in a module's ``__all__`` resolves (``errors`` has none), and
importing the package leaves ``numpy.random`` unloaded."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import cohdist

MODULES = [cohdist] + [module for module in map(cohdist.__dict__.get, cohdist.__all__)
                       if inspect.ismodule(module) and hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x imports numpy.random itself")
def test_import_leaves_numpy_random_unloaded():
    # only the commands and helpers that draw random numbers need it
    code = "import sys, numpy, cohdist; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cohdist.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
