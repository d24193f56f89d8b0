"""Every name in a module's ``__all__`` resolves (``errors`` has none),
importing the package leaves ``numpy.random`` and the command line
unloaded, and ``python -m cohdist.cli`` runs the module once."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import cohdist

# getattr, not the package's __dict__: it loads ``cli``, which the package
# imports on first use
MODULES = [cohdist] + [module for module in (getattr(cohdist, name) for name in cohdist.__all__)
                       if inspect.ismodule(module) and hasattr(module, "__all__")]
ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cohdist.__file__))}


def run_python(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x imports numpy.random itself")
def test_import_leaves_numpy_random_unloaded():
    # only the commands and helpers that draw random numbers need it
    out = run_python("-c", "import sys, numpy, cohdist; print('numpy.random' in sys.modules)")
    assert (out.returncode, out.stdout.strip()) == (0, "False")


def test_import_leaves_the_command_line_unloaded():
    # argparse counts only if the package loads it, not numpy
    code = ("import sys, numpy; before = set(sys.modules); import cohdist;"
            " new = set(sys.modules) - before; print('argparse' in new, 'cohdist.cli' in new);"
            " print(cohdist.cli.main.__module__)")
    out = run_python("-c", code)
    assert (out.returncode, out.stdout.split("\n")[:2]) == (0, ["False False", "cohdist.cli"])


def test_module_route_runs_without_warnings():
    # runpy warns when the package has already imported the module it runs
    out = run_python("-W", "error::RuntimeWarning", "-m", "cohdist.cli", "--help")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("usage: ")
