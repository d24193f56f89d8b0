"""cohdist: one-shot assisted coherence distillation at desk scale.

Subpackages
-----------
hermat
    Dense complex-Hermitian linear algebra (LAPACK eigensolver through numpy).
dnorm
    The m-distillation norm: one water-filling evaluator and a primal/dual
    bracket.
distill
    Assisted fidelities and the fidelity SDP's checked optimal pair,
    one-shot and zero-error rates, coherence of assistance.
ensembles
    Same-diagonal decompositions, ensemble search, steering.
cli
    Command-line front end (``cohdist`` entry point, or
    ``python -m cohdist.cli``).  ``import cohdist`` does not load it: the
    first read of ``cohdist.cli`` imports it.
"""

import importlib

from . import distill, dnorm, ensembles, errors, hermat, stateio

__version__ = "0.1.0"

__all__ = [
    "cli",
    "distill",
    "dnorm",
    "ensembles",
    "errors",
    "hermat",
    "stateio",
    "__version__",
]


def __getattr__(name):
    # PEP 562: only names not found in the module land here.  Importing the
    # submodule binds it as an attribute, so this runs once per process
    if name == "cli":
        return importlib.import_module(__name__ + ".cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
