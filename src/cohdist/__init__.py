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
    Command-line front end (``cohdist`` entry point).
"""

from . import cli, distill, dnorm, ensembles, errors, hermat, stateio

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
