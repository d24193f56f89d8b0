"""cohdist: one-shot assisted coherence distillation at desk scale.

Subpackages
-----------
hermat
    Dense complex-Hermitian linear algebra (LAPACK eigensolver through numpy).
dnorm
    The m-distillation norm in three independent forms.
sdpsolve
    Small dense SDP solver plus the two fidelity/diagonal problem builders.
distill
    Assisted fidelities, one-shot and zero-error rates, coherence of assistance.
ensembles
    Same-diagonal decompositions, ensemble search, steering, Monte Carlo.
cli
    Command-line front end (``cohdist`` entry point).
"""

from . import cli, config, distill, dnorm, ensembles, errors, hermat, sdpsolve, stateio

__version__ = "0.1.0"

__all__ = [
    "cli",
    "config",
    "distill",
    "dnorm",
    "ensembles",
    "errors",
    "hermat",
    "sdpsolve",
    "stateio",
    "__version__",
]
