import numpy as np
import pytest

from cohdist.distill import fidelity_certificate
from cohdist.hermat import random_density


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _ball_theta(rho, eps):
    """Value theta of the diagonal-ball SDP min {max_j omega_jj :
    F(rho, omega) >= 1 - eps}.

    The capped-diagonal fidelity does not increase with m, so 1/theta is
    the largest real m in [1, d] whose certified value reaches 1 - eps,
    found by bisection on the primal side of ``fidelity_certificate`` (a
    root fidelity some capped state attains).  That side is compared with
    the root trace |V|_F of the PSD part it was built from, which it meets
    wherever rho itself is feasible, so rounding in the trace does not move
    theta; 2e-15 allows for the rest.  Near eps = 0 the fidelity is flat to
    second order in 1/m, so this places theta within about 1e-7.
    """
    d = rho.shape[0]

    def reaches(m):
        cert = fidelity_certificate(rho, m)
        return cert.primal >= np.sqrt(1.0 - eps) * np.linalg.norm(cert.v) - 2e-15

    if reaches(float(d)):
        return 1.0 / d
    lo, hi = 1.0, float(d)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if reaches(mid) else (lo, mid)
    return 1.0 / lo


@pytest.fixture
def ball_theta():
    return _ball_theta


def random_diag_dominant(dim, rng):
    """Random state with a strictly positive diagonal (generic support)."""
    rho = random_density(dim, rng)
    assert np.min(np.diag(rho).real) > 0
    return rho


__all__ = ["random_density", "random_diag_dominant"]
