"""Seeded input generator.

Everything a workload feeds the program comes from here: density matrices
with a chosen rank and a skewed diagonal, the state files and curve specs
the command line reads, and error tolerances placed strictly between two
achievable levels.  The same seed gives the same inputs; the program
receives only what is generated.

Each state comes from a fixed family (its diagonal, rank and off-diagonal
structure, drawn once from ``FAMILY_SEED``), seen in a frame drawn from the
run's seed: a permutation of the basis and a phase on each basis vector.
Such a change of frame is an incoherent unitary, so it leaves every
quantity the program computes (fidelities, rates, norms, roof values) where
it was, up to the order of the diagonal, and the program does the same
amount of work on every seed.  With random states per seed, the Jacobi
rotations in a ``cli_d23`` pass spread by 0.14 ((Q3 - Q1) / median) between
seeds, more than the run-to-run noise the benchmark can afford.  The curve grids and the searches' own seeds come
from the run's seed directly.
"""

import json
from dataclasses import dataclass

import numpy as np

from reference import fidelity_closed_form, kron_power

FAMILY_SEED = 20180712


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream), so adding a stream never
    changes the inputs drawn by another."""
    tag = int.from_bytes(stream.encode(), "little") % (2 ** 63)
    return np.random.Generator(np.random.Philox(key=[seed, tag]))


def skewed_state(rng, d: int, rank: int, q_range) -> np.ndarray:
    """Density matrix of the given rank whose largest diagonal entry is
    drawn from ``q_range``; the other entries share the rest, none below
    a tenth of an even share."""
    q = float(rng.uniform(*q_range))
    rest = rng.dirichlet(np.ones(d - 1))
    diag = np.concatenate([[q], (1.0 - q) * (0.1 / (d - 1) + 0.9 * rest)])
    diag = diag[rng.permutation(d)]
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    root = np.sqrt(diag)
    rho = (root[:, None] * (g @ g.conj().T)) * root[None, :]
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def in_frame(rng, rho) -> np.ndarray:
    """``rho`` in a seeded incoherent frame: basis order and phases."""
    d = rho.shape[0]
    perm = rng.permutation(d)
    phase = np.exp(2j * np.pi * rng.uniform(size=d))
    u = rho[np.ix_(perm, perm)]
    return (phase[:, None] * u) * phase.conj()[None, :]


def write_state(path, rho) -> None:
    doc = {
        "dim": int(rho.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in rho],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def eps_between_levels(rng, diag) -> float:
    """An error tolerance in (0, 1) halfway between two adjacent levels of
    the closed-form fidelity, so the optimal target dimension sits well
    inside its interval."""
    d = len(diag)
    fid = [fidelity_closed_form(diag, m) for m in range(1, d + 1)] + [0.0]
    choices = []
    for m in range(1, d + 1):
        lo, hi = 1.0 - fid[m - 1], 1.0 - fid[m]
        if hi - lo > 1e-4 and hi > 1e-4:
            choices.append(0.5 * (max(lo, 0.0) + min(hi, 0.999)))
    return float(choices[int(rng.integers(len(choices)))])


# --------------------------------------------------------------------------
# per-workload input sets


@dataclass
class CliInputs:
    states: list          # (name, path, rho, eps)
    spec_path: str
    curves: list          # the curve specs as written


def cli_inputs(seed: int, workdir) -> CliInputs:
    """A qubit and two qutrit state files (full and reduced rank, skewed
    diagonals) and one curve spec over the qubit families to 20 copies."""
    family = rng_for(FAMILY_SEED, "cli_d23")
    rng = rng_for(seed, "cli_d23")
    layout = [
        ("qubit_full", 2, 2, (0.6, 0.9)),
        ("qutrit_full", 3, 3, (0.36, 0.8)),
        ("qutrit_rank2", 3, 2, (0.36, 0.8)),
    ]
    states = []
    for name, d, rank, q_range in layout:
        base = skewed_state(family, d, rank, q_range)
        eps = eps_between_levels(family, np.diag(base).real)
        rho = in_frame(rng, base)
        path = str(workdir / f"{name}.json")
        write_state(path, rho)
        states.append((name, path, rho, eps))

    def grid(k, lo, hi):
        return sorted(float(round(x, 6)) for x in rng.uniform(lo, hi, size=k))

    curves = [
        {"family": "diag", "p_grid": grid(3, 0.55, 0.95),
         "copies": [1, 2, 3, 4, 6, 8, 12, 16, 20], "m": 2},
        {"family": "offdiag", "p_grid": grid(2, 0.05, 0.45),
         "copies": [1, 2, 4, 8, 16, 20], "m": 2},
        {"family": "depolarized", "p_grid": grid(1, 0.0, 1.0),
         "copies": [1, 2, 3], "m": 2},
        {"family": "diag", "p_grid": grid(2, 0.55, 0.95),
         "copies": [2, 3, 4, 6, 8, 10], "m": 3},
    ]
    spec_path = str(workdir / "curves.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"curves": curves}, fh)
    return CliInputs(states=states, spec_path=spec_path, curves=curves)


def sdp_inputs(seed: int) -> list:
    """(name, rho, ms, is_tensor_power_of_d_le_3) cases: states of
    dimension 4-6 and the tensor powers 2x2 and 3x3.  A tensor power takes
    its frame on the base, so it stays a tensor power."""
    family = rng_for(FAMILY_SEED, "sdp_d4to9")
    rng = rng_for(seed, "sdp_d4to9")
    qubit = in_frame(rng, skewed_state(family, 2, 2, (0.6, 0.85)))
    qutrit = in_frame(rng, skewed_state(family, 3, 3, (0.62, 0.8)))

    def state(d):
        return in_frame(rng, skewed_state(family, d, d, (0.3, 0.6)))

    return [
        ("qubit^2", kron_power(qubit, 2), (2,), True),
        ("d4", state(4), (2, 3), False),
        ("d5", state(5), (2,), False),
        ("d6", state(6), (3,), False),
        ("qutrit^2", kron_power(qutrit, 2), (3,), True),
    ]


def roof_inputs(seed: int) -> list:
    """(name, rho, m, search_seed) cases in dimensions 4-6."""
    family = rng_for(FAMILY_SEED, "roof_search")
    rng = rng_for(seed, "roof_search")
    cases = []
    for name, d, m in (("d4", 4, 2), ("d5", 5, 3), ("d6", 6, 4)):
        rho = in_frame(rng, skewed_state(family, d, d, (0.3, 0.6)))
        cases.append((name, rho, m, int(rng.integers(2 ** 31))))
    return cases
