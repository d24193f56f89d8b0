"""Central tolerance and cap configuration.

Every numerical gate in the package reads its defaults from a single
``Tolerances`` record so that tests can tighten (or relax) them in one
place instead of chasing magic numbers through the modules.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # type-level invariants
    hermitian_entry: float = 1e-12   # |a_ij - conj(a_ji)| for validated matrices
    psd_eig_floor: float = -1e-10    # eigenvalues above this are clamped to 0
    trace_one: float = 1e-10
    unit_norm: float = 1e-10
    distribution: float = 1e-9

    # operation gates
    hermitian_op: float = 1e-9       # eigensolver rejects beyond this defect


@dataclass(frozen=True)
class Caps:
    tensor_dim: int = 1024           # largest materialized tensor-power dimension
    sdp_block_dim: int = 256         # largest PSD block accepted by the solver


DEFAULT_TOLS = Tolerances()
DEFAULT_CAPS = Caps()
