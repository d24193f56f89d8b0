"""Tolerance and cap defaults.

``Tolerances`` holds the input-validation gates of ``hermat`` (Hermitian,
PSD, trace and distribution checks, and the eigensolver's Hermitian-defect
gate), which every call reads from ``DEFAULT_TOLS``, and the PSD floor that
``ensembles`` applies to the eigenvalues it computes.  The other
modules keep their solver and snapping tolerances as local constants.
``Caps`` holds the largest materialized tensor-power dimension (the CLI's
default ``--cap``) and the largest PSD block the SDP solver accepts.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # type-level invariants
    hermitian_entry: float = 1e-12   # |a_ij - conj(a_ji)| for validated matrices
    psd_eig_floor: float = -1e-10    # eigenvalues above this are clamped to 0
    trace_one: float = 1e-10
    distribution: float = 1e-9

    # operation gates
    hermitian_op: float = 1e-9       # eigensolver rejects beyond this defect


@dataclass(frozen=True)
class Caps:
    tensor_dim: int = 1024           # largest materialized tensor-power dimension
    sdp_block_dim: int = 256         # largest PSD block accepted by the solver


DEFAULT_TOLS = Tolerances()
DEFAULT_CAPS = Caps()
