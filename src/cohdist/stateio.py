"""State files: JSON documents with [re, im] entry pairs.

Schema::

    {
      "dim": 2,
      "entries": [[[re, im], ...], ...],          # dim x dim
      "declared_base": {"dim_sigma": 2, "copies": 3},   # optional
      "renormalize": false                               # optional
    }

Parsing gates: finite entries, Hermiticity 1e-9 entrywise, trace within
1e-8 of one (after the optional renormalization).  Accepted states are then
symmetrized and trace-normalized exactly, so the stricter internal
Hermiticity and trace invariants hold downstream.  Normalization cannot
repair a negative eigenvalue, so the PSD gate on the normalized state is
the internal one, ``hermat.eig_psd`` (floor -1e-10), reported as a
``ParseError`` with the same message, and no command rejects as non-PSD a
file that loaded.
"""

import json

import numpy as np

from .errors import NotPSD, ParseError
from .hermat import eig_psd, hermitian_defect

__all__ = ["dump_state", "load_state", "parse_state", "state_to_dict"]


def parse_state(obj) -> tuple[np.ndarray, dict | None]:
    """Validate a decoded state document; returns (rho, declared_base)."""
    if not isinstance(obj, dict):
        raise ParseError("state document must be a JSON object")
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if dim < 1:
        raise ParseError(f"dim must be positive, got {dim}")
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"entries are not numeric: {exc}") from exc
    if arr.shape != (dim, dim, 2):
        raise ParseError(f"entries must be {dim}x{dim} [re, im] pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError("entries must be finite numbers")
    rho = arr[..., 0] + 1j * arr[..., 1]

    if obj.get("renormalize", False):
        tr = np.trace(rho).real
        if abs(tr) < 1e-12:
            raise ParseError("cannot renormalize a traceless matrix")
        rho = rho / tr

    defect = hermitian_defect(rho)
    if defect > 1e-9:
        raise ParseError(f"Hermitian defect {defect:.3e} exceeds 1e-9")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise ParseError(f"trace {tr} differs from 1 by more than 1e-8")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    try:
        eig_psd(rho)
    except NotPSD as exc:
        raise ParseError(str(exc)) from exc

    declared = obj.get("declared_base")
    if declared is not None:
        try:
            declared = {"dim_sigma": int(declared["dim_sigma"]),
                        "copies": int(declared["copies"])}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed declared_base: {exc}") from exc
        if declared["dim_sigma"] ** declared["copies"] != dim:
            raise ParseError(
                f"declared_base {declared} inconsistent with dim {dim}"
            )
    return rho, declared


def load_state(path) -> tuple[np.ndarray, dict | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return parse_state(obj)


def state_to_dict(rho, declared_base: dict | None = None) -> dict:
    rho = np.asarray(rho, dtype=np.complex128)
    doc = {
        "dim": rho.shape[0],
        "entries": [
            [[float(rho[i, j].real), float(rho[i, j].imag)] for j in range(rho.shape[1])]
            for i in range(rho.shape[0])
        ],
    }
    if declared_base is not None:
        doc["declared_base"] = declared_base
    return doc


def dump_state(rho, path, declared_base: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(rho, declared_base), fh, indent=1)
        fh.write("\n")
