"""State files: JSON documents with [re, im] entry pairs.

Schema::

    {
      "dim": 2,
      "entries": [[[re, im], ...], ...],          # dim x dim
      "declared_base": {"dim_sigma": 2, "copies": 3},   # optional
      "renormalize": false                               # optional
    }

``dim``, ``dim_sigma`` and ``copies`` are integers: a JSON integer, or a
number with an integral value such as 2.0; booleans, strings and other
numbers are a ``ParseError``, never truncated.  A ``declared_base`` needs
``dim_sigma`` and ``copies`` of at least 1 with dim_sigma ** copies == dim,
checked in time bounded by log dim, whatever ``copies``.  Each entry part
is a JSON integer or float and ``renormalize`` a JSON boolean; anything
else, booleans and numeric strings included, is a ``ParseError``, never
converted.  Parsing gates: finite entries and a finite trace, finite
entries after the optional renormalization (a trace near its 1e-12 floor
can scale finite entries past the largest double), Hermiticity 1e-9
entrywise, trace within 1e-8 of one (after the renormalization).  Accepted states are then symmetrized and
trace-normalized exactly, so the stricter internal Hermiticity and trace
invariants hold downstream.  Normalization cannot repair a negative
eigenvalue, so the PSD gate on the normalized state is the internal one
(floor -1e-10), reported as a ``ParseError`` with the same message, and no
command rejects as non-PSD a file that loaded.  The entries are scanned
once: the adjoint the Hermiticity gate forms is the one the state is
symmetrized with, as 0.5 rho + 0.5 rho^dag, whose halves cannot overflow.
"""

import json
import numbers

import numpy as np

from .errors import NotPSD, ParseError
from .hermat import _adjoint_and_defect, _psd_eig

__all__ = ["dump_state", "load_state", "parse_state", "state_to_dict"]


def _integer(value, field: str) -> int:
    """An integer field of a decoded document: an integer, or a number with
    an integral value; ``ParseError`` for anything else, booleans included,
    so that no value is truncated."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ParseError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _real(value, field: str) -> float:
    """A real field of a decoded document: an integer or a float;
    ``ParseError`` for anything else, booleans and strings included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParseError(f"{field} must be a number, got {value!r}")
    return float(value)


def _is_power(base: int, exponent: int, target: int) -> bool:
    """Whether base ** exponent == target, for base, exponent >= 1, by
    repeated multiplication that stops once the product passes ``target``
    (or stops changing, at base 1), so the time is bounded by log ``target``."""
    power = base
    for _ in range(exponent - 1):
        if power > target or base == 1:
            break
        power *= base
    return power == target


def parse_state(obj) -> tuple[np.ndarray, dict | None]:
    """Validate a decoded state document; returns (rho, declared_base)."""
    if not isinstance(obj, dict):
        raise ParseError("state document must be a JSON object")
    try:
        dim = _integer(obj["dim"], "dim")
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if dim < 1:
        raise ParseError(f"dim must be positive, got {dim}")
    try:
        # each entry part through _real, once: linear in the number of entries
        arr = np.array([[[_real(x, "entries") for x in pair] for pair in row] for row in entries],
                       dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"entries are not numeric: {exc}") from exc
    if arr.shape != (dim, dim, 2):
        raise ParseError(f"entries must be {dim}x{dim} [re, im] pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError("entries must be finite numbers")
    rho = arr[..., 0] + 1j * arr[..., 1]

    renormalize = obj.get("renormalize", False)
    if not isinstance(renormalize, bool):
        raise ParseError(f"renormalize must be true or false, got {renormalize!r}")
    with np.errstate(over="ignore"):  # finite entries can sum past the largest double
        tr = np.trace(rho).real
    if not np.isfinite(tr):
        raise ParseError("trace is not finite: the diagonal sums past the largest double")
    if renormalize:
        if abs(tr) < 1e-12:
            raise ParseError("cannot renormalize a traceless matrix")
        with np.errstate(over="ignore"):  # a small trace scales finite entries past it
            rho = rho / tr
        if not np.isfinite(rho).all():
            raise ParseError(f"renormalized entries are not finite: the trace {tr:.3e} "
                             "scales them past the largest double")

    adj, defect = _adjoint_and_defect(rho)
    if defect > 1e-9:
        raise ParseError(f"Hermitian defect {defect:.3e} exceeds 1e-9")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise ParseError(f"trace {tr} differs from 1 by more than 1e-8")
    # halves, which stay finite for finite entries; the result is exactly
    # Hermitian, so it is its own adjoint in the PSD gate
    rho = 0.5 * rho + 0.5 * adj
    rho = rho / np.trace(rho).real
    try:
        _psd_eig(rho, rho)
    except NotPSD as exc:
        raise ParseError(str(exc)) from exc

    declared = obj.get("declared_base")
    if declared is not None:
        try:
            declared = {"dim_sigma": _integer(declared["dim_sigma"], "declared_base.dim_sigma"),
                        "copies": _integer(declared["copies"], "declared_base.copies")}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed declared_base: {exc}") from exc
        if min(declared.values()) < 1:
            raise ParseError(f"declared_base {declared} must have dim_sigma and copies >= 1")
        if not _is_power(declared["dim_sigma"], declared["copies"], dim):
            raise ParseError(
                f"declared_base {declared} inconsistent with dim {dim}"
            )
    return rho, declared


def _read_json(path):
    """The decoded JSON document in a file; ``ParseError`` when the file
    cannot be read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def load_state(path) -> tuple[np.ndarray, dict | None]:
    return parse_state(_read_json(path))


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
