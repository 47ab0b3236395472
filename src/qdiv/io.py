"""JSON state files and validated parsing.

Format: {"dim": d, "entries": [[[re, im], ...], ...]} with an optional
"dims": [dA, dB] marking a bipartite split.  Parsing validates Hermiticity,
positivity and trace, and diagnostics name the worst offending entry.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .entanglement import BipartiteState
from .operators import PSD_TOL, DensityOperator, ValidationError

HERMITICITY_REJECT = 1e-9


def matrix_to_payload(mat: np.ndarray, dims: tuple = None) -> dict:
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]
    payload = {"dim": int(mat.shape[0]), "entries": entries}
    if dims is not None:
        payload["dims"] = [int(dims[0]), int(dims[1])]
    return payload


def payload_to_matrix(payload: dict) -> np.ndarray:
    if "dim" not in payload or "entries" not in payload:
        raise ValidationError("state file must contain 'dim' and 'entries'")
    d = int(payload["dim"])
    entries = payload["entries"]
    if len(entries) != d or any(len(row) != d for row in entries):
        raise ValidationError(f"'entries' is not a {d}x{d} matrix")
    mat = np.empty((d, d), dtype=complex)
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            if not (isinstance(cell, (list, tuple)) and len(cell) == 2):
                raise ValidationError(f"entry ({i},{j}) is not a [re, im] pair")
            try:
                mat[i, j] = complex(float(cell[0]), float(cell[1]))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"entry ({i},{j}) is not a pair of numbers") from exc
            if not np.isfinite(mat[i, j]):
                raise ValidationError(f"entry ({i},{j}) is not finite")
    return mat


def write_state_file(path, mat: np.ndarray, dims: tuple = None):
    Path(path).write_text(json.dumps(matrix_to_payload(mat, dims), indent=1))


def _validate_state_matrix(mat: np.ndarray) -> np.ndarray:
    asym = mat - mat.conj().T
    worst = np.unravel_index(np.abs(asym).argmax(), asym.shape)
    if np.abs(asym[worst]) > HERMITICITY_REJECT:
        raise ValidationError(
            f"matrix is not Hermitian: entry {worst} differs from its conjugate "
            f"transpose by {abs(asym[worst]):.3e}")
    herm = 0.5 * (mat + mat.conj().T)
    w = np.linalg.eigvalsh(herm)
    if w[0] < -PSD_TOL:
        raise ValidationError(f"matrix has negative eigenvalue {w[0]:.6e}")
    tr = float(np.trace(herm).real)
    if tr > 1.0 + PSD_TOL:
        # 12 digits show any excess above PSD_TOL
        raise ValidationError(f"trace is {tr:.12g}, exceeding 1")
    if tr <= 0.0:
        raise ValidationError(f"trace is {tr:.6g}, not positive")
    return herm


def parse_state_file(path):
    """Load a density operator (or bipartite state when 'dims' is present)."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"state file not found: {path}")
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    mat = payload_to_matrix(payload)
    herm = _validate_state_matrix(mat)
    rho = DensityOperator.from_matrix(herm)
    if "dims" in payload:
        da, db = (int(x) for x in payload["dims"])
        return BipartiteState(dims=(da, db), state=rho)
    return rho
