"""Reference dense float linear algebra used to cross-check every closed form.

Partial pivoting is not optional here: the chain Hamiltonians have zero
diagonals, so unpivoted elimination dies on the first step.  That is the
reason this module exists separately from naive elimination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import NotSymmetric, NumericallySingular

if TYPE_CHECKING:
    import numpy as np

CONDITION_LIMIT = 1e12
_PIVOT_TOL = 1e-12


def as_float_matrix(m) -> np.ndarray:
    import numpy as np

    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    return a


def _lu_factor(a: np.ndarray):
    """In-place LU with partial pivoting; returns (lu, perm, min_pivot_idx).
    Raises NumericallySingular at the first pivot within tolerance of zero."""
    import numpy as np

    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    min_pivot = (np.inf, 0)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[piv, k])
        if pivot < min_pivot[0]:
            min_pivot = (pivot, k)
        if pivot <= _PIVOT_TOL * scale:
            raise NumericallySingular(k)
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm, min_pivot[1]


def lu_inverse(m) -> np.ndarray:
    """Inverse via pivoted LU, with a 1e12 condition screen.

    Raises NumericallySingular (carrying the offending pivot index) for
    exactly singular input and for anything so ill-conditioned that the
    result would be garbage.
    """
    import numpy as np

    a = as_float_matrix(m)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("inverse of non-square matrix")
    lu, perm, pivot_idx = _lu_factor(a)
    rhs = np.eye(n)[perm]
    # forward substitution (unit lower triangle), then back substitution
    for k in range(1, n):
        rhs[k] -= lu[k, :k] @ rhs[:k]
    for k in range(n - 1, -1, -1):
        rhs[k] -= lu[k, k + 1:] @ rhs[k + 1:]
        rhs[k] /= lu[k, k]
    norm = np.max(np.abs(a).sum(axis=1))
    inv_norm = np.max(np.abs(rhs).sum(axis=1))
    if norm * inv_norm > CONDITION_LIMIT:
        raise NumericallySingular(pivot_idx)
    return rhs


def symmetric_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    import numpy as np

    a = as_float_matrix(m)
    if a.shape[0] != a.shape[1] or np.max(np.abs(a - a.T), initial=0.0) > 1e-12:
        raise NotSymmetric("input is not symmetric to 1e-12")
    return np.linalg.eigvalsh(a)
