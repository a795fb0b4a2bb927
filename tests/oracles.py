"""Independent oracles used only by the tests.

Deliberately naive implementations (cofactor expansion, textbook
Gauss-Jordan, plain summation) kept separate from the package so every
closed form is checked against code that shares nothing with it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * cofactor_det(minor)
            total += term if j % 2 == 0 else -term
    return total


def cofactor_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Adjugate over determinant; only sensible for small matrices."""
    n = len(rows)
    det = cofactor_det(rows)
    assert det != 0, "cofactor oracle fed a singular matrix"
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            cof = cofactor_det(minor) if minor else Fraction(1)
            out[i][j] = (cof if (i + j) % 2 == 0 else -cof) / det
    return out


def gauss_jordan_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Textbook exact inverse, independent of the package's elimination."""
    n = len(rows)
    a = [list(map(Fraction, r)) for r in rows]
    b = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col])
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        b[col] = [x / scale for x in b[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                b[i] = [x - f * y for x, y in zip(b[i], b[col])]
    return b


def naive_green_sum(n: int, r: int, s: int) -> float:
    """Plain left-to-right evaluation of the open-chain spectral sum."""
    omega = math.pi / (n + 1)
    total = 0.0
    for k in range(1, n + 1):
        total += math.sin(r * k * omega) * math.sin(s * k * omega) / math.cos(k * omega)
    return -total / (n + 1)


def multiply(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(m)] for i in range(n)]


def identity_rows(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def circulant_rows(first_column) -> list[list[Fraction]]:
    """Entry (r, s) is first_column[(r - s) mod n]."""
    n = len(first_column)
    return [[Fraction(first_column[(r - s) % n]) for s in range(n)]
            for r in range(n)]


def tridiagonal_rows(sub, diag, sup) -> list[list[Fraction]]:
    """sub[i] at (i+1, i), diag[i] at (i, i), sup[i] at (i, i+1)."""
    n = len(diag)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(diag[i])
    for i in range(n - 1):
        rows[i][i + 1] = Fraction(sup[i])
        rows[i + 1][i] = Fraction(sub[i])
    return rows


def dense_lu_inverse(m):
    """Dense float LU with partial pivoting and the 1e12 condition screen.

    The package's LU as it was written with numpy arrays, kept verbatim as
    the reference that the row-nonzero `lu_inverse` must equal bit for bit.
    """
    import numpy as np

    from hueckel_green.errors import NumericallySingular

    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("inverse of non-square matrix")
    lu = a.copy()
    perm = np.arange(n)
    scale = max(1.0, float(np.max(np.abs(a))))
    min_pivot = (np.inf, 0)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        pivot = abs(lu[piv, k])
        if pivot < min_pivot[0]:
            min_pivot = (pivot, k)
        if pivot <= 1e-12 * scale:
            raise NumericallySingular(k)
        if piv != k:
            lu[[k, piv]] = lu[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    rhs = np.eye(n)[perm]
    # forward substitution (unit lower triangle), then back substitution
    for k in range(1, n):
        rhs[k] -= lu[k, :k] @ rhs[:k]
    for k in range(n - 1, -1, -1):
        rhs[k] -= lu[k, k + 1:] @ rhs[k + 1:]
        rhs[k] /= lu[k, k]
    norm = np.max(np.abs(a).sum(axis=1))
    inv_norm = np.max(np.abs(rhs).sum(axis=1))
    if norm * inv_norm > 1e12:
        raise NumericallySingular(min_pivot[1])
    return rhs
