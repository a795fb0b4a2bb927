"""Reference float linear algebra used to cross-check every closed form.

`lu_inverse` is the float inverse of the `numeric` route: LU with partial
pivoting, run in plain Python over each row's nonzeros.  Partial pivoting
is not optional here: the chain Hamiltonians have zero diagonals, so
unpivoted elimination dies on the first step.  A chain or ring has about
2N nonzeros, so the factorization is O(N) and the inverse, which has N^2
entries, is O(N^2).  The module does not import numpy.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from .errors import NumericallySingular

CONDITION_LIMIT = 1e12
_PIVOT_TOL = 1e-12


def _nonzero_rows(m) -> list[dict[int, float]]:
    """The rows of a square matrix as {column: float} of their nonzeros."""
    rows = m.tolist() if hasattr(m, "tolist") else list(m)
    if not isinstance(rows, list) or not rows:
        raise ValueError("matrix expected")
    n = len(rows)
    out = []
    for row in rows:
        if isinstance(row, Mapping):
            items = row.items()
        elif isinstance(row, Sequence):
            if len(row) != n:
                raise ValueError("inverse of non-square matrix")
            items = enumerate(row)
        else:
            raise ValueError("matrix expected")
        entries = {}
        for j, x in items:
            x = float(x)
            if not math.isfinite(x):
                raise ValueError("entries must be finite")
            if x:
                if not 0 <= j < n:
                    raise ValueError("inverse of non-square matrix")
                entries[j] = x
        out.append(entries)
    return out


def lu_inverse(m) -> list[list[float]]:
    """Inverse via pivoted LU, with a 1e12 condition screen.

    ``m`` is a square matrix given as rows: a 2-D array, lists, or one
    mapping from column to value per row (absent columns are zero).  The
    result is a list of float rows.

    Column k's candidate pivots are found through a column index of the
    rows not yet pivoted, and only the pivot row's nonzeros update them,
    so a matrix with O(1) nonzeros per row and per column (chains, rings)
    factors in O(N); substituting the N unit columns makes the inverse
    O(N^2).  The floats are those of dense LU with partial pivoting
    (pivot = first row of largest |value|, as `argmax` picks it): each
    multiplier, update x - l*u, and substitution step x - u*y then /pivot is
    the same IEEE operation on the same operands, and the operations this
    skips have a zero factor, so they could change only the sign of a zero.
    Where a substitution row meets two or more nonzero terms, they are
    summed left to right, and the screen's row sums likewise; a BLAS
    product may order those sums differently.

    Raises NumericallySingular (carrying the smallest pivot's index, or
    the index of the first pivot within 1e-12 of zero) for exactly
    singular input and for anything so ill-conditioned that the result
    would be garbage.
    """
    rows = _nonzero_rows(m)
    n = len(rows)
    norm = max(sum(map(abs, row.values())) for row in rows)
    scale = max(1.0, max((abs(x) for row in rows for x in row.values()),
                         default=0.0))
    holding = [[] for _ in range(n)]        # unpivoted rows with column j
    for i, row in enumerate(rows):
        for j in row:
            holding[j].append(i)
    order = list(range(n))                  # position -> original row
    where = list(range(n))                  # original row -> position
    min_pivot = (math.inf, 0)
    for k in range(n):
        piv, pivot = None, 0.0
        for i in holding[k]:
            x = abs(rows[i][k])
            if piv is None or x > pivot or (x == pivot and where[i] < where[piv]):
                piv, pivot = i, x
        if pivot < min_pivot[0]:
            min_pivot = (pivot, k)
        if pivot <= _PIVOT_TOL * scale:
            raise NumericallySingular(k)
        top, piv_pos = order[k], where[piv]
        order[k], order[piv_pos] = piv, top
        where[piv], where[top] = k, piv_pos
        prow = rows[piv]
        d = prow[k]
        upper = [(j, u) for j, u in prow.items() if j > k]
        for i in holding[k]:
            if i == piv:
                continue
            row = rows[i]
            lik = row[k] = row[k] / d
            if not lik:
                continue
            for j, u in upper:
                if j in row:
                    row[j] -= lik * u
                else:
                    row[j] = -(lik * u)
                    holding[j].append(i)
        for j, _ in upper:
            holding[j].remove(piv)
    # rhs = P (the permuted identity); forward substitution with the unit
    # lower triangle, then back substitution with the upper one
    lu = [rows[i] for i in order]
    rhs = [[0.0] * n for _ in range(n)]
    for k, i in enumerate(order):
        rhs[k][i] = 1.0
    for k in range(1, n):
        lower = sorted((j, x) for j, x in lu[k].items() if j < k)
        if lower:
            rhs[k] = [y - s for y, s in zip(rhs[k], _combine(lower, rhs))]
    for k in range(n - 1, -1, -1):
        d = lu[k][k]
        upper = sorted((j, x) for j, x in lu[k].items() if j > k)
        if upper:
            rhs[k] = [(y - s) / d
                      for y, s in zip(rhs[k], _combine(upper, rhs))]
        else:
            rhs[k] = [y / d for y in rhs[k]]
    inv_norm = max(sum(map(abs, row)) for row in rhs)
    if norm * inv_norm > CONDITION_LIMIT:
        raise NumericallySingular(min_pivot[1])
    return rhs


def _combine(terms: list[tuple[int, float]],
             rhs: list[list[float]]) -> list[float]:
    """sum_j x * rhs[j] over (j, x) in ``terms``, one column at a time."""
    (j, x), *rest = terms
    acc = [x * y for y in rhs[j]]
    for j, x in rest:
        acc = [a + x * y for a, y in zip(acc, rhs[j])]
    return acc
