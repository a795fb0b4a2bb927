"""Independent oracles used only by the tests.

Deliberately naive implementations (cofactor expansion, textbook
Gauss-Jordan, plain summation) kept separate from the package so every
closed form is checked against code that shares nothing with it.
"""

from __future__ import annotations

import bisect
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


def einsum_lattice_green_matrix(spec):
    """The lattice Green's matrix by the three-operand einsum per axis.

    The package's contraction as it was written before it became one GEMM
    per axis, kept as the reference for the GEMM route; its chain modes and
    eigenvalues come from `vectorized_eigensystem`, not from the package.
    """
    import numpy as np

    n, d = spec.linear_size, spec.dim
    lam, q = vectorized_eigensystem(n, False)
    x = -1.0 / sum(np.ix_(*(lam,) * d))     # lam_k1 + ... + lam_kd
    for _ in range(d):
        # contract the leading mode axis; append the new (row, col) axes
        x = np.einsum("k...,ak,bk->...ab", x, q, q)
    order = [2 * i for i in range(d)] + [2 * i + 1 for i in range(d)]
    return x.transpose(order).reshape(spec.total_sites, spec.total_sites)


def long_division_divisible(m: int, coeffs) -> bool:
    """Is the integer polynomial ``coeffs`` (constant term first) divisible
    by Phi_m?  Plain long division from the top degree, with no reduction
    by x^(m/2) + 1 first."""
    from hueckel_green.vanishing_sums import cyclotomic_polynomial

    phi = cyclotomic_polynomial(m)
    work = list(coeffs)
    while work and work[-1] == 0:
        work.pop()
    deg_phi = len(phi) - 1
    for i in range(len(work) - 1 - deg_phi, -1, -1):
        coef = work[i + deg_phi]
        if coef:
            for j, d in enumerate(phi):
                work[i + j] -= coef * d
    return not any(work)


def trial_division_smallest_prime(n: int) -> int:
    """Smallest prime dividing n >= 2, by trying every f up to sqrt(n)."""
    for f in range(2, math.isqrt(n) + 1):
        if n % f == 0:
            return f
    return n


class NotSymmetric(ValueError):
    """`symmetric_eigenvalues` was given a matrix that is not symmetric."""


def symmetric_eigenvalues(m):
    """All eigenvalues of a symmetric matrix, ascending, by LAPACK's
    `eigvalsh`; refuses non-finite, non-square and non-symmetric input."""
    import numpy as np

    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix expected")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries must be finite")
    if a.shape[0] != a.shape[1] or np.max(np.abs(a - a.T), initial=0.0) > 1e-12:
        raise NotSymmetric("input is not symmetric to 1e-12")
    return np.linalg.eigvalsh(a)


def vectorized_eigensystem(n: int, cyclic: bool):
    """(eigenvalues, eigenvectors) of the uniform chain by numpy's ufuncs.

    The package's analytic eigensystem as it was written before it became
    one scalar row formula, kept verbatim as the reference for the rows.
    """
    import numpy as np

    if not cyclic:
        omega = math.pi / (n + 1)
        r = np.arange(1, n + 1)
        lam = 2.0 * np.cos(r * omega)
        q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(r, r) * omega)
        return lam, q
    omega = 2.0 * math.pi / n
    j = np.arange(n)
    lam = 2.0 * np.cos(omega * j)
    q = np.empty((n, n))
    pos = np.arange(n)
    q[:, 0] = 1.0 / math.sqrt(n)
    for m in range(1, (n - 1) // 2 + 1):
        q[:, m] = math.sqrt(2.0 / n) * np.cos(omega * m * pos)
        q[:, n - m] = math.sqrt(2.0 / n) * np.sin(omega * m * pos)
    if n % 2 == 0:
        q[:, n // 2] = np.where(pos % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    return lam, q


def numpy_resolvent_matrix(spec, energy: float):
    """The spectral resolvent matrix by numpy's broadcast over the modes.

    The package's matrix route as it was written before it summed in plain
    Python, kept as the reference that the list-of-rows matrix must equal
    bit for bit: one N x N product per row, summed along the modes.  The
    modes come from `vectorized_eigensystem`; the package supplies only its
    refusals (the size guard, the 2-site ring, the pole) and the gaps.
    """
    import numpy as np

    from hueckel_green.chains import Topology, _gaps, _require_eigenbasis

    _require_eigenbasis(spec)
    _, modes = vectorized_eigensystem(spec.n_sites,
                                      spec.topology is Topology.CYCLIC)
    gaps = np.array(_gaps(spec, energy))
    return np.array([((row * modes) / gaps).sum(axis=1) for row in modes])


# Margin for float screening in the search.  True zeros accumulate at most
# ~1e-13 of rounding over <= 7 terms, so nothing real is ever pruned; the
# exact oracle has the final word on every candidate.
_FLOAT_TOLERANCE = 1e-9


def float_pruned_witness(q, budget: int = 10_000_000):
    """Exhaustive search for a vanishing cosine sum, or None if none exists.

    The package's search before it became an exact meet in the middle,
    kept verbatim as the reference whose witnesses the new search must
    reproduce.  Enumerates sorted multisets k_1 <= ... <= k_d in
    lexicographic order with branch-and-bound pruning on float partial
    sums; the last slot is located by binary search.  Candidates within the float tolerance are
    confirmed with the exact cyclotomic oracle before being returned, so a
    returned witness is exact and a None answer means the space was fully
    exhausted.  Raises BudgetExhausted after ``budget`` visited nodes.
    """
    from hueckel_green import BudgetExhausted, CosineWitness, cosine_sum_is_zero_exact

    n, d = q.n, q.dim
    cos_vals = [math.cos(k * math.pi / n) for k in range(n)]  # index by k; k=0 unused
    neg_desc = [-cos_vals[k] for k in range(1, n)]            # ascending in k
    nodes = 0

    def final_slot(partial: float, k_min: int, prefix: tuple[int, ...]):
        # candidates: k >= k_min with cos_vals[k] ~ -partial
        lo = bisect.bisect_left(neg_desc, partial - _FLOAT_TOLERANCE)
        hi = bisect.bisect_right(neg_desc, partial + _FLOAT_TOLERANCE)
        for idx in range(lo, hi):
            k = idx + 1
            if k < k_min:
                continue
            if cosine_sum_is_zero_exact(n, prefix + (k,)):
                return CosineWitness(prefix + (k,))
        return None

    def search(prefix: tuple[int, ...], k_min: int, partial: float):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(
                f"witness search for d={d}, n={n} exceeded {budget} nodes")
        if len(prefix) == d - 1:
            return final_slot(partial, k_min, prefix)
        remaining = d - len(prefix) - 1
        floor_val = cos_vals[n - 1]
        for k in range(k_min, n):
            head = partial + cos_vals[k]
            # largest achievable total keeps using cos_vals[k]
            if head + remaining * cos_vals[k] < -_FLOAT_TOLERANCE:
                break   # only shrinks as k grows
            if head + remaining * floor_val > _FLOAT_TOLERANCE:
                continue
            found = search(prefix + (k,), k, head)
            if found is not None:
                return found
        return None

    return search((), 1, 0.0)
