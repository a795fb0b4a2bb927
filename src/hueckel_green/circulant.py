"""Circulant matrices: determinants, kernels and three inversion routes.

The nearest-neighbour cycle S + S^T is the motivating case: its inverse has
entries 0 and +-1/2 arranged in repeating diagonal patterns whenever N is
not a multiple of 4.  Two independent derivations of that first column are
implemented (the odd/even-row recurrence, and expanding the factorization
of the symbol into geometric series over the Gaussian integers), plus a
general exact-solve route for arbitrary circulants that uses a float DFT
only to screen for singularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CycleTooSmall, NotSingular, SingularMatrix
from .exact import ExactMatrix, Rational, as_rational, solve_exact

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class CirculantSpec:
    """An N x N circulant, specified by its first column.

    Entry (r, s) is ``first_column[(r - s) mod N]``; the representation is
    therefore closed under inversion.
    """

    first_column: tuple[Rational, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "first_column", tuple(as_rational(x) for x in self.first_column))
        if not self.first_column:
            raise ValueError("empty first column")

    @property
    def n(self) -> int:
        return len(self.first_column)

    @property
    def is_symmetric(self) -> bool:
        x = self.first_column
        return all(x[k] == x[self.n - k] for k in range(1, self.n))


def circulant_matrix(spec: CirculantSpec) -> ExactMatrix:
    n = spec.n
    x = spec.first_column
    data = [x[(r - s) % n] for r in range(n) for s in range(n)]
    return ExactMatrix(n, n, data)


def det_cyclic(n: int) -> int:
    """Determinant of the uniform cycle Hamiltonian: -1, 2, 0 or -4."""
    if n < 2:
        raise CycleTooSmall("cycle determinant needs N >= 2")
    if n == 2:
        return -1
    if n % 2:
        return 2
    if n % 4 == 0:
        return 0
    return -4


def cyclic_kernel_basis(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Kernel of the uniform cycle for N = 4k: k-fold copies of two 4-vectors."""
    if n % 4:
        raise NotSingular(f"cycle of size {n} is invertible (det {det_cyclic(n)})")
    reps = n // 4
    return (0, -1, 0, 1) * reps, (1, 0, -1, 0) * reps


def cyclic_inverse_first_column(n: int) -> CirculantSpec:
    """First column of the inverse cycle via the odd/even row recurrence.

    x_1 = 1/2, odd entries alternate down the column, even entries alternate
    starting from x_0, and x_0 itself is pinned by the wrap-around equation
    x_0 = -x_{N-2}.  For N = 4k that equation degenerates and the matrix is
    singular.  The Green's function is the negation of this column.
    """
    if n < 3:
        raise CycleTooSmall("cyclic inverse needs N >= 3")
    if n % 4 == 0:
        raise SingularMatrix("N=4k", n=n)
    x: list[Rational] = [_ZERO] * n
    for m in range(n // 2):                 # x_1, x_3, ...
        x[2 * m + 1] = -_HALF if m % 2 else _HALF
    if n % 2:
        # x_{N-2} is odd-indexed; the wrap equation fixes x_0 directly.
        x[0] = -x[n - 2]
    # else: x_{N-2} is even-indexed; x_0 = -x_0 forces 0, already in place.
    for m in range(1, (n + 1) // 2):        # x_2, x_4, ...
        x[2 * m] = -x[2 * m - 2]
    return CirculantSpec(tuple(x))


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))       # i^k as (re, im)
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^k


def symbol_factorization_inverse(n: int) -> CirculantSpec:
    """Same first column, derived by factoring the symbol of S + S^{-1}.

    (S + S^{-1})^{-1} = S (I + iS)^{-1} (I - iS)^{-1}; each factor expands
    as a geometric series, so the inverse is S times the cyclic convolution
    of (1, -i, (-i)^2, ...) with (1, i, i^2, ...) divided by
    (1 - i^N)(1 - (-i)^N).  That denominator is 0, 2, 4, 2 as N runs over
    the residues mod 4, which re-proves singularity at N = 4k.
    """
    if n < 3:
        raise CycleTooSmall("cyclic inverse needs N >= 3")
    denom = {0: 0, 1: 2, 2: 4, 3: 2}[n % 4]
    if denom == 0:
        raise SingularMatrix("N=4k", n=n)
    conv_re = [0] * n
    conv_im = [0] * n
    for k in range(n):
        are, aim = _MINUS_I_POWERS[k % 4]
        for j in range(n):
            bre, bim = _I_POWERS[j % 4]
            m = (k + j) % n
            conv_re[m] += are * bre - aim * bim
            conv_im[m] += are * bim + aim * bre
    if any(conv_im):
        raise ArithmeticError("symbol convolution produced an imaginary part")
    # multiplying by S shifts the coefficient of S^k to position k+1
    x = [Fraction(conv_re[(j - 1) % n], denom) for j in range(n)]
    return CirculantSpec(tuple(x))


def circulant_inverse_dft(spec: CirculantSpec) -> CirculantSpec:
    """First column of the inverse of an arbitrary rational circulant.

    The DFT of the first column (the symbol values) is used purely as a
    float screen for singularity; the returned column comes from solving
    the circulant system exactly.
    """
    import numpy as np

    n = spec.n
    symbol = np.fft.fft(np.array([float(v) for v in spec.first_column]))
    j = int(np.argmin(np.abs(symbol)))
    if abs(symbol[j]) <= 1e-9:
        raise SingularMatrix(f"symbol value {j} vanishes", n=n, index=j)
    rhs = [Fraction(1)] + [_ZERO] * (n - 1)
    try:
        x = solve_exact(circulant_matrix(spec), rhs)
    except SingularMatrix:
        # The float screen passed but the matrix is exactly singular.
        raise SingularMatrix(f"symbol value {j} vanishes", n=n, index=j) from None
    return CirculantSpec(tuple(x))
