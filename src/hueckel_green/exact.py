"""Dense matrices over the rationals.

`ExactMatrix` is the carrier for every Hamiltonian and closed-form Green's
function in the package.  Entries are `fractions.Fraction`, which keeps them
in lowest terms with a positive denominator for free.  Alongside the type
live the exact routines the engines need: fraction-free (Bareiss)
determinants and Gauss-Jordan inversion, plus the memory guard every
dense builder checks before it allocates.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (IndexOutOfRange, InvalidSize, SingularMatrix, TooLarge,
                     _as_index)

if TYPE_CHECKING:
    import numpy as np

Rational = Fraction

DEFAULT_MAX_CELLS = 2 ** 20

_ZERO = Fraction(0)
_ONE = Fraction(1)


def max_cells() -> int:
    """Memory guard for builders; HUECKEL_MAX_CELLS overrides the default."""
    value = os.environ.get("HUECKEL_MAX_CELLS")
    return int(value) if value else DEFAULT_MAX_CELLS


def guard_dense(n: int) -> None:
    """Raise TooLarge before an n x n dense matrix is allocated past the guard."""
    limit = max_cells()
    if n * n > limit:
        raise TooLarge(
            f"{n}x{n} matrix ({n * n} cells) exceeds the memory guard ({limit})")


def as_rational(value) -> Fraction:
    """Coerce ints, strings like "p/q" and Fractions; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def over_common_denominator(
        values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers k_i and d > 0 with values[i] = k_i / d, d the lcm of the
    denominators."""
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


class ExactMatrix:
    """Immutable dense matrix of exact rationals, stored row-major."""

    __slots__ = ("_rows", "_cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        if rows <= 0 or cols <= 0:
            raise InvalidSize("matrix dimensions must be positive")
        data = [as_rational(x) for x in entries]
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self._rows = rows
        self._cols = cols
        self._data = data

    @classmethod
    def _of_fractions(cls, rows: int, cols: int,
                      data: list[Fraction]) -> "ExactMatrix":
        """Adopt a row-major list of rows * cols Fractions without copying it.

        For the package's own builders, whose entries are Fractions already:
        no coercion and no checks, so the caller owns both.
        """
        m = cls.__new__(cls)
        m._rows = rows
        m._cols = cols
        m._data = data
        return m

    rows = property(attrgetter("_rows"))
    cols = property(attrgetter("_cols"))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        if n == 0:
            raise InvalidSize("no rows")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [x for r in rows for x in r])

    def get(self, i: int, j: int) -> Fraction:
        """Entry at 0-based (i, j)."""
        i, j = _as_index(i, "row"), _as_index(j, "column")
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise IndexOutOfRange(f"({i}, {j}) outside the "
                                  f"{self._rows}x{self._cols} matrix")
        return self._data[i * self._cols + j]

    def row(self, i: int) -> list[Fraction]:
        return self._data[i * self._cols:(i + 1) * self._cols]

    def to_lists(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self._rows)]

    def scaled_rows(self) -> tuple[list[list[int]], int]:
        """Integer rows and d > 0 with self = rows / d (d the lcm of the denominators)."""
        flat, d = over_common_denominator(self._data)
        c = self._cols
        return [flat[i * c:(i + 1) * c] for i in range(self._rows)], d

    def to_float(self) -> np.ndarray:
        """Float copy; only the nonzero entries are converted."""
        import numpy as np

        data = self._data
        nonzero = [k for k, x in enumerate(data) if x]
        out = np.zeros(self._rows * self._cols)
        out[nonzero] = [float(data[k]) for k in nonzero]
        return out.reshape(self._rows, self._cols)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._of_fractions(self._rows, self._cols,
                                         [-x for x in self._data])

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self._rows == other._rows
                and self._cols == other._cols and self._data == other._data)

    def __hash__(self):
        return hash((self._rows, self._cols, tuple(self._data)))

    def __repr__(self):
        return f"ExactMatrix({self._rows}x{self._cols})"


def mat_vec(m: ExactMatrix, v: Sequence[Fraction]) -> list[Fraction]:
    """Exact matrix-vector product."""
    if m.cols != len(v):
        raise ValueError("shape mismatch")
    out = []
    for i in range(m.rows):
        row = m.row(i)
        out.append(sum((a * b for a, b in zip(row, v) if a and b), _ZERO))
    return out


def det_fraction_free(m: ExactMatrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination with row pivoting.

    The input is first scaled to integers by d, the lcm of its denominators,
    so elimination runs in integers with every division exact, and
    det(m) = det(d m) / d^n.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    a, d = m.scaled_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return _ZERO
        pivot = a[k][k]
        for i in range(k + 1, n):
            rik = a[i][k]
            rowi = a[i]
            rowk = a[k]
            for j in range(k + 1, n):
                rowi[j] = (pivot * rowi[j] - rik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], d ** n)


def inverse_exact(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    a = [list(m.row(i)) for i in range(n)]
    inv = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise SingularMatrix("exactly singular", n=n)
        a[k], a[piv] = a[piv], a[k]
        inv[k], inv[piv] = inv[piv], inv[k]
        pk = a[k][k]
        if pk != 1:
            a[k] = [x / pk for x in a[k]]
            inv[k] = [x / pk for x in inv[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[k])]
    return ExactMatrix.from_rows(inv)
