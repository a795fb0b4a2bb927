"""General tridiagonal inversion by the Usmani theta/phi recursions.

Everything here runs in exact rational arithmetic; there is deliberately no
floating-point path in this module.  The forward table theta ends in the
determinant, and together with the backward table phi gives the entries of
the inverse: the full inverse in O(N^2), a single entry in O(N).  T, its
transpose and its reversal share the bond products a_i c_i, so phi is
theta of the reversed matrix read backwards, and the lower triangle of
T^-1 is the upper triangle of (T^T)^-1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .chains import ChainSpec, Topology, bond_coupling
from .errors import (InvalidSize, SingularMatrix, UnsupportedCouplings,
                     _as_site_pair)
from .exact import (ExactMatrix, Rational, as_rational, guard_dense,
                    over_common_denominator)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TridiagonalSpec(namedtuple("TridiagonalSpec", "sub diag sup")):
    """Three diagonals of an N x N tridiagonal matrix.

    ``sub`` holds a_1..a_{N-1} (entry (i+1, i)), ``diag`` b_1..b_N and
    ``sup`` c_1..c_{N-1} (entry (i, i+1)), all exact rationals.
    """

    __slots__ = ()

    def __new__(cls, sub: tuple[Rational, ...], diag: tuple[Rational, ...],
                sup: tuple[Rational, ...]):
        sub = tuple(as_rational(x) for x in sub)
        diag = tuple(as_rational(x) for x in diag)
        sup = tuple(as_rational(x) for x in sup)
        n = len(diag)
        if n < 1:
            raise InvalidSize("empty diagonal")
        if len(sub) != n - 1 or len(sup) != n - 1:
            raise ValueError("off-diagonals must have length N-1")
        return super().__new__(cls, sub, diag, sup)

    @property
    def n(self) -> int:
        return len(self.diag)

    def __neg__(self) -> "TridiagonalSpec":
        """The negated matrix in O(N); its inverse is G = -T^-1."""
        return TridiagonalSpec(tuple(-x for x in self.sub),
                               tuple(-x for x in self.diag),
                               tuple(-x for x in self.sup))

    @classmethod
    def from_chain(cls, spec: ChainSpec) -> "TridiagonalSpec":
        if spec.topology is not Topology.OPEN:
            raise UnsupportedCouplings("only open chains are tridiagonal")
        off = tuple(bond_coupling(spec, b) for b in range(1, spec.n_sites))
        return cls(off, (_ZERO,) * spec.n_sites, off)


class ThetaPhiTables(namedtuple("ThetaPhiTables", "theta phi")):
    """Fully evaluated recursion tables.

    ``theta`` stores theta_{-1}..theta_N (so ``theta[r + 1]`` is theta_r)
    and ``phi`` stores phi_1..phi_{N+2} (so ``phi[s - 1]`` is phi_s).
    theta_N is the determinant.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.theta) - 2

    def theta_at(self, r: int) -> Rational:
        return self.theta[r + 1]

    def phi_at(self, s: int) -> Rational:
        return self.phi[s - 1]

    @property
    def determinant(self) -> Rational:
        return self.theta_at(self.n)


def _continuant(diag, prods) -> list[Rational]:
    """t_{-1}..t_N of t_r = d_r t_{r-1} - p_{r-1} t_{r-2}, t_{-1} = 0,
    t_0 = 1, where p_i is the product of bond i."""
    t = [_ZERO, _ONE]
    for d, p in zip(diag, (_ZERO, *prods)):
        t.append(d * t[-1] - p * t[-2])
    return t


def theta_phi(spec: TridiagonalSpec) -> ThetaPhiTables:
    """Run both second-order recursions in exact arithmetic.

    theta_r = b_r theta_{r-1} - a_{r-1} c_{r-1} theta_{r-2} with
    theta_{-1} = 0, theta_0 = 1; phi runs backwards from phi_{N+1} = 1,
    phi_{N+2} = 0, as theta of the reversed matrix.  Always defined, even
    for singular matrices.
    """
    prods = [a * c for a, c in zip(spec.sub, spec.sup)]
    theta = _continuant(spec.diag, prods)
    phi = _continuant(spec.diag[::-1], prods[::-1])
    return ThetaPhiTables(tuple(theta), tuple(reversed(phi)))


def require_invertible(spec: TridiagonalSpec,
                       tables: ThetaPhiTables | None = None) -> ThetaPhiTables:
    """The recursion tables of ``spec``; SingularMatrix when theta_N = 0."""
    tables = tables or theta_phi(spec)
    if tables.determinant == 0:
        raise SingularMatrix("theta_N = 0", n=spec.n, theta=tables.theta)
    return tables


def usmani_entry(spec: TridiagonalSpec, r: int, s: int,
                 tables: ThetaPhiTables | None = None) -> Rational:
    """Single entry (r, s) of the inverse, 1-based, in O(N).

    O(N) covers building the tables when none are passed; with them it is
    O(|r - s|) for the coupling product.
    """
    r, s = _as_site_pair(r, s, spec.n)
    tables = require_invertible(spec, tables)
    lo, hi = min(r, s), max(r, s)
    prod = math.prod((spec.sup if r < s else spec.sub)[lo - 1:hi - 1],
                     start=_ONE)
    if (r + s) % 2:
        prod = -prod
    return (prod * tables.theta_at(lo - 1) * tables.phi_at(hi + 1)
            / tables.determinant)


def _triangle_rows(bonds, tables: ThetaPhiTables):
    """Rows of the upper triangle of T^-1, diagonal included, for the
    invertible tridiagonal T with superdiagonal ``bonds`` and ``tables``.

    Row i (0-based) runs from column i to the end of its block, the run of
    sites joined by nonzero bonds; entries past the block are exactly 0, and
    a row with theta_{i-1} = 0 is empty.  Within a block entry (r, s) is
    x_r * y_s with x_r = theta_{r-1} / (theta_N p_r) and y_s = p_s phi_{s+1},
    p the prefix product of -bonds restarted at one after each zero bond.
    Each generator is put over one common denominator as Python ints, so an
    entry costs one int product and one gcd (`Fraction(x * y, D)`) of
    integers that can grow to O(N) bits (they do when the bonds alternate
    1/3, 2): O(N^2) operations on O(N)-bit integers in all.
    """
    n, det = tables.n, tables.determinant
    theta = tables.theta[1:n + 1]     # theta_{r-1} for r = 1..N
    phi = tables.phi[1:n + 1]         # phi_{r+1} for r = 1..N
    p = [_ONE]
    for x in bonds:
        p.append(p[-1] * -x if x else _ONE)
    xs, dx = over_common_denominator([t / (det * q) for t, q in zip(theta, p)])
    ys, dy = over_common_denominator([q * f for q, f in zip(p, phi)])
    den = dx * dy
    start = 0
    for end in [j + 1 for j, x in enumerate(bonds) if not x] + [n]:
        for i in range(start, end):
            x = xs[i]
            yield [Fraction(x * y, den) if y else _ZERO
                   for y in ys[i:end]] if x else []
        start = end


def usmani_inverse(spec: TridiagonalSpec) -> ExactMatrix:
    """Exact inverse of the whole matrix in O(N^2) operations on O(N)-bit
    integers, one rank-one triangle at a time (`_triangle_rows`).  T^T has
    the same theta and phi, so the rows built from ``sub`` are the columns
    of the lower triangle; a symmetric T reuses the upper rows.  Measured
    from N = 200 to 800 on open chains, the time grows as N^1.82 with
    uniform bonds and as N^2.57 with bonds alternating 1/3, 2."""
    n = spec.n
    tables = require_invertible(spec)
    guard_dense(n)
    upper = _triangle_rows(spec.sup, tables)
    if spec.sub == spec.sup:
        pairs = ((row, row) for row in upper)
    else:
        pairs = zip(upper, _triangle_rows(spec.sub, tables))
    data = [_ZERO] * (n * n)
    for i, (row, column) in enumerate(pairs):
        data[i * n + i:i * n + i + len(row)] = row
        data[i * n + i:(i + len(column)) * n:n] = column
    return ExactMatrix._of_fractions(n, n, data)
