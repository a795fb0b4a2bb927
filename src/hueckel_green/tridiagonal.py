"""General tridiagonal inversion by the Usmani theta/phi recursions.

Everything here runs in exact rational arithmetic; there is deliberately no
floating-point path in this module.  The forward table theta ends in the
determinant, and together with the backward table phi gives the entries of
the inverse: the full inverse in O(N^2), a single entry in O(N).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .chains import ChainSpec, Topology, bond_coupling
from .errors import (IndexOutOfRange, InvalidSize, SingularMatrix,
                     UnsupportedCouplings)
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


def theta_phi(spec: TridiagonalSpec) -> ThetaPhiTables:
    """Run both second-order recursions in exact arithmetic.

    theta_r = b_r theta_{r-1} - a_{r-1} c_{r-1} theta_{r-2} with
    theta_{-1} = 0, theta_0 = 1; phi runs backwards from phi_{N+1} = 1,
    phi_{N+2} = 0.  Always defined, even for singular matrices.
    """
    n = spec.n
    a, b, c = spec.sub, spec.diag, spec.sup
    theta = [_ZERO, _ONE]
    for r in range(1, n + 1):
        prod = a[r - 2] * c[r - 2] if r >= 2 else _ZERO
        theta.append(b[r - 1] * theta[r] - prod * theta[r - 1])
    phi = [_ZERO] * (n + 2)
    phi[n + 1] = _ZERO          # phi_{N+2}
    phi[n] = _ONE               # phi_{N+1}
    for s in range(n, 0, -1):
        prod = c[s - 1] * a[s - 1] if s <= n - 1 else _ZERO
        phi[s - 1] = b[s - 1] * phi[s] - prod * phi[s + 1]
    return ThetaPhiTables(tuple(theta), tuple(phi))


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
    n = spec.n
    if not (1 <= r <= n and 1 <= s <= n):
        raise IndexOutOfRange(f"({r}, {s}) outside 1..{n}")
    tables = require_invertible(spec, tables)
    det = tables.determinant
    if r == s:
        return tables.theta_at(r - 1) * tables.phi_at(r + 1) / det
    sign = -_ONE if (r + s) % 2 else _ONE
    if r < s:
        prod = _ONE
        for i in range(r, s):
            prod *= spec.sup[i - 1]
        return sign * prod * tables.theta_at(r - 1) * tables.phi_at(s + 1) / det
    prod = _ONE
    for i in range(s, r):
        prod *= spec.sub[i - 1]
    return sign * prod * tables.theta_at(s - 1) * tables.phi_at(r + 1) / det


def _restarting_prefix(bonds) -> list[Rational]:
    """p_0..p_{N-1} with p_j / p_i = bonds[i] * ... * bonds[j-1] for i <= j,
    whenever none of those bonds is zero.  After each zero bond the product
    restarts at one, so every p_i is nonzero."""
    prefix = [_ONE]
    for x in bonds:
        prefix.append(prefix[-1] * x if x else _ONE)
    return prefix


def usmani_inverse(spec: TridiagonalSpec) -> ExactMatrix:
    """Exact inverse of the whole matrix, from integer rank-one generators.

    Each triangle of a tridiagonal inverse has rank one.  On and above the
    diagonal, within a run of nonzero c's, entry (r, s) is x_r * y_s with
    x_r = theta_{r-1} / (theta_N p_r) and y_s = p_s phi_{s+1}, where p is
    the prefix product of -c restarted at every zero bond; entries across a
    zero c are exactly 0.  Below the diagonal the same holds with -a and
    the roles of theta and phi swapped.  Each generator is put over one
    common denominator as Python ints, so the O(N^2) entries cost one int
    product and one gcd (`Fraction(p, D)`) each.
    """
    n = spec.n
    tables = require_invertible(spec)
    guard_dense(n)
    det = tables.determinant
    theta = tables.theta[1:n + 1]     # theta_{r-1} for r = 1..N
    phi = tables.phi[1:n + 1]         # phi_{r+1} for r = 1..N
    data = [_ZERO] * (n * n)
    # Upper triangle with the diagonal: row i spans columns i..end-1, where
    # end stops at the first zero c at or after bond i.
    p = _restarting_prefix([-x for x in spec.sup])
    xs, dx = over_common_denominator([t / (det * q) for t, q in zip(theta, p)])
    ys, dy = over_common_denominator([q * f for q, f in zip(p, phi)])
    den = dx * dy
    end = n
    for i in range(n - 1, -1, -1):
        if i < n - 1 and not spec.sup[i]:
            end = i + 1
        x = xs[i]
        if x:
            data[i * n + i:i * n + end] = [
                Fraction(x * y, den) if y else _ZERO for y in ys[i:end]]
    # Lower triangle: row i spans columns start..i-1, where start follows
    # the last zero a before bond i.
    p = _restarting_prefix([-x for x in spec.sub])
    xs, dx = over_common_denominator([q * f for q, f in zip(p, phi)])
    ys, dy = over_common_denominator([t / (det * q) for t, q in zip(theta, p)])
    den = dx * dy
    start = 0
    for i in range(1, n):
        if not spec.sub[i - 1]:
            start = i
        x = xs[i]
        if x:
            data[i * n + start:i * n + i] = [
                Fraction(x * y, den) if y else _ZERO for y in ys[start:i]]
    return ExactMatrix._of_fractions(n, n, data)

