"""General tridiagonal inversion by the Usmani theta/phi recursions.

Everything here runs in exact rational arithmetic; there is deliberately no
floating-point path in this module.  The forward table theta ends in the
determinant, and together with the backward table phi gives the entries of
the inverse: the full inverse in O(N^2), a single entry in O(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import ChainSpec, Topology, bond_coupling
from .errors import SingularMatrix, UnsupportedCouplings
from .exact import ExactMatrix, Rational, as_rational, guard_dense

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TridiagonalSpec:
    """Three diagonals of an N x N tridiagonal matrix.

    ``sub`` holds a_1..a_{N-1} (entry (i+1, i)), ``diag`` b_1..b_N and
    ``sup`` c_1..c_{N-1} (entry (i, i+1)), all exact rationals.
    """

    sub: tuple[Rational, ...]
    diag: tuple[Rational, ...]
    sup: tuple[Rational, ...]

    def __post_init__(self):
        object.__setattr__(self, "sub", tuple(as_rational(x) for x in self.sub))
        object.__setattr__(self, "diag", tuple(as_rational(x) for x in self.diag))
        object.__setattr__(self, "sup", tuple(as_rational(x) for x in self.sup))
        n = len(self.diag)
        if n < 1:
            raise ValueError("empty diagonal")
        if len(self.sub) != n - 1 or len(self.sup) != n - 1:
            raise ValueError("off-diagonals must have length N-1")

    @property
    def n(self) -> int:
        return len(self.diag)

    @classmethod
    def from_chain(cls, spec: ChainSpec) -> "TridiagonalSpec":
        if spec.topology is not Topology.OPEN:
            raise UnsupportedCouplings("only open chains are tridiagonal")
        off = tuple(bond_coupling(spec, b) for b in range(1, spec.n_sites))
        return cls(off, (_ZERO,) * spec.n_sites, off)


@dataclass(frozen=True)
class ThetaPhiTables:
    """Fully evaluated recursion tables.

    ``theta`` stores theta_{-1}..theta_N (so ``theta[r + 1]`` is theta_r)
    and ``phi`` stores phi_1..phi_{N+2} (so ``phi[s - 1]`` is phi_s).
    theta_N is the determinant.
    """

    theta: tuple[Rational, ...]
    phi: tuple[Rational, ...]

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
        raise IndexError((r, s))
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


def usmani_inverse(spec: TridiagonalSpec) -> ExactMatrix:
    """Exact inverse of the whole matrix.

    The c- and a-products are accumulated incrementally along each row,
    which keeps the full inverse at O(N^2) instead of O(N^3).
    """
    n = spec.n
    tables = require_invertible(spec)
    guard_dense(n)
    det = tables.determinant
    data = [_ZERO] * (n * n)
    for r in range(1, n + 1):
        data[(r - 1) * n + (r - 1)] = (
            tables.theta_at(r - 1) * tables.phi_at(r + 1) / det)
        # upper part: entry (r, s) for s > r
        factor = tables.theta_at(r - 1) / det
        prod = _ONE
        for s in range(r + 1, n + 1):
            prod *= -spec.sup[s - 2]
            data[(r - 1) * n + (s - 1)] = prod * factor * tables.phi_at(s + 1)
        # lower part: entry (r, s) for s < r, walking s downward
        factor = tables.phi_at(r + 1) / det
        prod = _ONE
        for s in range(r - 1, 0, -1):
            prod *= -spec.sub[s - 1]
            data[(r - 1) * n + (s - 1)] = prod * factor * tables.theta_at(s - 1)
    return ExactMatrix(n, n, data)


def tridiagonal_matrix(spec: TridiagonalSpec) -> ExactMatrix:
    """Materialize the tridiagonal matrix itself."""
    n = spec.n
    data = [_ZERO] * (n * n)
    for i in range(n):
        data[i * n + i] = spec.diag[i]
    for i in range(n - 1):
        data[i * n + (i + 1)] = spec.sup[i]
        data[(i + 1) * n + i] = spec.sub[i]
    return ExactMatrix(n, n, data)
