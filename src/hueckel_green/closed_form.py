"""Closed-form zero-energy Green's functions from O(1) data per chain.

The sign convention is G = -H^{-1} everywhere: every function in this
module returns Green's function entries, i.e. the *negated* inverse of the
corresponding Hamiltonian.  Entries use 1-based site indices.

In all four forms G(r, s) depends only on the parity of r and on s - r,
mod 2N on an open chain and mod N on a ring.  Each form's kernel validates
the spec once and returns its O(1) data as a `_Rows`.  `green_entry` forms
one entry from it, at most one alpha/beta power; `green_matrix` builds the
O(N) row of G for odd r, reflects it for even r, and copies N windows out.
In-process (x86_64, CPython 3.11, medians of 7) at beta = 1/3, alpha = 2,
an entry at N = 12 000 takes 0.1 ms and the matrix at N = 400 2-3 ms.

The forms need N >= 3 on a ring and nonzero couplings: the 2-site ring and
an even chain or ring with a zero coupling are refused (exit 3 in the CLI),
and the numeric route, or Usmani for open chains, answers them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .chains import ChainSpec, Topology
from .errors import (CycleTooSmall, SingularMatrix, ZeroCoupling,
                     _as_site_pair, _as_size)
from .exact import ExactMatrix, Rational, guard_dense
from .trig import direct_green_sum

_ZERO = Fraction(0)


class GreenEntryQuery(namedtuple("GreenEntryQuery", "spec r s")):
    """A single Green's function entry request: which chain, which sites."""

    __slots__ = ()

    def __new__(cls, spec: ChainSpec, r: int, s: int):
        r, s = _as_site_pair(r, s, spec.n_sites, ("site", "site"))
        return super().__new__(cls, spec, r, s)


def det_open(n: int) -> int:
    """Determinant of the uniform open chain: (-1)^(N/2) for even N, else 0."""
    n = _as_size(n, "n", 1)
    if n % 2:
        return 0
    return -1 if (n // 2) % 2 else 1


# Diagonal pattern of the uniform ring's inverse, keyed by N mod 4: the
# first column of H^{-1} holds pattern[k % 4] / 2 at offset k.  N = 4k has
# no inverse.
CYCLIC_PATTERNS = {1: (1, 1, -1, -1), 2: (0, 1, 0, -1), 3: (-1, 1, 1, -1)}


class _Rows:
    """A chain's G as `at(d)` = G(1, 1 + d), d mod `period`: G(r, s) is at
    (s - r) for odd r and, as G(r, s) = G(s, r), at (r - s) for even r."""

    __slots__ = ()

    def __call__(self, r: int, s: int) -> Rational:
        return self.at((s - r if r % 2 else r - s) % self.period)

    def odd_row(self) -> list:
        return [self.at(d) for d in range(self.period)]


class _Bipartite(_Rows, namedtuple("_Bipartite", "n period first ratio")):
    """G(1, 2k + 2) = first * ratio^k, and 0 between sites of equal parity."""

    __slots__ = ()

    def at(self, d: int) -> Rational:
        if d % 2 and d < self.n:
            return self.first * self.ratio ** (d // 2)
        return _ZERO

    def odd_row(self) -> list:
        row = [_ZERO] * self.period
        row[1:self.n:2] = accumulate(repeat(self.ratio, self.n // 2 - 1),
                                     mul, initial=self.first)
        return row


class _Circulant(_Rows, namedtuple("_Circulant", "period values")):
    """A symmetric circulant G on N = period sites: values[-d % N % 4]."""

    __slots__ = ()

    def at(self, d: int) -> Rational:
        return self.values[-d % self.period % 4]


def _open_kernel(spec: ChainSpec) -> _Rows:
    """Uniform open chain, N even: G(r, s) = (-1)^((r+s-1)/2) where the even
    index exceeds the odd one, else 0, so G(1, 2k + 2) = -(-1)^k."""
    n = spec.n_sites
    if n % 2:
        raise SingularMatrix("N odd", n=n)
    return _Bipartite(n, 2 * n, Fraction(-1), Fraction(-1))


def _alternating_open_kernel(spec: ChainSpec) -> _Rows:
    """Open chain with couplings beta, alpha, beta, ...: (alpha/beta) powers
    under parity brackets, reducing to `_open_kernel` at unit couplings.
    From the odd site 1, G(1, 2k + 2) = -(-alpha/beta)^k / beta."""
    n = spec.n_sites
    if n % 2:
        raise SingularMatrix("N odd", n=n)
    beta, alpha = spec.coupling_odd, spec.coupling_even
    if beta == 0 or alpha == 0:
        raise ZeroCoupling("couplings must be nonzero")
    return _Bipartite(n, 2 * n, -1 / beta, -alpha / beta)


def _cyclic_kernel(spec: ChainSpec) -> _Rows:
    """Uniform ring, N not 4k: the inverse is circulant, and G(r, s) is 0 or
    +-1/2 by the residue mod 4 of (r - s) mod N (`CYCLIC_PATTERNS`)."""
    n = spec.n_sites
    if n < 3:
        raise CycleTooSmall("cyclic Green's function needs N >= 3")
    if n % 4 == 0:
        raise SingularMatrix("N=4k", n=n)
    return _Circulant(n, tuple(Fraction(-p, 2) for p in CYCLIC_PATTERNS[n % 4]))


def _alternating_cyclic_kernel(spec: ChainSpec) -> _Rows:
    """Ring with couplings beta, alpha, ..., N even >= 4: the four-term form.
    From the odd site 1, G(1, 2k + 2) = -(-alpha/beta)^k / (beta * den) with
    the geometric denominator den = 1 - (-alpha/beta)^(N/2), which vanishes
    with 1 - (-beta/alpha)^(N/2), at equal couplings when N = 4k."""
    n = spec.n_sites
    beta, alpha = spec.coupling_odd, spec.coupling_even
    if n % 2:
        # ChainSpec admits odd N only for equal couplings t, and t times the
        # uniform ring is invertible at odd N unless t = 0: G = G_uniform / t.
        if beta == 0:
            raise SingularMatrix("zero couplings", n=n)
        uniform = _cyclic_kernel(ChainSpec(Topology.CYCLIC, n))
        return _Circulant(n, tuple(x / beta for x in uniform.values))
    if n < 4:
        raise CycleTooSmall("cyclic bond alternation needs N >= 4")
    if beta == 0 or alpha == 0:
        raise ZeroCoupling("couplings must be nonzero")
    ratio = -alpha / beta
    den = 1 - ratio ** (n // 2)
    if den == 0:
        case = "N=4k" if alpha == beta else "alternating denominator"
        raise SingularMatrix(case, n=n)
    return _Bipartite(n, n, -1 / (beta * den), ratio)


def _entry_kernel(spec: ChainSpec) -> _Rows:
    """Validate ``spec`` once and return its form, O(1) data per chain."""
    if spec.topology is Topology.OPEN:
        if spec.is_uniform:
            return _open_kernel(spec)
        return _alternating_open_kernel(spec)
    if spec.is_uniform:
        return _cyclic_kernel(spec)
    return _alternating_cyclic_kernel(spec)


def green_entry(q: GreenEntryQuery) -> Rational:
    """Dispatch to the applicable closed form for this chain spec."""
    return _entry_kernel(q.spec)(q.r, q.s)


def green_matrix(spec: ChainSpec) -> ExactMatrix:
    """The full matrix in O(N^2), past the spec's refusals and the memory
    guard: row r of G is the N entries from offset 1 - r of the doubled
    O(N) row of r's parity, the even row being the odd one reflected,
    G(r, s) = G(s, r).  No entry is looked up alone."""
    form = _entry_kernel(spec)
    n, period = spec.n_sites, form.period
    guard_dense(n)
    odd = form.odd_row()
    doubled = [row + row for row in (odd[:1] + odd[:0:-1], odd)]
    data = []
    for r in range(1, n + 1):
        start = (1 - r) % period
        data += doubled[r % 2][start:start + n]
    return ExactMatrix._of_fractions(n, n, data)


def harmonic_sum_identity_check(n: int, r: int, s: int) -> tuple[float, Rational]:
    """Both sides of the harmonic-sum identity for the open chain.

    Returns the direct float evaluation of
    -(1/(N+1)) sum_k sin(r k w) sin(s k w) / cos(k w) alongside the exact
    closed-form value (the 0 / +-1 pattern), ready for comparison.
    """
    if n % 2:
        raise SingularMatrix("N odd", n=n)
    spec = ChainSpec(Topology.OPEN, n)
    exact = green_entry(GreenEntryQuery(spec, r, s))
    return direct_green_sum(n, r, s), exact
