"""Closed-form zero-energy Green's functions, O(1) per entry.

The sign convention is G = -H^{-1} everywhere: every function in this
module returns Green's function entries, i.e. the *negated* inverse of the
corresponding Hamiltonian.  Entries use 1-based site indices; formulas
stated for one ordering of (r, s) are extended by the symmetry
G(r, s) = G(s, r), canonicalizing to r >= s first.

Each form is a per-chain kernel: it validates the spec once, builds the
form's constants (the sign pattern, the mod-4 ring pattern, or the
alpha/beta powers, each formed on first use), and returns an O(1) entry
function.  `_entry_kernel` picks the kernel from the spec, and the two
public entry points, `green_entry` and `green_matrix`, both call it.

The forms need N >= 3 on a ring and nonzero couplings: the 2-site ring and
an even chain or ring with a zero coupling are refused (exit 3 in the CLI),
and the numeric route, or Usmani for open chains, answers them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Callable

from .chains import ChainSpec, Topology, _site_index
from .errors import (CycleTooSmall, IndexOutOfRange, InvalidSize,
                     SingularMatrix, ZeroCoupling, _as_size)
from .exact import ExactMatrix, Rational, guard_dense
from .trig import direct_green_sum

_ZERO = Fraction(0)


class GreenEntryQuery(namedtuple("GreenEntryQuery", "spec r s")):
    """A single Green's function entry request: which chain, which sites."""

    __slots__ = ()

    def __new__(cls, spec: ChainSpec, r: int, s: int):
        r, s = _site_index(r), _site_index(s)
        if not (1 <= r <= spec.n_sites and 1 <= s <= spec.n_sites):
            raise IndexOutOfRange(f"({r}, {s}) outside 1..{spec.n_sites}")
        return super().__new__(cls, spec, r, s)


def det_open(n: int) -> int:
    """Determinant of the uniform open chain: (-1)^(N/2) for even N, else 0."""
    n = _as_size(n, "n")
    if n < 1:
        raise InvalidSize("n must be >= 1")
    if n % 2:
        return 0
    return -1 if (n // 2) % 2 else 1


# Diagonal pattern of the uniform ring's inverse, keyed by N mod 4: the
# first column of H^{-1} holds pattern[k % 4] / 2 at offset k.  N = 4k has
# no inverse.
CYCLIC_PATTERNS = {1: (1, 1, -1, -1), 2: (0, 1, 0, -1), 3: (-1, 1, 1, -1)}

_PLUS_MINUS = (Fraction(1), Fraction(-1))   # indexed by exponent % 2

EntryFn = Callable[[int, int], Rational]


def _open_kernel(spec: ChainSpec) -> EntryFn:
    """Uniform open chain, N even: G(r, s) = (-1)^((r+s-1)/2) where r and s
    have opposite parity and the even index exceeds the odd one, else 0."""
    if spec.n_sites % 2:
        raise SingularMatrix("N odd", n=spec.n_sites)

    def entry(r: int, s: int) -> Rational:
        if (r + s) % 2 == 0:
            return _ZERO
        even, odd = (r, s) if r % 2 == 0 else (s, r)
        if even < odd:
            return _ZERO
        return _PLUS_MINUS[(r + s - 1) // 2 % 2]
    return entry


def _signed_powers(base: Rational, divisor: Rational) -> Callable[[int], tuple]:
    """k -> (base^k / divisor, -base^k / divisor), each power formed once."""
    table: dict[int, tuple[Rational, Rational]] = {}

    def powers(k: int) -> tuple[Rational, Rational]:
        pair = table.get(k)
        if pair is None:
            value = base ** k / divisor
            pair = table[k] = (value, -value)
        return pair
    return powers


def _alternating_open_kernel(spec: ChainSpec) -> EntryFn:
    """Open chain with couplings beta, alpha, beta, ...: (alpha/beta) powers
    under parity brackets, reducing to `_open_kernel` at unit couplings."""
    if spec.n_sites % 2:
        raise SingularMatrix("N odd", n=spec.n_sites)
    beta, alpha = spec.coupling_odd, spec.coupling_even
    if beta == 0 or alpha == 0:
        raise ZeroCoupling("couplings must be nonzero")
    powers = _signed_powers(alpha / beta, beta)

    def entry(r: int, s: int) -> Rational:
        r, s = max(r, s), min(r, s)   # canonicalize to r >= s
        if r % 2 or s % 2 == 0:
            return _ZERO   # parity brackets {1-(-1)^s}{1+(-1)^r} vanish
        return powers((r - s - 1) // 2)[(r + s - 1) // 2 % 2]
    return entry


def _cyclic_kernel(spec: ChainSpec) -> EntryFn:
    """Uniform ring, N not 4k: the inverse is circulant, and G(r, s) is 0 or
    +-1/2 by the residue mod 4 of (r - s) mod N (`CYCLIC_PATTERNS`)."""
    n = spec.n_sites
    if n < 3:
        raise CycleTooSmall("cyclic Green's function needs N >= 3")
    if n % 4 == 0:
        raise SingularMatrix("N=4k", n=n)
    values = tuple(Fraction(-p, 2) for p in CYCLIC_PATTERNS[n % 4])

    def entry(r: int, s: int) -> Rational:
        return values[(r - s) % n % 4]
    return entry


def _alternating_cyclic_kernel(spec: ChainSpec) -> EntryFn:
    """Ring with couplings beta, alpha, ..., N even >= 4: the four-term form,
    each entry read from the even site by G(r, s) = G(s, r).  Its geometric
    denominators 1 - (-alpha/beta)^(N/2) and 1 - (-beta/alpha)^(N/2) vanish
    together, at equal couplings when N = 4k."""
    n = spec.n_sites
    beta, alpha = spec.coupling_odd, spec.coupling_even
    if n % 2:
        # ChainSpec admits odd N only for equal couplings t, and t times the
        # uniform ring is invertible at odd N unless t = 0: G = G_uniform / t.
        if beta == 0:
            raise SingularMatrix("zero couplings", n=n)
        uniform = _cyclic_kernel(ChainSpec(Topology.CYCLIC, n))

        def scaled(r: int, s: int) -> Rational:
            return uniform(r, s) / beta
        return scaled
    if n < 4:
        raise CycleTooSmall("cyclic bond alternation needs N >= 4")
    if beta == 0 or alpha == 0:
        raise ZeroCoupling("couplings must be nonzero")
    den = 1 - (-alpha / beta) ** (n // 2)
    if den == 0:
        case = "N=4k" if alpha == beta else "alternating denominator"
        raise SingularMatrix(case, n=n)
    # G = -(the term from the even site); index 1 picks the negation
    powers = _signed_powers(-alpha / beta, beta * den)

    def entry(r: int, s: int) -> Rational:
        if r % 2 == s % 2:
            return _ZERO
        if r % 2:
            r, s = s, r     # G(r, s) = G(s, r): put the even site first
        return powers((r - s - 1) % n // 2)[1]
    return entry


def _entry_kernel(spec: ChainSpec) -> EntryFn:
    """Validate ``spec`` once and return its O(1) entry function (r, s) -> G."""
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
    """Assemble the full Green's function matrix from the closed forms.

    The spec is validated and its constants built once, so assembly is
    O(N^2): one O(1) kernel call per entry.
    """
    entry = _entry_kernel(spec)
    n = spec.n_sites
    guard_dense(n)
    sites = range(1, n + 1)
    return ExactMatrix._of_fractions(
        n, n, [entry(r, s) for r in sites for s in sites])


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
