"""Existence of the d-dimensional Green's function as a number-theory question.

The lattice Hamiltonian is invertible iff no d cosines cos(k_i pi / n)
(with n = N+1, 1 <= k_i <= n-1) sum to zero.  Three tools live here:

* an exact zero test for cosine sums, working in the ring of cyclotomic
  integers: the sum vanishes iff the corresponding integer polynomial is
  divisible by the 2n-th cyclotomic polynomial;
* the closed-form predicate deciding invertibility from the parity of d
  and the smallest prime divisor of n;
* an exhaustive, branch-and-bound witness search whose candidates are
  confirmed by the exact oracle, never by a float threshold.

For odd prime n every rotated prime cycle of 2n-th roots of unity contains
+-1, so no vanishing sum of d cosines exists for *any* odd d; the predicate
treats that boundary accordingly (it is what exhaustive search and the
matrix spectra confirm, e.g. the 2x2x2 cube lattice with n = 3 has
eigenvalues +-1, +-3 and is invertible).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExhausted, InvalidSize

DEFAULT_SEARCH_BUDGET = 10_000_000

# Margin for float screening in the search.  True zeros accumulate at most
# ~1e-13 of rounding over <= 7 terms, so nothing real is ever pruned; the
# exact oracle has the final word on every candidate.
_FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InvertibilityQuery:
    """Dimension d and n = N+1 for one lattice existence question."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidSize("dimension must be >= 1")
        if self.n < 2:
            raise InvalidSize("n must be >= 2")


@dataclass(frozen=True)
class CosineWitness:
    """Sorted mode numbers whose cosine sum vanishes exactly."""

    ks: tuple[int, ...]


@dataclass(frozen=True)
class CyclotomicElement:
    """Integer combination of 2n-th roots of unity, as a polynomial
    modulo x^modulus - 1.  It is zero as a cyclotomic integer iff the
    polynomial is divisible by the modulus-th cyclotomic polynomial."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.modulus:
            raise ValueError("coefficient vector must have length = modulus")

    def is_zero(self) -> bool:
        return _divisible_by_cyclotomic(self.modulus, self.coeffs)


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic); remainder must be 0."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1]
        out[i] = coef
        if coef:
            for j, d in enumerate(den):
                num[i + j] -= coef * d
    if any(num[:len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by exactly dividing x^m - 1 by the cyclotomic polynomials of
    all proper divisors; cached immutably.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _divisible_by_cyclotomic(m: int, coeffs: tuple[int, ...]) -> bool:
    phi = cyclotomic_polynomial(m)
    work = _poly_trim(list(coeffs))
    deg_phi = len(phi) - 1
    for i in range(len(work) - 1 - deg_phi, -1, -1):
        coef = work[i + deg_phi]
        if coef:
            for j, d in enumerate(phi):
                work[i + j] -= coef * d
    return not any(work)


def roots_of_unity_sum_is_zero(modulus: int, exponents) -> bool:
    """Exact test of sum_i zeta_modulus^{e_i} = 0 (with multiplicity)."""
    coeffs = [0] * modulus
    for e in exponents:
        coeffs[e % modulus] += 1
    return CyclotomicElement(modulus, tuple(coeffs)).is_zero()


def cosine_sum_is_zero_exact(n: int, ks) -> bool:
    """Exact decision of sum_i cos(k_i pi / n) = 0.

    Each cosine is zeta_{2n}^{k} + zeta_{2n}^{-k} up to a harmless factor
    of two, so the test reduces to a vanishing sum of 2n-th roots of unity.
    """
    ks = tuple(ks)
    if not all(1 <= k <= n - 1 for k in ks):
        raise ValueError("each k must satisfy 1 <= k <= n-1")
    exponents = [k for k in ks] + [2 * n - k for k in ks]
    return roots_of_unity_sum_is_zero(2 * n, exponents)


def smallest_prime_divisor(n: int) -> int:
    """Smallest prime dividing n (trial division; n >= 2)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_invertible(q: InvertibilityQuery) -> bool:
    """Does the d-dimensional Green's function exist for n = N+1?

    True iff n and d are both odd and either d is smaller than the smallest
    prime divisor of n or n itself is prime.  Even n always admits the
    k = n/2 zero cosine; even d pairs cosines k, n-k off; and for odd
    composite n with smallest prime p <= d a rotated p-cycle avoiding +-1
    supplies a vanishing sum.
    """
    if q.n % 2 == 0 or q.dim % 2 == 0:
        return False
    p = smallest_prime_divisor(q.n)
    return q.dim < p or p == q.n


def invertibility_reason(q: InvertibilityQuery) -> str:
    """Short machine-readable justification for `is_invertible`."""
    if q.dim % 2 == 0:
        return "even dimension"
    if q.n % 2 == 0:
        return "N+1 even"
    p = smallest_prime_divisor(q.n)
    if q.dim < p:
        return f"{q.dim} < {p}"
    if p == q.n:
        return "N+1 prime"
    return f"{q.dim} >= {p}"


def find_vanishing_witness(q: InvertibilityQuery,
                           budget: int = DEFAULT_SEARCH_BUDGET) -> CosineWitness | None:
    """Exhaustive search for a vanishing cosine sum, or None if none exists.

    Enumerates sorted multisets k_1 <= ... <= k_d in lexicographic order
    with branch-and-bound pruning on float partial sums; the last slot is
    located by binary search.  Candidates within the float tolerance are
    confirmed with the exact cyclotomic oracle before being returned, so a
    returned witness is exact and a None answer means the space was fully
    exhausted.  Raises BudgetExhausted after ``budget`` visited nodes.
    """
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
