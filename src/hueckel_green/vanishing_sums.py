"""Existence of the d-dimensional Green's function as a number-theory question.

The lattice Hamiltonian is invertible iff no d cosines cos(k_i pi / n)
(with n = N+1, 1 <= k_i <= n-1) sum to zero.  Three tools live here:

* an exact zero test for cosine sums, working in the ring of cyclotomic
  integers: the sum vanishes iff the corresponding integer polynomial is
  divisible by the 2n-th cyclotomic polynomial;
* the closed-form predicate deciding invertibility from the parity of d
  and the smallest prime divisor of n;
* an exhaustive witness search that uses no floats.  Each cosine is keyed
  by its exact image zeta^k + zeta^-k in F_p, zeta a primitive 2n-th root
  of unity modulo a prime p = 1 (mod 2n); keys that do not sum to zero
  prove a nonzero sum.  The search meets in the middle: the key sums of
  all floor(d/2)-multisets go into one table, the ceil(d/2)-multisets are
  walked in lexicographic order looking up their negated key sums, and a
  match is returned only once the cyclotomic test confirms it, so the
  answer is the lexicographically smallest witness.  Its budget counts
  table entries plus walked heads.

For odd prime n every rotated prime cycle of 2n-th roots of unity contains
+-1, so no vanishing sum of d cosines exists for *any* odd d; the predicate
treats that boundary accordingly (it is what exhaustive search and the
matrix spectra confirm, e.g. the 2x2x2 cube lattice with n = 3 has
eigenvalues +-1, +-3 and is invertible).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import BudgetExhausted, InvalidSize, _as_size

DEFAULT_SEARCH_BUDGET = 10_000_000


class InvertibilityQuery(namedtuple("InvertibilityQuery", "dim n")):
    """Dimension d and n = N+1 for one lattice existence question."""

    __slots__ = ()

    def __new__(cls, dim: int, n: int):
        dim, n = _as_size(dim, "dimension"), _as_size(n, "n")
        if dim < 1:
            raise InvalidSize("dimension must be >= 1")
        if n < 2:
            raise InvalidSize("n must be >= 2")
        return super().__new__(cls, dim, n)


class CosineWitness(namedtuple("CosineWitness", "ks")):
    """Sorted mode numbers whose cosine sum vanishes exactly."""

    __slots__ = ()


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


def _divisible_by_cyclotomic(m: int, coeffs: list[int] | tuple[int, ...]) -> bool:
    phi = cyclotomic_polynomial(m)
    work = list(coeffs)
    if m % 2 == 0:
        # Phi_m divides x^(m/2) + 1: reduce by x^(m/2) = -1 first, which
        # halves a 2n-th-root cosine sum before the long division
        half = m // 2
        for i in range(len(work) - 1, half - 1, -1):
            work[i - half] -= work[i]
        del work[half:]
    work = _poly_trim(work)
    deg_phi = len(phi) - 1
    for i in range(len(work) - 1 - deg_phi, -1, -1):
        coef = work[i + deg_phi]
        if coef:
            for j, d in enumerate(phi):
                work[i + j] -= coef * d
    return not any(work)


def roots_of_unity_sum_is_zero(modulus: int, exponents) -> bool:
    """Exact test of sum_i zeta_modulus^{e_i} = 0 (with multiplicity).

    The sum is the polynomial of exponent counts modulo x^modulus - 1; it
    vanishes iff the modulus-th cyclotomic polynomial divides it.
    """
    coeffs = [0] * modulus
    for e in exponents:
        coeffs[e % modulus] += 1
    return _divisible_by_cyclotomic(modulus, coeffs)


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

    The prime boundary: for prime n the only primes dividing 2n are 2 and
    n, so every vanishing sum of 2n-th roots of unity with nonnegative
    coefficients is a sum of rotated 2- and n-cycles (Lam and Leung,
    J. Algebra 224 (2000); Conway and Jones, Acta Arith. 30 (1976), for the
    short sums).  Every rotated n-cycle contains +1 or -1, which no
    cos(k pi / n) with 1 <= k <= n-1 supplies, so a vanishing sum pairs
    each k with n - k and d is even.
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

    Meet in the middle over exact keys.  Each cos(k pi / n) is keyed by its
    image zeta^k + zeta^-k in F_p, zeta a primitive 2n-th root of unity
    modulo a prime p = 1 (mod 2n) (`_cosine_keys`); reduction modulo p is a
    ring map from the cyclotomic integers, so a multiset whose keys do not
    sum to 0 has a nonzero cosine sum.  A sorted d-multiset splits into a
    head of ceil(d/2) and a tail of floor(d/2) mode numbers with the tail's
    first at least the head's last.  Every tail is hashed by its key sum;
    the heads are then walked in lexicographic order, each looking up the
    negation of its key sum, and a match is returned only once
    `cosine_sum_is_zero_exact` confirms it.  Heads in order and each key's
    tails in order make the answer the lexicographically smallest witness,
    and None means the space was fully exhausted.

    ``budget`` bounds the table entries plus the heads walked.  The table
    holds C(n - 2 + floor(d/2), floor(d/2)) entries; when that leaves no
    room for a head, BudgetExhausted is raised before anything is built,
    otherwise once the walk would pass the budget.
    """
    n, d = q.n, q.dim
    head_len, tail_len = d - d // 2, d // 2
    visited = _multiset_count(n, tail_len)
    if visited >= budget:
        raise _exhausted(q, budget)
    p, keys = _cosine_keys(n)
    levels = _sorted_multisets(n, tail_len, keys, p)
    table = _tail_table(*levels[tail_len])
    top = n ** (tail_len - 1) if tail_len else 0    # tail < k * top: first < k
    for prefix_key, prefix in zip(*levels[head_len - 1]):
        low = prefix % n or 1                       # the head's last is >= low
        stop = min(n, low + budget - visited)
        visited += stop - low
        target = -prefix_key
        for k in [k for k in range(low, stop) if (target - keys[k]) % p in table]:
            tails = table[(target - keys[k]) % p]
            head = _unpack(prefix, head_len - 1, n) + (k,)
            for tail in tails if type(tails) is list else (tails,):
                if tail < k * top:
                    continue
                ks = head + _unpack(tail, tail_len, n)
                if cosine_sum_is_zero_exact(n, ks):
                    return CosineWitness(ks)
        if stop < n:
            raise _exhausted(q, budget)
    return None


def _exhausted(q: InvertibilityQuery, budget: int) -> BudgetExhausted:
    return BudgetExhausted(
        f"witness search for d={q.dim}, n={q.n} exceeded {budget} nodes")


def _multiset_count(n: int, size: int) -> int:
    """C(n - 2 + size, size): sorted size-multisets of 1..n-1."""
    count = 1
    for i in range(1, size + 1):
        count = count * (n - 2 + i) // i
    return count


def _sorted_multisets(n: int, size: int, keys, p: int) -> list[tuple[list, list]]:
    """(key sums mod p, packed multisets) of the sorted j-multisets of
    1..n-1 for each j = 0..size, in lexicographic order.

    A multiset packs big-endian in base n, so packed order is
    lexicographic order.  The j-multisets starting with k are k followed by
    the (j-1)-multisets starting at k or later, a suffix of level j-1.
    """
    sums, packs, starts = [0], [0], [0] * n
    levels = [(sums, packs)]
    for j in range(1, size + 1):
        high = n ** (j - 1)
        next_sums: list[int] = []
        next_packs: list[int] = []
        next_starts = [0] * n
        for k in range(1, n):
            next_starts[k] = len(next_sums)
            lo, key, head = starts[k], keys[k], k * high
            next_sums += [(key + s) % p for s in sums[lo:]]
            next_packs += [head + x for x in packs[lo:]]
        sums, packs, starts = next_sums, next_packs, next_starts
        levels.append((sums, packs))
    return levels


def _tail_table(sums: list[int], packs: list[int]) -> dict:
    """Key sum -> packed tail, or a list of tails in order when keys collide."""
    table: dict = {}
    for key, packed in zip(sums, packs):
        found = table.get(key)
        if found is None:
            table[key] = packed
        elif type(found) is list:
            found.append(packed)
        else:
            table[key] = [found, packed]
    return table


def _unpack(packed: int, size: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(size):
        packed, k = divmod(packed, n)
        digits.append(k)
    return tuple(reversed(digits))


def _cosine_keys(n: int) -> tuple[int, list[int]]:
    """p and the key zeta^k + zeta^-k mod p of every k in 0..n-1."""
    p, zeta = _key_prime(n)
    inverse = pow(zeta, -1, p)
    keys, up, down = [], 1, 1
    for _ in range(n):
        keys.append((up + down) % p)
        up, down = up * zeta % p, down * inverse % p
    return p, keys


@lru_cache(maxsize=None)
def _key_prime(n: int) -> tuple[int, int]:
    """The largest prime p = 1 (mod 2n) below 2^62, and the primitive 2n-th
    root of unity modulo p that `_root_of_unity` picks.  The cosine keys
    here and the circulant's chirp-z transform both start from this pair."""
    m = 2 * n
    p = ((1 << 62) - 2) // m * m + 1
    while not _is_word_prime(p):
        p -= m
    return p, _root_of_unity(m, p)


def _root_of_unity(m: int, p: int) -> int:
    """A primitive m-th root of unity modulo a prime p = 1 (mod m): the
    first g^((p-1)/m), g = 2, 3, ..., whose order is not a proper divisor
    of m."""
    factors = set()
    rest = m
    while rest > 1:
        f = smallest_prime_divisor(rest)
        factors.add(f)
        rest //= f
    g = 2
    while True:
        zeta = pow(g, (p - 1) // m, p)
        if all(pow(zeta, m // f, p) != 1 for f in factors):
            return zeta
        g += 1


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_word_prime(m: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which is exact
    for every m below 3.18e23 (Sorenson and Webster, 2016)."""
    if m < 2:
        return False
    for w in _WITNESSES:
        if m % w == 0:
            return m == w
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True
