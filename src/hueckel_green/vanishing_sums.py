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
from itertools import count
from math import gcd

from .errors import BudgetExhausted, TooLarge, _as_size

DEFAULT_SEARCH_BUDGET = 10_000_000
# smallest_prime_divisor trial-divides up to here, so every n below 10^6
# takes the plain trial-division path.
_TRIAL_BOUND = 1000
# `_is_word_prime` is exact below this (Sorenson and Webster, 2016).
_WORD_PRIME_LIMIT = 318_665_857_834_031_151_167_461


class InvertibilityQuery(namedtuple("InvertibilityQuery", "dim n")):
    """Dimension d and n = N+1 for one lattice existence question."""

    __slots__ = ()

    def __new__(cls, dim: int, n: int):
        return super().__new__(cls, _as_size(dim, "dimension", 1),
                               _as_size(n, "n", 2))


class CosineWitness(namedtuple("CosineWitness", "ks")):
    """Sorted mode numbers whose cosine sum vanishes exactly."""

    __slots__ = ()


def _poly_divmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the integer polynomial ``num`` by the
    monic ``den``, constant terms first, by long division from the top
    once num's zero top coefficients are dropped.  The remainder is padded
    with zeros to the trimmed length."""
    rem = list(num)
    while rem and rem[-1] == 0:
        rem.pop()
    deg = len(den) - 1
    quotient = [0] * max(0, len(rem) - deg)
    for i in range(len(rem) - 1 - deg, -1, -1):
        coef = rem[i + deg]
        if coef:
            quotient[i] = coef
            for j, d in enumerate(den):
                rem[i + j] -= coef * d
    return quotient, rem


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by exactly dividing x^m - 1 by the cyclotomic polynomials of
    all proper divisors; cached immutably.
    """
    return _cyclotomic(_as_size(m, "m", 1))


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple[int, ...]:
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, _cyclotomic(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(num)


def _divisible_by_cyclotomic(m: int, coeffs: list[int] | tuple[int, ...]) -> bool:
    if m % 2 == 0:
        # Phi_m divides x^(m/2) + 1: reduce by x^(m/2) = -1 first, which
        # halves a 2n-th-root cosine sum before the long division
        half = m // 2
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, half - 1, -1):
            coeffs[i - half] -= coeffs[i]
        del coeffs[half:]
    return not any(_poly_divmod(coeffs, _cyclotomic(m))[1])


def roots_of_unity_sum_is_zero(modulus: int, exponents) -> bool:
    """Exact test of sum_i zeta_modulus^{e_i} = 0 (with multiplicity).

    The sum is the polynomial of exponent counts modulo x^modulus - 1; it
    vanishes iff the modulus-th cyclotomic polynomial divides it.
    """
    modulus = _as_size(modulus, "modulus", 1)
    coeffs = [0] * modulus
    for e in exponents:
        coeffs[_as_size(e, "exponent") % modulus] += 1
    return _divisible_by_cyclotomic(modulus, coeffs)


def cosine_sum_is_zero_exact(n: int, ks) -> bool:
    """Exact decision of sum_i cos(k_i pi / n) = 0.

    Each cosine is zeta^k + zeta^-k = zeta^k - zeta^(n-k) up to a harmless
    factor of two, zeta a primitive 2n-th root of unity, so the sum
    vanishes iff the 2n-th cyclotomic polynomial divides
    sum_i x^k_i - x^(n-k_i): the polynomial the x^n = -1 reduction of
    `_divisible_by_cyclotomic` would leave of the 2n exponents.
    """
    n = _as_size(n, "n", 1)
    coeffs = [0] * n
    for k in ks:
        k = _as_size(k, "k")
        if not 1 <= k <= n - 1:
            raise ValueError("each k must satisfy 1 <= k <= n-1")
        coeffs[k] += 1
        coeffs[n - k] -= 1
    return _divisible_by_cyclotomic(2 * n, coeffs)


def smallest_prime_divisor(n: int) -> int:
    """Smallest prime dividing n >= 2.

    Trial division by 2 and the odd f up to 1 000 answers every n below
    10^6 and every n with a factor that small.  Past that, n is prime if
    `_is_word_prime` says so, which is exact below 3.18e23, and otherwise
    Pollard-Brent rho splits it (`_smallest_factor`): about p^(1/2)
    multiplications for the smallest prime factor p, at most n^(1/4).
    An n past 3.18e23 with no factor up to 1 000 is refused with TooLarge
    rather than factored without a proof.
    """
    n = _as_size(n, "n", 2)
    if n % 2 == 0:
        return 2
    f = 3
    while f <= _TRIAL_BOUND and f * f <= n:
        if n % f == 0:
            return f
        f += 2
    if f * f > n:
        return n
    if n >= _WORD_PRIME_LIMIT:
        raise TooLarge(
            f"n = {n} has no prime factor up to {_TRIAL_BOUND} and lies past "
            f"the proven Miller-Rabin range ({_WORD_PRIME_LIMIT})")
    return _smallest_factor(n)


def _smallest_factor(n: int) -> int:
    """Smallest prime factor of an n below `_WORD_PRIME_LIMIT`."""
    if _is_word_prime(n):
        return n
    f = _rho_factor(n)
    return min(_smallest_factor(f), _smallest_factor(n // f))


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard's rho with
    Brent's cycle finding and gcds batched over 128 steps (Brent, BIT 20,
    1980).  The walks x -> x^2 + c start at 2 with c = 1, 2, ... in turn,
    so the answer is the same on every run."""
    for c in count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            r *= 2
        if g == n:              # the batch overshot: replay it step by step
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g


def _verdict(q: InvertibilityQuery) -> tuple[bool, str]:
    """`is_invertible` and `invertibility_reason` of one query."""
    if q.dim % 2 == 0:
        return False, "even dimension"
    if q.n % 2 == 0:
        return False, "N+1 even"
    p = smallest_prime_divisor(q.n)
    if q.dim < p:
        return True, f"{q.dim} < {p}"
    if p == q.n:
        return True, "N+1 prime"
    return False, f"{q.dim} >= {p}"


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
    return _verdict(q)[0]


def invertibility_reason(q: InvertibilityQuery) -> str:
    """Short machine-readable justification for `is_invertible`."""
    return _verdict(q)[1]


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
    otherwise once the walk would pass the budget.  At d = 1 the walk
    reads at most ``budget`` modes, so only their keys are formed.
    """
    n, d, budget = q.n, q.dim, _as_size(budget, "budget")
    head_len, tail_len = d - d // 2, d // 2
    visited = _multiset_count(n, tail_len)
    if visited >= budget:
        raise _exhausted(q, budget)
    p, keys = _cosine_keys(n, n if tail_len else min(n, budget + 1))
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
    sums, packs, starts = [0], [0], [0] * n if size else []
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


def _cosine_keys(n: int, size: int) -> tuple[int, list[int]]:
    """p and the key zeta^k + zeta^-k mod p of every k below ``size``."""
    p, zeta = _key_prime(n)
    inverse = pow(zeta, -1, p)
    keys, up, down = [], 1, 1
    for _ in range(size):
        keys.append((up + down) % p)
        up, down = up * zeta % p, down * inverse % p
    return p, keys


@lru_cache(maxsize=None)
def _key_prime(n: int) -> tuple[int, int]:
    """The largest prime p = 1 (mod 2n) below 2^62, and the primitive 2n-th
    root of unity modulo p that `_root_of_unity` picks.  The cosine keys
    here and the circulant's chirp-z transform both start from this pair.
    TooLarge if there is no such prime, as for n = 2^60 + 1."""
    m = 2 * n
    p = ((1 << 62) - 2) // m * m + 1
    while p > m and not _is_word_prime(p):
        p -= m
    if p <= m:
        raise TooLarge(f"no key prime p = 1 (mod 2n) lies below 2^62 for n = {n}")
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
