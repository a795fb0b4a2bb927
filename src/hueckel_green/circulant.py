"""Circulant matrices: determinants, kernels and three inversion routes.

The nearest-neighbour cycle S + S^T is the motivating case: its inverse has
entries 0 and +-1/2 arranged in repeating diagonal patterns whenever N is
not a multiple of 4.  Two independent derivations of that first column are
implemented (the odd/even-row recurrence, and expanding the factorization
of the symbol into geometric series over the Gaussian integers), plus a
general exact inverse for arbitrary rational circulants: the symbol is
inverted modulo x^N - 1 over one word-sized prime by extended Euclid,
lifted p-adically with big-int cyclic products and checked by an integer
certificate, with singularity decided by cyclotomic divisibility.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import CycleTooSmall, InvalidSize, NotSingular, SingularMatrix
from .exact import Rational, as_rational, over_common_denominator
from .vanishing_sums import _divisible_by_cyclotomic, _is_word_prime, _poly_trim

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


class CirculantSpec(namedtuple("CirculantSpec", "first_column")):
    """An N x N circulant, specified by its first column.

    Entry (r, s) is ``first_column[(r - s) mod N]``; the representation is
    therefore closed under inversion.
    """

    __slots__ = ()

    def __new__(cls, first_column: tuple[Rational, ...]):
        first_column = tuple(as_rational(x) for x in first_column)
        if not first_column:
            raise InvalidSize("empty first column")
        return super().__new__(cls, first_column)

    @property
    def n(self) -> int:
        return len(self.first_column)

    @property
    def is_symmetric(self) -> bool:
        x = self.first_column
        return all(x[k] == x[self.n - k] for k in range(1, self.n))


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

    C is the polynomial c(x) = sum_k c_k x^k modulo x^N - 1, so its inverse
    is the inverse of c(x) in that ring.  Scale c by L, the lcm of its
    denominators, to an integer a(x); then C^-1 = L A^-1.  Extended Euclid
    over F_p inverts a(x) modulo x^N - 1 once, at the first prime p below
    2^62 where it can, in O(N^2) word operations.  p-adic lifting (Dixon,
    Numer. Math. 40, 1982) then turns that B = a^-1 mod p into A^-1 e_0
    modulo p^k, one base-p digit per step: y = B r mod p, then the
    residual r <- (r - a y) / p, which stays below |a|_1 in every entry.
    Each step costs O(N) Python operations and two big-int products.  The
    cyclic products B r and a y are done by Kronecker substitution: a, B
    and r are each packed into one int, N slots of about
    log2(N p |a|_1) bits, so a product is one int product folded modulo
    256^(width N) - 1.  After each step the digits are
    rational-reconstructed over one common denominator d, and the answer
    is returned as soon as the integer certificate a * X = d e_0 (a cyclic
    convolution) holds, which proves both that C is invertible and that
    X / d is A^-1 e_0.  No bound and no float decides: reconstruction is
    sure to succeed once p^k exceeds 2 H^2, H the Hadamard bound of A, so
    about 2 log2(H) / log2(p) steps are taken.  Storage is O(N) integers;
    the N x N matrix is never built.

    C is singular exactly when c(x) vanishes at an N-th root of unity, that
    is, when a cyclotomic Phi_m with m | N divides a(x).  Then a(x) has no
    inverse modulo any p, so the first prime that fails runs that exact
    test once: a prime that fails while no Phi_m divides a(x) divides det C
    and is skipped.  The error's ``index`` is the smallest j with
    c(exp(2 pi i j / N)) = 0: 0 when Phi_1 divides, else N/m for the
    largest such m.
    """
    n = spec.n
    a, scale = over_common_denominator(spec.first_column)
    tested = False
    for p in _word_primes():
        inverse = _inverse_mod_p(a, n, p)
        if inverse is not None:
            break
        if not tested:
            _raise_if_singular(a, n)
            tested = True
    numerators, d = _lift(a, inverse, p)
    return CirculantSpec(tuple(Fraction(scale * x, d) for x in numerators))


def _lift(a: list[int], inverse: list[int], p: int) -> tuple[list[int], int]:
    """The certified numerators X and denominator d of A^-1 e_0 = X / d,
    lifted p-adically from ``inverse``, the coefficients of a^-1 mod p.

    The residual r starts at e_0 and keeps a X + p^k r = e_0.  One slot of
    ``width`` bytes holds every cyclic coefficient of B r and a y with a
    bit to spare: both are at most N p |a|_1 in absolute value, because
    |r_k| <= |a|_1 and 0 <= B_k, y_k < p.  Each cyclic coefficient plus
    half therefore lies strictly inside [0, 256^width - 1], so reducing a
    packed product modulo 256^(width N) - 1, which sets x^N = 1 at
    x = 256^width, leaves exactly the packed cyclic product plus
    ``offset``.
    """
    n = len(a)
    width = ((n * p * sum(map(abs, a))).bit_length() + 9) // 8
    shift = 8 * width * n
    mask = (1 << shift) - 1                    # 256^(width N) - 1
    half = 1 << (8 * width - 1)
    offset = _pack([half] * n, width)

    def cyclic(product: int) -> int:
        return ((product & mask) + (product >> shift) + offset) % mask

    packed_inverse = _pack(inverse, width)
    packed_a = (_pack([max(x, 0) for x in a], width)
                - _pack([max(-x, 0) for x in a], width))
    residual = 1                               # r = e_0, packed
    digits = [0] * n
    modulus = 1
    while True:
        data = cyclic(packed_inverse * residual).to_bytes(shift // 8, "little")
        y = [(int.from_bytes(data[i:i + width], "little") - half) % p
             for i in range(0, len(data), width)]
        digits = [x + modulus * v for x, v in zip(digits, y)]
        residual = (residual + offset - cyclic(packed_a * _pack(y, width))) // p
        modulus *= p
        found = _reconstruct(digits, modulus)
        if found is not None and _certifies(a, *found):
            return found


def _pack(coefficients: list[int], width: int) -> int:
    """sum_k c_k 256^(width k), for 0 <= c_k < 256^width."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little")
                                   for c in coefficients), "little")


def _raise_if_singular(a: list[int], n: int) -> None:
    """SingularMatrix if some Phi_m with m | N divides a(x), exactly."""
    coeffs = tuple(a)
    zeros = [m for m in range(1, n + 1)
             if n % m == 0 and _divisible_by_cyclotomic(m, coeffs)]
    if zeros:
        j = 0 if zeros[0] == 1 else n // zeros[-1]
        raise SingularMatrix(f"symbol value {j} vanishes", n=n, index=j)


def _inverse_mod_p(a: list[int], n: int, p: int) -> list[int] | None:
    """Coefficients of a(x)^-1 modulo (x^N - 1, p), or None if a(x) and
    x^N - 1 share a factor over F_p.

    Extended Euclid that tracks only the cofactor t_i of a(x) in
    r_i = s_i (x^N - 1) + t_i a(x).  Polynomials are coefficient lists,
    constant term first, with no trailing zeros.
    """
    r0 = [p - 1] + [0] * (n - 1) + [1]
    r1 = _poly_trim([x % p for x in a])
    t0: list[int] = []
    t1 = [1]
    while len(r1) > 1:
        lead = pow(r1[-1], -1, p)
        top = len(r1) - 1
        rem = r0
        quot = [0] * (len(rem) - top)
        for i in range(len(rem) - 1 - top, -1, -1):
            q = rem[i + top] * lead % p
            quot[i] = q
            if q:
                rem[i:i + top] = [x - q * y for x, y in zip(rem[i:i + top], r1)]
        r0, r1 = r1, _poly_trim([x % p for x in rem[:top]])
        t0, t1 = t1, _poly_sub_mul(t0, quot, t1, p)
    if not r1:
        return None
    unit = pow(r1[0], -1, p)
    return [x * unit % p for x in t1] + [0] * (n - len(t1))


def _poly_sub_mul(t0: list[int], q: list[int], t1: list[int],
                  p: int) -> list[int]:
    """t0 - q t1 over F_p."""
    out = t0 + [0] * max(0, len(q) + len(t1) - 1 - len(t0))
    for i, c in enumerate(q):
        if c:
            out[i:i + len(t1)] = [x - c * y
                                  for x, y in zip(out[i:i + len(t1)], t1)]
    return _poly_trim([x % p for x in out])


def _reconstruct(residues: list[int],
                 modulus: int) -> tuple[list[int], int] | None:
    """One d > 0 and the integers X_k = d residues[k] (mod modulus) of
    least absolute value, or None while some denominator has no
    reconstruction within sqrt(modulus / 2).

    Each entry is reconstructed only when d times it is not already a small
    integer, and its denominator joins d, which stays a divisor of det A
    once the modulus is large enough.
    """
    bound = math.isqrt((modulus - 1) // 2)
    d = 1
    for u in residues:
        w = d * u % modulus
        if w <= bound or modulus - w <= bound:
            continue
        den = _rational_denominator(w, modulus, bound, bound // d)
        if den is None:
            return None
        d *= den
    numerators = []
    for u in residues:
        w = d * u % modulus
        numerators.append(w if w <= bound else w - modulus)
    return numerators, d


def _rational_denominator(u: int, modulus: int, num_bound: int,
                          den_bound: int) -> int | None:
    """The denominator t of the fraction r/t = u (mod modulus) with |r| at
    most num_bound and 0 < t at most den_bound (Wang's half-extended
    Euclid), or None."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    t = abs(t1)
    return t if 0 < t <= den_bound else None


def _certifies(a: list[int], numerators: list[int], d: int) -> bool:
    """a * X = d e_0 as a cyclic convolution of Python ints."""
    n = len(a)
    acc = [0] * n
    for k, ak in enumerate(a):
        if ak:
            shifted = numerators[n - k:] + numerators[:n - k]
            acc = [s + ak * x for s, x in zip(acc, shifted)]
    return acc[0] == d and not any(acc[1:])


def _word_primes():
    """Primes below 2^62 in descending order, an unbounded supply."""
    return map(_word_prime, itertools.count())


@lru_cache(maxsize=None)
def _word_prime(k: int) -> int:
    """The (k+1)-th largest prime below 2^62, found on first use."""
    p = (_word_prime(k - 1) if k else 1 << 62) - 1
    while not _is_word_prime(p):
        p -= 1
    return p
