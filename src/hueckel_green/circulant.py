"""Circulant matrices: determinants, kernels and three inversion routes.

The nearest-neighbour cycle S + S^T is the motivating case: its inverse has
entries 0 and +-1/2 arranged in repeating diagonal patterns whenever N is
not a multiple of 4.  Two independent derivations of that first column are
implemented (the odd/even-row recurrence, and expanding the factorization
of the symbol into geometric series over the Gaussian integers), plus a
general exact inverse for arbitrary rational circulants: the symbol is
inverted modulo x^N - 1 over one word-sized prime p = 1 (mod 2N) by one
chirp-z DFT pair (O(N) Python operations and two big-int products), then
lifted p-adically for the k = min{k : p^k > 2 (sum_j a_j^2)^N} steps that
the Hadamard bound fixes, then rational-reconstructed and checked by an
integer certificate once; singularity is decided by cyclotomic divisibility.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import (CycleTooSmall, InvalidSize, NotSingular, SingularMatrix,
                     _as_size)
from .exact import Rational, as_rational, over_common_denominator
from .vanishing_sums import (_divisible_by_cyclotomic, _is_word_prime,
                             _key_prime, _root_of_unity)

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
    n = _as_size(n, "N")
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
    n = _as_size(n, "N")
    det = det_cyclic(n)
    if det:
        raise NotSingular(f"cycle of size {n} is invertible (det {det})")
    reps = n // 4
    return (0, -1, 0, 1) * reps, (1, 0, -1, 0) * reps


def cyclic_inverse_first_column(n: int) -> CirculantSpec:
    """First column of the inverse cycle via the odd/even row recurrence.

    x_1 = 1/2, odd entries alternate down the column, even entries alternate
    starting from x_0, and x_0 itself is pinned by the wrap-around equation
    x_0 = -x_{N-2}.  For N = 4k that equation degenerates and the matrix is
    singular.  The Green's function is the negation of this column.
    """
    n = _as_size(n, "N")
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
    n = _as_size(n, "N")
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
    denominators, to an integer a(x); then C^-1 = L A^-1.  a(x) is
    inverted modulo x^N - 1 over F_p once, at the first prime p = 1
    (mod 2N) below 2^62 where it can.  Over such a p, x^N - 1 splits into
    distinct linear factors, so the inverse is a DFT, N inversions in F_p
    and an inverse DFT.  Each DFT is one chirp-z transform (Bluestein,
    IEEE Trans. Audio Electroacoust. 18, 1970): O(N) Python operations and
    one big-int product.  p-adic lifting (Dixon, Numer. Math. 40, 1982)
    then turns that B = a^-1 mod p into A^-1 e_0 modulo p^k, one base-p
    digit per step: y = B r mod p, then the residual r <- (r - a y) / p,
    which stays below |a|_1 in every entry.  The step count is fixed in
    advance, k = min{k : p^k > 2 (sum_j a_j^2)^N}, about N log2|a|_2 / 31
    (`_lift`); each step costs O(N) Python operations and two big-int
    cyclic products by Kronecker substitution.  Then the digits are
    rational-reconstructed once over one denominator d, and the integer
    certificate a * X = d e_0, checked once, proves both that C is
    invertible and that X / d is A^-1 e_0; no float decides.  Storage is
    O(N) integers.  This is the one library route with no size guard:
    measured per call on random columns, 0.09 s at N = 256 and 0.64 s at
    N = 512 (dominant ones 0.15 s and 1.1 s), growing about as N^2.8.

    C is singular exactly when c(x) vanishes at an N-th root of unity, that
    is, when a cyclotomic Phi_m with m | N divides a(x).  Then a(x) has no
    inverse modulo any p (a DFT value is 0), so the first prime that fails
    runs that exact test once: a prime that fails while no Phi_m divides
    a(x) divides det C and is skipped.  The error's ``index`` is the
    smallest j with c(exp(2 pi i j / N)) = 0: 0 when Phi_1 divides, else
    N/m for the largest such m.
    """
    n = spec.n
    a, scale = over_common_denominator(spec.first_column)
    tested = False
    for p in _primes(n):
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

    One reconstruction at the first p^k > 2 H^2, H = |a|_2^N, is enough.
    Every row of A has norm |a|_2, so |det A| and every cofactor are at
    most H (Hadamard).  The denominator d that `_reconstruct` collects is
    the lcm of the entries' denominators so far, a divisor of det A, so
    each numerator it meets is at most H and each denominator at most
    H / d, within its bound isqrt((p^k - 1) / 2) >= H.  The integer
    certificate still decides: if it fails (a wrong seed), ArithmeticError.
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
    limit = 2 * sum(x * x for x in a) ** n     # 2 H^2
    while modulus <= limit:
        data = cyclic(packed_inverse * residual).to_bytes(shift // 8, "little")
        y = [(int.from_bytes(data[i:i + width], "little") - half) % p
             for i in range(0, len(data), width)]
        digits = [x + modulus * v for x, v in zip(digits, y)]
        residual = (residual + offset - cyclic(packed_a * _pack(y, width))) // p
        modulus *= p
    found = _reconstruct(digits, modulus)
    if found is None or not _certifies(a, *found):
        raise ArithmeticError("p-adic lift did not certify an inverse")
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
    x^N - 1 share a factor over F_p, for a prime p = 1 (mod 2N).

    Let chi = psi^(N+1), psi a primitive 2N-th root of unity; chi^2 = psi^2
    is a primitive N-th root, and chi^(m^2) depends on m mod N only.  Then
    2jk = j^2 + k^2 - (j-k)^2 gives the DFT value a(chi^(2j)) =
    chi^(j^2) s_j with the cyclic convolution
    s_j = sum_k (a_k chi^(k^2)) chi^(-(j-k)^2), so a(x) is a unit exactly
    when no s_j is 0.  The inverse DFT of the values 1 / a(chi^(2j)) is,
    at k, the same transform of them at -k mod N, divided by N; their
    factor chi^(-j^2) cancels the transform's chi^(j^2), so it is
    chi^(k^2) / N times sum_j s_j^-1 chi^(-(k-j)^2), read at -k.  The N
    values s_j are inverted with one modular inverse (Montgomery's trick).
    """
    chirp, kernel, unchirp, width = _chirp(n, p)
    sums = _convolve([x * c % p for x, c in zip(a, chirp)], kernel, width, p)
    prefix = []
    acc = 1
    for s in sums:
        prefix.append(acc)
        acc = acc * s % p
    if not acc:
        return None
    acc = pow(acc, -1, p)
    inverses = [0] * n
    for j in range(n - 1, -1, -1):
        inverses[j] = acc * prefix[j] % p
        acc = acc * sums[j] % p
    back = [x * c % p for x, c in zip(_convolve(inverses, kernel, width, p),
                                      unchirp)]
    return back[:1] + back[:0:-1]


def _convolve(u: list[int], kernel: int, width: int, p: int) -> list[int]:
    """The cyclic convolution sum_k u_k chi^(-(j-k)^2) mod p, j < N = len(u),
    of residues 0 <= u_k < p.

    ``kernel`` packs chi^(-m^2), m < N, into slots of ``width`` bytes,
    which hold any sum of N products of residues.  So the packed product
    has no carries, and adding its slots N .. 2N-2 onto slots 0 .. N-2
    leaves the cyclic sums.
    """
    n = len(u)
    product = _pack(u, width) * kernel
    shift = 8 * width * n
    data = ((product & ((1 << shift) - 1)) + (product >> shift)).to_bytes(
        width * n, "little")
    return [int.from_bytes(data[i:i + width], "little") % p
            for i in range(0, width * n, width)]


@lru_cache(maxsize=64)
def _chirp(n: int, p: int) -> tuple[list[int], int, list[int], int]:
    """The tables of the chirp-z DFT of length N over F_p: chi^(k^2) and
    chi^(k^2) / N for k < N, the packed chi^(-m^2) for m < N, and the slot
    width in bytes; chi = psi^(N+1), psi the primitive 2N-th root that
    `_root_of_unity` picks."""
    chi = pow(_root_of_unity(2 * n, p), n + 1, p)
    width = ((n * (p - 1) ** 2).bit_length() + 7) // 8
    chirp = [pow(chi, k * k, p) for k in range(n)]
    scale = pow(n, -1, p)
    unchirp = [scale * c % p for c in chirp]
    kernel = _pack([pow(c, -1, p) for c in chirp], width)
    return chirp, kernel, unchirp, width


def _reconstruct(residues: list[int],
                 modulus: int) -> tuple[list[int], int] | None:
    """One d > 0 and the integers X_k = d residues[k] (mod modulus) of
    least absolute value, or None if some denominator has no
    reconstruction within sqrt(modulus / 2).  Each entry is reconstructed
    only when d times it is not already a small integer, and its
    denominator joins d."""
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
    """a * X = d e_0 as N^2 products of a small a_k by a numerator.  The
    numerators carry about N log2 |a|_2 bits, so one packed product, as in
    `_lift`, pads every a_k to that width: slower on random columns, 35
    against 14 ms at N = 256 and 0.37 against 0.12 s at N = 512."""
    n = len(a)
    acc = [0] * n
    for k, ak in enumerate(a):
        if ak:
            shifted = numerators[n - k:] + numerators[:n - k]
            acc = [s + ak * x for s, x in zip(acc, shifted)]
    return acc[0] == d and not any(acc[1:])


def _primes(n: int):
    """Primes p = 1 (mod 2N) below 2^62 in descending order, from
    `_key_prime`'s; an unbounded supply."""
    p = _key_prime(n)[0]
    while True:
        yield p
        p -= 2 * n
        while not _is_word_prime(p):
            p -= 2 * n
