"""Finite trigonometric sums: the direct Green's function sum and the
closed forms it reduces to.

This module is the independent verification path for the chain results:
it never builds a Hamiltonian and never imports numpy.  The direct sum is
taken in its product-to-sum form, from sums of cosine ratios each rounded
once (`math.fsum`): O(N) per entry, O(N^2) for the whole matrix.  The
pairing residual uses compensated (Kahan) summation.  Angles are reduced
with exact integer arithmetic before calling sin/cos, so the stated
tolerances stay honest up to N = 200.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import (DegenerateAngle, InvalidSize, NearSingularAngle,
                     SingularMatrix, _as_site_pair, _as_size)
from .exact import guard_dense


def kahan_sum(values: Iterable[float]) -> float:
    """Compensated summation; deterministic for a fixed iteration order."""
    total = 0.0
    carry = 0.0
    for v in values:
        y = v - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _sin_pi_ratio(numerator: int, denominator: int) -> float:
    """sin(pi * numerator / denominator) with the angle reduced exactly."""
    m = numerator % (2 * denominator)
    return math.sin(math.pi * m / denominator)


def _cos_pi_ratio(numerator: int, denominator: int) -> float:
    """cos(pi * numerator / denominator) with the angle reduced exactly."""
    m = numerator % (2 * denominator)
    return math.cos(math.pi * m / denominator)


def _cos_ratio_sums(n: int, ms: Iterable[int]) -> list[float]:
    """C(m) = sum_{k=1}^{N} cos(m k w) / cos(k w), w = pi/(N+1), for each m.

    Every cosine is read from one table of cos(j w), j = 0..2N+1, taken at
    exactly reduced angles, and each sum is rounded once (`math.fsum`), so
    C(m) depends on N and m alone: O(N) per m after the O(N) table.
    """
    period = 2 * (n + 1)
    table = [_cos_pi_ratio(j, n + 1) for j in range(period)]
    ks = range(1, n + 1)
    return [math.fsum(table[m * k % period] / table[k] for k in ks) for m in ms]


def _require_even_chain(n: int) -> int:
    n = _as_size(n, "N")
    if n < 1:
        raise InvalidSize(f"N must be >= 1, got N={n}")
    if n % 2:
        raise SingularMatrix("N odd", n=n)
    return n


def _require_positive_even(n: int) -> int:
    n = _as_size(n, "N")
    if n % 2 or n < 2:
        raise InvalidSize("N must be a positive even integer")
    return n


def direct_green_sum(n: int, r: int, s: int) -> float:
    """-(1/(N+1)) sum_{k=1}^{N} sin(r k w) sin(s k w) / cos(k w), w = pi/(N+1).

    By sin(a) sin(b) = [cos(a - b) - cos(a + b)] / 2 the sum is
    (C(r+s) - C(|r-s|)) / (2(N+1)) with C the `_cos_ratio_sums`: O(N), and
    bit for bit its entry of `direct_green_matrix`.  Defined for even N
    only; for odd N one of the cosines vanishes and the sum has a pole.
    """
    n = _require_even_chain(n)
    r, s = _as_site_pair(r, s, n)
    near, far = _cos_ratio_sums(n, (abs(r - s), r + s))
    return (far - near) / (2 * (n + 1))


def direct_green_matrix(n: int) -> list[list[float]]:
    """Every entry of `direct_green_sum`, as rows of floats, in O(N^2).

    The matrix is Toeplitz minus Hankel: its N^2 entries are read from the
    2N + 1 sums C(0), ..., C(2N), each formed once.  Guarded like every
    dense builder.
    """
    n = _require_even_chain(n)
    guard_dense(n)
    c = _cos_ratio_sums(n, range(2 * n + 1))
    scale = 2 * (n + 1)
    sites = range(1, n + 1)
    return [[(c[r + s] - c[abs(r - s)]) / scale for s in sites] for r in sites]


def sum_cos(nprime: int, theta: float) -> float:
    """Closed form of sum_{n=0}^{N'} cos(n theta)."""
    if nprime < 0:
        raise ValueError("term count must be non-negative")
    half = math.sin(theta / 2.0)
    if abs(half) <= 1e-12:
        raise NearSingularAngle(f"sin(theta/2) = {half:.3e}")
    return math.cos(nprime * theta / 2.0) * math.sin((nprime + 1) * theta / 2.0) / half


def sum_sin(nprime: int, theta: float) -> float:
    """Closed form of sum_{n=0}^{N'} sin(n theta)."""
    if nprime < 0:
        raise ValueError("term count must be non-negative")
    half = math.sin(theta / 2.0)
    if abs(half) <= 1e-12:
        raise NearSingularAngle(f"sin(theta/2) = {half:.3e}")
    return math.sin(nprime * theta / 2.0) * math.sin((nprime + 1) * theta / 2.0) / half


def sine_ratio_sign(n: int, k: int) -> int:
    """The sign identity sin(pi N k/(N+1)) / sin(pi k/(N+1)) = -(-1)^k.

    Returns the right-hand side after checking the float ratio agrees to
    1e-9.  k multiples of N+1 make both sines vanish.
    """
    n = _require_positive_even(n)
    k = _as_size(k, "k", 1)
    if k % (n + 1) == 0:
        raise DegenerateAngle(f"k = {k} is a multiple of N+1 = {n + 1}")
    expected = 1 if k % 2 else -1
    ratio = _sin_pi_ratio(n * k, n + 1) / _sin_pi_ratio(k, n + 1)
    if abs(ratio - expected) > 1e-9:
        raise ArithmeticError(
            f"sine ratio {ratio!r} drifted from {expected} at N={n}, k={k}")
    return expected


def parity_zero_sum(n: int, q: int) -> float:
    """Residual of sum_k cos(2 q k w)/cos(k w) evaluated by pairing.

    Terms k and N+1-k have equal numerators and opposite-sign denominators,
    so each pair cancels; the returned value is the float residual of that
    pairing (expected ~0).
    """
    n, q = _require_positive_even(n), _as_size(q, "q")
    if not 1 <= 2 * q <= n:
        raise ValueError("need 1 <= 2q <= N")
    np1 = n + 1
    omega = math.pi / np1

    def pair(k: int) -> float:
        a = _cos_pi_ratio(2 * q * k, np1) / math.cos(k * omega)
        b = _cos_pi_ratio(2 * q * (np1 - k), np1) / math.cos((np1 - k) * omega)
        return a + b

    return kahan_sum(pair(k) for k in range(1, n // 2 + 1))

