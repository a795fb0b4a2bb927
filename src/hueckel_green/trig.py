"""Finite trigonometric sums: the direct Green's function sum and the
closed forms it reduces to.

This module is the independent verification path for the chain results:
it never touches a matrix.  Float evaluation uses compensated (Kahan)
summation, and angles are reduced with exact integer arithmetic before
calling sin/cos, so the stated tolerances stay honest up to N = 200.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from .errors import DegenerateAngle, IndexOutOfRange, NearSingularAngle, SingularMatrix

if TYPE_CHECKING:
    import numpy as np


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


def direct_green_sum(n: int, r: int, s: int) -> float:
    """-(1/(N+1)) sum_{k=1}^{N} sin(r k w) sin(s k w) / cos(k w), w = pi/(N+1).

    Defined for even N only; for odd N one of the cosines vanishes and the
    sum has a pole.
    """
    if n % 2:
        raise SingularMatrix("N odd", n=n)
    if not (1 <= r <= n and 1 <= s <= n):
        raise IndexOutOfRange(f"({r}, {s}) outside 1..{n}")
    np1 = n + 1
    omega = math.pi / np1
    terms = (_sin_pi_ratio(r * k, np1) * _sin_pi_ratio(s * k, np1)
             / math.cos(k * omega) for k in range(1, n + 1))
    return -kahan_sum(terms) / np1


def direct_green_matrix(n: int) -> np.ndarray:
    """All entries of the direct sum at once (vectorized bulk variant).

    Same quantity as `direct_green_sum` for every (r, s); used where a full
    sweep over pairs would make the per-entry loop the bottleneck.
    """
    import numpy as np

    if n % 2:
        raise SingularMatrix("N odd", n=n)
    np1 = n + 1
    idx = np.arange(1, n + 1)
    table = np.sin(np.pi * (np.outer(idx, idx) % (2 * np1)) / np1)  # sin(rkw)
    inv_cos = 1.0 / np.cos(np.pi * idx / np1)
    return -(table * inv_cos) @ table.T / np1


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
    if n % 2 or n < 2:
        raise ValueError("N must be a positive even integer")
    if k < 1:
        raise ValueError("k must be >= 1")
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
    if n % 2 or n < 2:
        raise ValueError("N must be a positive even integer")
    if not 1 <= 2 * q <= n:
        raise ValueError("need 1 <= 2q <= N")
    np1 = n + 1
    omega = math.pi / np1

    def pair(k: int) -> float:
        a = _cos_pi_ratio(2 * q * k, np1) / math.cos(k * omega)
        b = _cos_pi_ratio(2 * q * (np1 - k), np1) / math.cos((np1 - k) * omega)
        return a + b

    return kahan_sum(pair(k) for k in range(1, n // 2 + 1))


def _cos_pi_ratio(numerator: int, denominator: int) -> float:
    m = numerator % (2 * denominator)
    return math.cos(math.pi * m / denominator)
