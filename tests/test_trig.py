"""Finite trig sums: closed forms vs direct summation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hueckel_green import (ChainSpec, DegenerateAngle, InvalidSize,
                           NearSingularAngle, SingularMatrix, Topology,
                           direct_green_matrix, direct_green_sum, green_matrix,
                           kahan_sum, parity_zero_sum, sine_ratio_sign,
                           sum_cos, sum_sin)

from oracles import naive_green_sum


@pytest.mark.parametrize("n,r,s,expected,tol", [
    (2, 1, 2, -1.0, 1e-12),
    (6, 2, 4, 0.0, 1e-10),
    (6, 4, 1, 1.0, 1e-10),
])
def test_direct_green_sum_examples(n, r, s, expected, tol):
    assert direct_green_sum(n, r, s) == pytest.approx(expected, abs=tol)


def test_direct_green_sum_odd_singular():
    with pytest.raises(SingularMatrix):
        direct_green_sum(3, 1, 2)


@settings(max_examples=50)
@given(n=st.integers(1, 20), r=st.integers(1, 40), s=st.integers(1, 40))
def test_direct_sum_matches_naive_oracle(n, r, s):
    n = 2 * n
    r = (r - 1) % n + 1
    s = (s - 1) % n + 1
    assert direct_green_sum(n, r, s) == pytest.approx(
        naive_green_sum(n, r, s), abs=1e-9)


@pytest.mark.parametrize("n", [2, 8, 30, 60, 200])
def test_bulk_matrix_matches_entrywise(n):
    # bit for bit: both read the same two cosine-ratio sums per entry
    bulk = direct_green_matrix(n)
    rows = range(1, n + 1) if n <= 60 else (1, 2, n // 3, n // 2, n - 1, n)
    for r in rows:
        for s in range(1, n + 1):
            assert bulk[r - 1][s - 1].hex() == direct_green_sum(n, r, s).hex()


@pytest.mark.parametrize("call", [
    lambda: direct_green_matrix(0), lambda: direct_green_matrix(-2),
    lambda: direct_green_matrix(-1), lambda: direct_green_sum(0, 1, 1),
    lambda: direct_green_sum(-2, 1, 1),
])
def test_direct_sums_refuse_an_empty_chain(call):
    # Regression: N = 0 gave an empty matrix and an IndexOutOfRange entry.
    with pytest.raises(InvalidSize, match="^N must be >= 1, got N=-?[012]$"):
        call()


def test_sum_cos_examples():
    assert sum_cos(1, math.pi / 2) == pytest.approx(1.0, abs=1e-14)
    assert sum_cos(0, 0.7) == pytest.approx(1.0, abs=1e-14)
    direct = kahan_sum(math.cos(k * 0.7) for k in range(6))
    assert sum_cos(5, 0.7) == pytest.approx(direct, abs=1e-11)


def test_sum_sin_examples():
    assert sum_sin(0, 1.2) == 0.0
    assert sum_sin(1, math.pi / 2) == pytest.approx(1.0, abs=1e-14)
    direct = kahan_sum(math.sin(k * 1.1) for k in range(8))
    assert sum_sin(7, 1.1) == pytest.approx(direct, abs=1e-11)


@settings(max_examples=200)
@given(nprime=st.integers(0, 50),
       theta=st.floats(0.01, math.pi - 0.01, allow_nan=False))
def test_closed_sums_match_direct(nprime, theta):
    direct_c = kahan_sum(math.cos(k * theta) for k in range(nprime + 1))
    direct_s = kahan_sum(math.sin(k * theta) for k in range(nprime + 1))
    assert sum_cos(nprime, theta) == pytest.approx(direct_c, abs=1e-11)
    assert sum_sin(nprime, theta) == pytest.approx(direct_s, abs=1e-11)


def test_near_singular_angle_rejected():
    with pytest.raises(NearSingularAngle):
        sum_cos(3, 1e-13)
    with pytest.raises(NearSingularAngle):
        sum_sin(3, 2 * math.pi)


@pytest.mark.parametrize("n,k,expected", [(6, 1, 1), (6, 2, -1), (10, 3, 1)])
def test_sine_ratio_examples(n, k, expected):
    assert sine_ratio_sign(n, k) == expected


def test_sine_ratio_verifies_float_identity():
    # the float ratio itself matches -(-1)^k
    for n in (6, 10):
        for k in range(1, 3 * n + 1):
            if k % (n + 1) == 0:
                continue
            ratio = (math.sin(math.pi * n * k / (n + 1))
                     / math.sin(math.pi * k / (n + 1)))
            assert ratio == pytest.approx(sine_ratio_sign(n, k), abs=1e-9)


def test_sine_ratio_degenerate_multiples():
    with pytest.raises(DegenerateAngle):
        sine_ratio_sign(6, 7)
    with pytest.raises(DegenerateAngle):
        sine_ratio_sign(6, 14)


@pytest.mark.parametrize("n,q,tol", [(6, 1, 1e-10), (10, 3, 1e-10), (2, 1, 1e-12)])
def test_parity_zero_sum_examples(n, q, tol):
    assert abs(parity_zero_sum(n, q)) <= tol


@settings(max_examples=60)
@given(n=st.integers(1, 50), q=st.integers(1, 50))
def test_parity_zero_sum_property(n, q):
    n = 2 * n
    q = (q - 1) % (n // 2) + 1
    assert abs(parity_zero_sum(n, q)) <= 1e-10


@pytest.mark.parametrize("n", [2, 6, 20, 64])
def test_direct_sum_equals_closed_form(n):
    diff = np.abs(direct_green_matrix(n)
                  - green_matrix(ChainSpec(Topology.OPEN, n)).to_float())
    assert float(np.max(diff)) <= 1e-9
