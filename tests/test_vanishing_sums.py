"""Invertibility predicate, cyclotomic zero oracle and witness search."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hueckel_green import (BudgetExhausted, CosineWitness, InvertibilityQuery,
                           LatticeSpec,
                           build_lattice_hamiltonian, cosine_sum_is_zero_exact,
                           cyclotomic_polynomial, find_vanishing_witness,
                           is_invertible, roots_of_unity_sum_is_zero,
                           smallest_prime_divisor, vanishing_sums)
from oracles import (float_pruned_witness, long_division_divisible,
                     symmetric_eigenvalues, trial_division_smallest_prime)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_isolated(args, timeout):
    """``python args`` with this tree's package, in its own process so
    that a hang fails the test by the timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_cosine_zero_examples():
    assert cosine_sum_is_zero_exact(9, (2, 4, 8)) is True
    assert cosine_sum_is_zero_exact(5, (1, 2, 3)) is False
    assert cosine_sum_is_zero_exact(4, (2,)) is True


def test_cosine_zero_rejects_out_of_range():
    with pytest.raises(ValueError):
        cosine_sum_is_zero_exact(5, (0,))
    with pytest.raises(ValueError):
        cosine_sum_is_zero_exact(5, (5,))


@pytest.mark.parametrize("d,n,expected", [
    (3, 25, True),    # 3 < 5
    (3, 9, False),    # 3 not below the smallest prime divisor 3
    (2, 7, False),    # even dimension
    (1, 3, True),
    (1, 4, False),    # even n
    (5, 49, True),    # 5 < 7
    (3, 15, False),
])
def test_is_invertible_cases(d, n, expected):
    assert is_invertible(InvertibilityQuery(d, n)) is expected


@pytest.mark.parametrize("d,n", [(3, 3), (5, 5), (5, 3), (7, 7), (7, 5)])
def test_prime_n_boundary_is_invertible(d, n):
    # For prime n every rotated prime cycle of roots contains +-1, so no
    # vanishing cosine sum exists for any odd d; exhaustive search agrees.
    assert is_invertible(InvertibilityQuery(d, n)) is True
    assert find_vanishing_witness(InvertibilityQuery(d, n)) is None


def test_cube_lattice_confirms_prime_boundary():
    # d=3, N=2 (n=3): the 2x2x2 lattice has eigenvalues +-1, +-3, no zeros.
    h = build_lattice_hamiltonian(LatticeSpec(3, 2)).to_float()
    eigs = symmetric_eigenvalues(h)
    assert float(np.min(np.abs(eigs))) > 0.5
    assert is_invertible(InvertibilityQuery(3, 3)) is True


def test_witness_examples():
    w = find_vanishing_witness(InvertibilityQuery(3, 9))
    assert w == CosineWitness((1, 5, 7))
    assert cosine_sum_is_zero_exact(9, w.ks)

    assert find_vanishing_witness(InvertibilityQuery(3, 5)) is None

    w = find_vanishing_witness(InvertibilityQuery(2, 5))
    assert w is not None and w.ks[0] + w.ks[1] == 5


def test_budget_exhaustion_is_distinct_from_no_witness():
    with pytest.raises(BudgetExhausted):
        find_vanishing_witness(InvertibilityQuery(5, 31), budget=3)


@pytest.mark.parametrize("n,expected", [(25, 5), (105, 3), (2, 2), (97, 97)])
def test_smallest_prime_divisor(n, expected):
    assert smallest_prime_divisor(n) == expected


def test_prime_symmetric_sums_vanish():
    primes = [p for p in range(2, 51) if smallest_prime_divisor(p) == p]
    for p in primes:
        assert roots_of_unity_sum_is_zero(p, range(p))
        assert not roots_of_unity_sum_is_zero(p, range(p - 1))


def test_known_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(105)[7] == -2  # first coefficient beyond +-1


@given(m=st.integers(1, 80))
def test_cyclotomic_degree_is_totient(m):
    degree = len(cyclotomic_polynomial(m)) - 1
    totient = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
    assert degree == totient


def test_cube_roots_of_unity_zero_test():
    assert roots_of_unity_sum_is_zero(3, (0, 1, 2))
    assert not roots_of_unity_sum_is_zero(3, (0, 1))


def test_cyclotomic_divisibility_equals_long_division():
    # lengths below, at and past m, as the circulant symbol test uses them;
    # the products with Phi_m are divisible by construction
    rng = np.random.default_rng(11)
    for m in range(1, 61):
        phi = np.array(cyclotomic_polynomial(m))
        for length in (max(1, m // 2), m, 2 * m, 3 * m + 1):
            for _ in range(4):
                coeffs = tuple(int(c) for c in rng.integers(-2, 3, length))
                assert vanishing_sums._divisible_by_cyclotomic(m, coeffs) \
                    == long_division_divisible(m, coeffs), (m, coeffs)
            if length >= len(phi):
                cofactor = rng.integers(-3, 4, length - len(phi) + 1)
                product = tuple(int(c) for c in np.convolve(phi, cofactor))
                assert vanishing_sums._divisible_by_cyclotomic(m, product)
                assert long_division_divisible(m, product)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), n=st.integers(2, 30))
def test_witness_soundness(d, n):
    try:
        witness = find_vanishing_witness(InvertibilityQuery(d, n))
    except BudgetExhausted:
        return
    assert is_invertible(InvertibilityQuery(d, n)) == (witness is None)
    if witness is not None:
        assert list(witness.ks) == sorted(witness.ks)
        assert all(1 <= k <= n - 1 for k in witness.ks)
        assert cosine_sum_is_zero_exact(n, witness.ks)
        value = abs(sum(math.cos(k * math.pi / n) for k in witness.ks))
        assert value <= 1e-12


def test_agreement_sweep_small():
    cases = [(d, n) for d in (1, 3, 5) for n in range(3, 30, 2)]
    cases += [(d, n) for d in (7, 9) for n in range(3, 32, 2)]
    for d, n in cases:
        query = InvertibilityQuery(d, n)
        assert is_invertible(query) == (find_vanishing_witness(query) is None)


def test_even_cases_always_have_witnesses():
    for n in range(2, 26, 2):
        for d in (1, 2, 3, 4):
            assert find_vanishing_witness(InvertibilityQuery(d, n)) is not None
    for n in range(3, 26):
        assert find_vanishing_witness(InvertibilityQuery(2, n)) is not None


@pytest.mark.parametrize("d", range(1, 10))
def test_meet_in_the_middle_returns_the_float_pruned_witness(d):
    # The same lexicographically smallest witness, or None, as the old
    # branch and bound, so `invertible --witness` bytes cannot move.
    for n in range(2, 32):
        query = InvertibilityQuery(d, n)
        assert find_vanishing_witness(query) == float_pruned_witness(query)


def test_meet_in_the_middle_matches_at_eleven_terms():
    query = InvertibilityQuery(11, 23)
    assert find_vanishing_witness(query) is None
    assert float_pruned_witness(query) is None


class _NoFloats:
    def __getattr__(self, name):
        raise AssertionError(f"witness search touched math.{name}")


@pytest.mark.parametrize("d,n,expected", [
    (9, 27, (1, 1, 1, 1, 17, 19, 26, 26, 26)),
    (7, 31, None),
    (1, 8, (4,)),
])
def test_search_uses_no_float_math(monkeypatch, d, n, expected):
    monkeypatch.setattr(vanishing_sums, "math", _NoFloats(), raising=False)
    vanishing_sums._key_prime.cache_clear()
    witness = find_vanishing_witness(InvertibilityQuery(d, n))
    assert (witness.ks if witness else None) == expected


@pytest.mark.parametrize("d,n", [(9, 29), (5, 31), (2, 7), (1, 4)])
def test_budget_below_the_table_builds_nothing(monkeypatch, d, n):
    built = []
    for name in ("_sorted_multisets", "_tail_table"):
        monkeypatch.setattr(vanishing_sums, name,
                            lambda *args, name=name: built.append(name))
    table = math.comb(n - 2 + d // 2, d // 2)
    with pytest.raises(BudgetExhausted):
        find_vanishing_witness(InvertibilityQuery(d, n), budget=table)
    assert built == []


def test_budget_counts_table_entries_and_heads():
    # (3, 9): 8 one-element tails; the witness (1, 5, 7) has the 5th head.
    query = InvertibilityQuery(3, 9)
    with pytest.raises(BudgetExhausted):
        find_vanishing_witness(query, budget=8 + 4)
    assert find_vanishing_witness(query, budget=8 + 5) == CosineWitness((1, 5, 7))
    # an invertible case walks all C(n - 2 + 2, 2) heads before answering None
    query = InvertibilityQuery(3, 7)
    with pytest.raises(BudgetExhausted):
        find_vanishing_witness(query, budget=6 + 20)
    assert find_vanishing_witness(query, budget=6 + 21) is None


def test_key_prime_is_the_shared_miller_rabin_prime():
    for n in (2, 3, 29, 31, 60):
        p = vanishing_sums._key_prime(n)[0]
        keys = list(vanishing_sums._cosine_keys(n))
        assert p % (2 * n) == 1 and p < 1 << 62
        assert vanishing_sums._is_word_prime(p)
        assert len(keys) == n
        assert (keys[n // 2] == 0) == (n % 2 == 0)   # cos(pi/2) = 0


def test_smallest_prime_divisor_matches_trial_division():
    for n in range(2, 100_001):
        assert smallest_prime_divisor(n) == trial_division_smallest_prime(n), n


@pytest.mark.parametrize("p", [1009, 1013, 4999, 65_537, 1_000_003])
def test_smallest_prime_divisor_of_factors_past_the_trial_bound(p):
    # no factor up to 1 000, so Miller-Rabin and rho decide these
    for q in (p, 1_000_033, 10_000_019):
        assert smallest_prime_divisor(p * q) == min(p, q)
        assert smallest_prime_divisor(p * p * q) == min(p, q)
        assert smallest_prime_divisor(q * q) == q
    assert smallest_prime_divisor(p ** 3) == p


@pytest.mark.parametrize("n, expected", [
    ((10**9 + 7) * (10**9 + 9), 10**9 + 7),
    (10**17 + 3, 10**17 + 3),
])
def test_smallest_prime_divisor_of_large_n_is_fast(n, expected):
    # Regression: trial division to sqrt(n) took 1.5 s at n = 10^15 + 37
    # and about 5 * 10^8 steps for the product of the twin primes.
    code = ("import time; from hueckel_green import smallest_prime_divisor; "
            f"t = time.perf_counter(); p = smallest_prime_divisor({n}); "
            "print(p, time.perf_counter() - t)")
    result = run_isolated(["-c", code], timeout=20)
    p, seconds = result.stdout.split()
    assert int(p) == expected and float(seconds) < 1.0


def test_invertible_past_the_miller_rabin_range_is_refused():
    # a prime past 3.18e23 has no factor up to 1 000 and no proof of
    # primality here, so it is refused rather than trial-divided for days
    result = run_isolated(["-m", "hueckel_green", "invertible", "--d", "3",
                           "--n-plus-one", "318665857834031151167483"],
                          timeout=20)
    assert result.returncode == 3
    assert result.stderr.startswith("TooLarge: ")
    assert "Miller-Rabin" in result.stderr


def test_invertible_prime_n_plus_one_answers_within_a_second():
    result = run_isolated(["-m", "hueckel_green", "invertible", "--d", "3",
                           "--n-plus-one", str(10**17 + 3)], timeout=20)
    assert result.returncode == 0
    assert result.stdout == (
        '{"invertible": true, "reason": "3 < 100000000000000003"}\n')


@pytest.mark.parametrize("n", [2**60 + 1, 2**61 + 1])
def test_witness_search_without_a_key_prime_is_refused(n):
    # Regression: no prime p = 1 (mod 2n) lies below 2^62, and the key
    # prime search stepped down through the negative numbers forever.
    result = run_isolated(["-m", "hueckel_green", "invertible", "--d", "1",
                           "--n-plus-one", str(n), "--witness"], timeout=20)
    assert result.returncode == 3
    assert result.stderr.startswith("TooLarge: ")
    assert "2^62" in result.stderr


def test_one_dimensional_search_holds_only_what_its_budget_can_walk():
    # Regression: at d = 1 all n keys, and a list of n table starts, were
    # formed before the budget was read: 1.0 s and 137 MB of peak RSS at
    # n = 2 000 001 for a budget of 1 000.
    query = InvertibilityQuery(1, 2_000_001)
    vanishing_sums._key_prime(query.n)      # cached, O(1) memory
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExhausted):
            find_vanishing_witness(query, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_one_dimensional_search_forms_each_key_as_it_is_read():
    # Regression: at the default budget the d = 1 search formed
    # min(n, budget + 1) keys before its walk, 106 MB past the post-import
    # peak RSS at n = 2 000 001.  ru_maxrss is in KiB on Linux.
    code = ("import resource; from hueckel_green import InvertibilityQuery, "
            "find_vanishing_witness; "
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "before = peak(); "
            "witness = find_vanishing_witness(InvertibilityQuery(1, 2_000_001)); "
            "print(witness, peak() - before)")
    result = run_isolated(["-c", code], timeout=60)
    witness, grown = result.stdout.split()
    assert witness == "None" and int(grown) < 20 * 1024


def test_paired_cosines_skip_the_cyclotomic_division(monkeypatch):
    # k and n - k cancel to the zero polynomial, divisible by every Phi_m.
    # Regression: Phi_2n was formed first, and at n = 2 000 000 the d = 1
    # witness k = n/2 did not come back within minutes.
    result = run_isolated([
        "-c", "from hueckel_green import InvertibilityQuery, "
        "find_vanishing_witness; "
        "print(find_vanishing_witness(InvertibilityQuery(1, 2_000_000)).ks)"],
        timeout=60)
    assert result.stdout == "(1000000,)\n"

    def refused(m):
        raise AssertionError(f"formed Phi_{m}")

    monkeypatch.setattr(vanishing_sums, "_cyclotomic", refused)
    assert cosine_sum_is_zero_exact(10, (5,))
    assert cosine_sum_is_zero_exact(9, (2, 7, 4, 5))
