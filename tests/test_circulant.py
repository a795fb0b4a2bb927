"""Circulant determinants, kernels and the three inversion routes."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hueckel_green import (ChainSpec, CirculantSpec, CycleTooSmall,
                           NotSingular, SingularMatrix, Topology,
                           build_hamiltonian, circulant, circulant_inverse_dft,
                           cyclic_inverse_first_column, cyclic_kernel_basis,
                           cyclotomic_polynomial, det_cyclic,
                           det_fraction_free, mat_vec,
                           symbol_factorization_inverse, vanishing_sums)
from oracles import (circulant_rows, gauss_jordan_inverse, identity_rows,
                     multiply)

F = Fraction
HALF = F(1, 2)


@pytest.mark.parametrize("n,expected", [
    (5, (HALF, HALF, -HALF, -HALF, HALF)),
    (6, (0, HALF, 0, -HALF, 0, HALF)),
    (7, (-HALF, HALF, HALF, -HALF, -HALF, HALF, HALF)),
])
def test_first_column_patterns(n, expected):
    assert cyclic_inverse_first_column(n).first_column == tuple(map(F, expected))


@pytest.mark.parametrize("n,diag", [(5, HALF), (6, F(0)), (7, -HALF)])
def test_symbol_route_main_diagonal(n, diag):
    assert symbol_factorization_inverse(n).first_column[0] == diag


def test_two_routes_agree_exactly():
    for n in range(3, 101):
        if n % 4 == 0:
            continue
        assert (symbol_factorization_inverse(n).first_column
                == cyclic_inverse_first_column(n).first_column)


@pytest.mark.parametrize("n", [4, 8, 100])
def test_multiple_of_four_is_singular(n):
    with pytest.raises(SingularMatrix):
        cyclic_inverse_first_column(n)
    with pytest.raises(SingularMatrix):
        symbol_factorization_inverse(n)


def test_inverse_requires_three_sites():
    with pytest.raises(CycleTooSmall):
        cyclic_inverse_first_column(2)


@pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 30, 61])
def test_inverse_times_hamiltonian_is_identity(n):
    h = build_hamiltonian(ChainSpec(Topology.CYCLIC, n))
    g = circulant_rows(cyclic_inverse_first_column(n).first_column)
    assert multiply(h.to_lists(), g) == identity_rows(n)


@pytest.mark.parametrize("n", [5, 6, 7, 13, 50])
def test_inverse_is_symmetric_circulant_with_alternation(n):
    column = cyclic_inverse_first_column(n).first_column
    assert all(column[k] == column[n - k] for k in range(1, n))
    assert all(column[k + 2] == -column[k] for k in range(n - 2))


@pytest.mark.parametrize("n,expected", [(2, -1), (5, 2), (6, -4), (8, 0), (63, 2)])
def test_det_cyclic_table(n, expected):
    assert det_cyclic(n) == expected


def test_det_cyclic_matches_fraction_free():
    for n in range(2, 33):
        h = build_hamiltonian(ChainSpec(Topology.CYCLIC, n))
        assert det_cyclic(n) == det_fraction_free(h)


def test_kernel_four_sites():
    assert cyclic_kernel_basis(4) == ((0, -1, 0, 1), (1, 0, -1, 0))


def test_kernel_eight_sites_annihilated():
    h = build_hamiltonian(ChainSpec(Topology.CYCLIC, 8))
    v1, v2 = cyclic_kernel_basis(8)
    assert v1 == (0, -1, 0, 1) * 2 and v2 == (1, 0, -1, 0) * 2
    for v in (v1, v2):
        assert all(x == 0 for x in mat_vec(h, [F(c) for c in v]))


def test_kernel_rejects_invertible_size():
    with pytest.raises(NotSingular):
        cyclic_kernel_basis(6)


@pytest.mark.parametrize("n", [0, -4, 1])
def test_kernel_needs_a_cycle(n):
    # Regression: N = 0 and -4 gave the empty basis ((), ()).
    with pytest.raises(CycleTooSmall):
        cyclic_kernel_basis(n)


def test_dft_route_recovers_cycle_inverse():
    spec = CirculantSpec((F(0), F(1), F(0), F(0), F(1)))
    assert (circulant_inverse_dft(spec).first_column
            == cyclic_inverse_first_column(5).first_column)


def test_dft_route_identity_fixed_point():
    spec = CirculantSpec((F(1), F(0), F(0), F(0)))
    assert circulant_inverse_dft(spec).first_column == spec.first_column


def test_dft_route_reports_vanishing_symbol():
    with pytest.raises(SingularMatrix) as err:
        circulant_inverse_dft(CirculantSpec((F(0), F(1), F(0), F(1))))
    assert err.value.index is not None


@pytest.mark.parametrize("column", [
    (1 + F(1, 2 ** 31), -1, 1, -1),            # symbol value 0 is 2^-31
    (1, -F(10 ** 11 - 1, 10 ** 11), 0),         # det about 3e-11
], ids=["symbol_2_pow_-31", "det_3e-11"])
def test_dft_route_inverts_nearly_singular_circulants(column):
    # Regression: a float screen |symbol| <= 1e-9 called these singular.
    spec = CirculantSpec(tuple(map(F, column)))
    inv = circulant_inverse_dft(spec)
    product = multiply(circulant_rows(spec.first_column),
                       circulant_rows(inv.first_column))
    assert product == identity_rows(spec.n)


def random_column(rng, n):
    return [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]


def oracle_first_column(spec):
    """Gauss-Jordan's first column of C^-1, or None if it finds no pivot."""
    try:
        inv = gauss_jordan_inverse(circulant_rows(spec.first_column))
    except StopIteration:
        return None
    return tuple(row[0] for row in inv)


def random_specs(seed, per_size=2):
    rng = random.Random(seed)
    return [CirculantSpec(tuple(random_column(rng, n)))
            for n in range(1, 25) for _ in range(per_size)]


def outcome(spec):
    try:
        return circulant_inverse_dft(spec).first_column
    except SingularMatrix:
        return None


def test_dft_route_matches_gauss_jordan_on_random_circulants():
    specs = random_specs(7)
    results = [outcome(spec) for spec in specs]
    assert results == [oracle_first_column(spec) for spec in specs]
    assert results.count(None) < len(specs) // 4


def poly_mul_mod(f, g, n):
    """f(x) g(x) modulo x^n - 1."""
    out = [F(0)] * n
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[(i + j) % n] += a * b
    return out


def symbol_abs(column, j):
    n = len(column)
    return abs(sum(float(c) * cmath.exp(2j * cmath.pi * j * k / n)
                   for k, c in enumerate(column)))


def singular_cases(seed):
    """(column, smallest j with a vanishing symbol value) for columns
    Phi_m(x) b(x) mod x^N - 1, every m | N, N = 1..24."""
    rng = random.Random(seed)
    cases = []
    for n in range(1, 25):
        for m in (m for m in range(1, n + 1) if n % m == 0):
            b = random_column(rng, rng.randint(1, n))
            column = poly_mul_mod(cyclotomic_polynomial(m), b, n)
            values = [symbol_abs(column, j) for j in range(n)]
            # every value is either a rounded zero or clearly not zero
            assert all(v < 1e-9 or v > 1e-6 for v in values)
            cases.append((column, next(j for j, v in enumerate(values)
                                       if v < 1e-9)))
    return cases


def singular_index(column):
    with pytest.raises(SingularMatrix) as err:
        circulant_inverse_dft(CirculantSpec(tuple(column)))
    return err.value.index


def test_dft_route_reports_smallest_vanishing_symbol_index():
    cases = singular_cases(11)
    assert [singular_index(c) for c, _ in cases] == [j for _, j in cases]
    assert singular_index((0, 1, 0, 1)) == 1
    assert singular_index((0, 0, 0)) == 0


SMALL_PRIMES = [p for p in range(3, 3000)
                if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def small_primes(n):
    """At least 17 primes p = 1 (mod 2N) for N <= 24, where bad primes,
    which divide det C, are common."""
    return iter([p for p in SMALL_PRIMES if p % (2 * n) == 1])


def test_dft_route_skips_unlucky_primes(monkeypatch):
    specs = random_specs(7)
    expected = [outcome(spec) for spec in specs]
    cases = singular_cases(13)
    skipped = []
    real_check = circulant._raise_if_singular

    def spy(a, n):
        real_check(a, n)
        skipped.append(n)

    monkeypatch.setattr(circulant, "_primes", small_primes)
    monkeypatch.setattr(circulant, "_raise_if_singular", spy)
    assert [outcome(spec) for spec in specs] == expected
    assert [singular_index(c) for c, _ in cases] == [j for _, j in cases]
    assert len(skipped) > 10       # invertible inputs that met a bad prime


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_symmetric_circulants_invert_symmetrically(data):
    n = data.draw(st.integers(1, 12), label="n")
    half = [data.draw(rationals) for _ in range(n // 2 + 1)]
    column = [half[k] if k <= n // 2 else half[n - k] for k in range(n)]
    spec = CirculantSpec(tuple(column))
    try:
        inv = circulant_inverse_dft(spec)
    except SingularMatrix:
        return
    assert inv.is_symmetric
    product = multiply(circulant_rows(spec.first_column),
                       circulant_rows(inv.first_column))
    assert product == identity_rows(n)


def dominant_column(rng, n):
    """A column whose first entry outweighs the rest, so C is invertible."""
    column = random_column(rng, n)
    column[0] = sum(map(abs, column[1:])) + F(1, rng.randint(1, 4))
    return column


def unit_column(n):
    return [F(1)] + [F(0)] * (n - 1)


def spy_on_inverse_mod_p(monkeypatch):
    """Record whether each call of `_inverse_mod_p` found an inverse."""
    found = []
    real = circulant._inverse_mod_p

    def spy(a, n, p):
        inverse = real(a, n, p)
        found.append(inverse is not None)
        return inverse

    monkeypatch.setattr(circulant, "_inverse_mod_p", spy)
    return found


@pytest.mark.parametrize("n", [28, 45, 58])
def test_dft_route_runs_one_euclid(monkeypatch, n):
    found = spy_on_inverse_mod_p(monkeypatch)
    column = dominant_column(random.Random(n), n)
    inverse = circulant_inverse_dft(CirculantSpec(tuple(column)))
    assert found == [True]
    assert poly_mul_mod(column, inverse.first_column, n) == unit_column(n)


def test_dft_route_lifts_from_the_first_good_prime(monkeypatch):
    monkeypatch.setattr(circulant, "_primes", small_primes)
    found = spy_on_inverse_mod_p(monkeypatch)
    skipped = 0
    for spec in random_specs(7):
        found.clear()
        if outcome(spec) is None:
            assert found == [False]        # the first failure proves it
        else:
            assert found == [False] * (len(found) - 1) + [True]
            skipped += len(found) - 1
    assert skipped > 10


def test_dft_route_inverts_large_random_circulants():
    rng = random.Random(25)
    singular = 0
    for n in range(25, 65):
        column = random_column(rng, n)
        try:
            inverse = circulant_inverse_dft(CirculantSpec(tuple(column)))
        except SingularMatrix as err:
            assert symbol_abs(column, err.index) < 1e-9
            singular += 1
            continue
        assert poly_mul_mod(column, inverse.first_column, n) == unit_column(n)
    assert singular < 5


def test_dft_route_lifts_through_many_steps(monkeypatch):
    rng = random.Random(40)
    column = [F(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 40))
              for _ in range(4)]
    moduli = []
    real = circulant._reconstruct

    def spy(residues, modulus):
        moduli.append(modulus)
        return real(residues, modulus)

    monkeypatch.setattr(circulant, "_reconstruct", spy)
    inverse = circulant_inverse_dft(CirculantSpec(tuple(column)))
    assert len(moduli) >= 20                   # one reconstruction per step
    assert moduli[1:] == [m * moduli[0] for m in moduli[:-1]]
    assert poly_mul_mod(column, inverse.first_column, 4) == unit_column(4)


def test_seed_inverts_the_symbol_modulo_the_first_prime():
    rng = random.Random(64)
    for n in range(1, 65):
        column = [rng.randint(-9, 9) for _ in range(n)]
        p = next(circulant._primes(n))
        seed = circulant._inverse_mod_p(column, n, p)
        if seed is None:                       # only where C is singular
            with pytest.raises(SingularMatrix):
                circulant._raise_if_singular(column, n)
            continue
        product = poly_mul_mod(column, seed, n)
        assert [x % p for x in product] == unit_column(n)


def test_seed_fails_on_every_singular_column():
    for column, _ in singular_cases(17):
        n = len(column)
        scale = math.lcm(*(F(x).denominator for x in column))
        a = [int(x * scale) for x in column]
        assert circulant._inverse_mod_p(a, n, next(circulant._primes(n))) is None


@pytest.mark.parametrize("n", [2, 3, 28, 45, 64, 200])
def test_first_prime_and_root_are_the_witness_key_prime(n):
    p, zeta = vanishing_sums._key_prime(n)
    assert next(circulant._primes(n)) == p
    assert circulant._chirp(n, p)[0][1] == pow(zeta, n + 1, p)   # chi^(1^2)
