"""Usmani recursion tables and exact tridiagonal inversion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hueckel_green import (ChainSpec, ExactMatrix, IndexOutOfRange,
                           SingularMatrix, Topology, TridiagonalSpec,
                           det_fraction_free, theta_phi, usmani_entry,
                           usmani_inverse)

from oracles import (cofactor_det, cofactor_inverse, gauss_jordan_inverse,
                     multiply, tridiagonal_rows)

F = Fraction


def spec_rows(spec):
    return tridiagonal_rows(spec.sub, spec.diag, spec.sup)


rationals = st.builds(F, st.integers(-5, 5), st.integers(1, 5))
nonzero_rationals = rationals.filter(lambda x: x != 0)


def hueckel_spec(n: int) -> TridiagonalSpec:
    return TridiagonalSpec.from_chain(ChainSpec(Topology.OPEN, n))


def test_theta_pattern_for_uniform_chain():
    tables = theta_phi(hueckel_spec(8))
    assert [tables.theta_at(r) for r in range(9)] == [1, 0, -1, 0, 1, 0, -1, 0, 1]
    assert tables.theta_at(-1) == 0


def test_theta_two_site_determinant():
    tables = theta_phi(TridiagonalSpec((F(1),), (F(0), F(0)), (F(1),)))
    assert tables.determinant == -1


def test_theta_three_site_ones():
    spec = TridiagonalSpec((F(1), F(1)), (F(1), F(1), F(1)), (F(1), F(1)))
    # cofactor oracle on [[1,1,0],[1,1,1],[0,1,1]]
    assert cofactor_det(spec_rows(spec)) == -1
    assert theta_phi(spec).determinant == -1


def test_usmani_permutation_self_inverse():
    spec = TridiagonalSpec((F(1),), (F(0), F(0)), (F(1),))
    assert usmani_inverse(spec).to_lists() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("r,s", [(0, 1), (1, 0), (5, 1), (1, 5)])
def test_usmani_entry_outside_the_chain_is_index_out_of_range(r, s):
    # Regression: this raised a bare IndexError((r, s)).
    with pytest.raises(IndexOutOfRange) as err:
        usmani_entry(hueckel_spec(4), r, s)
    assert str(err.value) == f"({r}, {s}) outside 1..4"


def test_usmani_uniform_four_site_block():
    # negated 4x4 block of the open-chain Green's function pattern
    expected = [[0, 1, 0, -1], [1, 0, 0, 0], [0, 0, 0, 1], [-1, 0, 1, 0]]
    assert usmani_inverse(hueckel_spec(4)).to_lists() == expected


def test_usmani_three_site_ones():
    spec = TridiagonalSpec((F(1), F(1)), (F(1), F(1), F(1)), (F(1), F(1)))
    expected = [[0, 1, -1], [1, -1, 1], [-1, 1, 0]]
    assert usmani_inverse(spec).to_lists() == expected
    assert cofactor_inverse(spec_rows(spec)) == expected


def test_singular_chain_carries_diagnostics():
    with pytest.raises(SingularMatrix) as err:
        usmani_inverse(hueckel_spec(5))
    assert err.value.n == 5
    assert err.value.theta is not None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_inverse_times_matrix_is_identity(data):
    n = data.draw(st.integers(1, 100), label="n")
    spec = TridiagonalSpec(
        tuple(data.draw(rationals) for _ in range(n - 1)),
        tuple(data.draw(rationals) for _ in range(n)),
        tuple(data.draw(rationals) for _ in range(n - 1)))
    tables = theta_phi(spec)
    if tables.determinant == 0:
        with pytest.raises(SingularMatrix):
            usmani_inverse(spec)
        return
    inv = usmani_inverse(spec)
    a, b, c = spec.sub, spec.diag, spec.sup
    for i in range(n):
        for j in range(n):
            acc = b[i] * inv.get(i, j)
            if i > 0:
                acc += a[i - 1] * inv.get(i - 1, j)
            if i + 1 < n:
                acc += c[i] * inv.get(i + 1, j)
            assert acc == (1 if i == j else 0)


def test_theta_matches_fraction_free_determinant_200_specs():
    rng = random.Random(20240917)
    for _ in range(200):
        n = rng.randint(1, 25)
        draw = lambda: F(rng.randint(-5, 5), rng.randint(1, 5))
        spec = TridiagonalSpec(tuple(draw() for _ in range(n - 1)),
                               tuple(draw() for _ in range(n)),
                               tuple(draw() for _ in range(n - 1)))
        assert theta_phi(spec).determinant == det_fraction_free(
            ExactMatrix.from_rows(spec_rows(spec)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_single_entry_matches_full_inverse(data):
    n = data.draw(st.integers(1, 20), label="n")
    spec = TridiagonalSpec(
        tuple(data.draw(nonzero_rationals) for _ in range(n - 1)),
        tuple(data.draw(rationals) for _ in range(n)),
        tuple(data.draw(nonzero_rationals) for _ in range(n - 1)))
    tables = theta_phi(spec)
    if tables.determinant == 0:
        return
    inv = usmani_inverse(spec)
    r = data.draw(st.integers(1, n), label="r")
    s = data.draw(st.integers(1, n), label="s")
    assert usmani_entry(spec, r, s, tables) == inv.get(r - 1, s - 1)


@pytest.mark.parametrize("n", [8, 12])
def test_uniform_inverse_is_semiseparable(n):
    inv = usmani_inverse(hueckel_spec(n))
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            for j1 in range(i2, n):
                for j2 in range(j1 + 1, n):
                    minor = (inv.get(i1, j1) * inv.get(i2, j2)
                             - inv.get(i1, j2) * inv.get(i2, j1))
                    assert minor == 0


def test_usmani_matches_gauss_jordan_oracle():
    spec = TridiagonalSpec((F(2), F(-1, 3), F(5)), (F(0), F(1, 2), F(0), F(-2)),
                           (F(1), F(4), F(-3, 2)))
    inv = usmani_inverse(spec)
    product = multiply(spec_rows(spec), inv.to_lists())
    identity = [[F(1) if i == j else F(0) for j in range(4)] for i in range(4)]
    assert product == identity


def _random_spec(rng, n, zero_bond, symmetric=False):
    """Nonzero diagonal; each bond zero with probability ``zero_bond``.
    Unless ``symmetric`` (sup = sub), each bond's sub and sup are drawn
    separately, so a zero may face a nonzero across the bond."""
    def value():
        return F(rng.choice([x for x in range(-7, 8) if x]), rng.randint(1, 6))

    def bond():
        return F(0) if rng.random() < zero_bond else value()
    sub = tuple(bond() for _ in range(n - 1))
    diag = tuple(value() for _ in range(n))
    sup = sub if symmetric else tuple(bond() for _ in range(n - 1))
    return TridiagonalSpec(sub, diag, sup)


def _assert_matches_gauss_jordan(spec):
    """The whole inverse and every single entry, with and without the
    tables passed, against the oracle; both refuse a singular spec."""
    rows = spec_rows(spec)
    try:
        expected = gauss_jordan_inverse(rows)
    except StopIteration:       # the oracle found no pivot: singular
        with pytest.raises(SingularMatrix):
            usmani_inverse(spec)
        with pytest.raises(SingularMatrix):
            usmani_entry(spec, 1, spec.n)
        return False
    assert usmani_inverse(spec).to_lists() == expected
    tables = theta_phi(spec)
    sites = range(1, spec.n + 1)
    assert [[usmani_entry(spec, r, s, tables) for s in sites]
            for r in sites] == expected
    assert usmani_entry(spec, spec.n, 1) == expected[-1][0]
    return True


@pytest.mark.parametrize("n", range(1, 41))
def test_usmani_matches_gauss_jordan_on_random_specs(n):
    rng = random.Random(7000 + n)
    zeros = (0.0, 0.25, 0.5)
    general = [_random_spec(rng, n, zero) for zero in zeros]
    symmetric = [_random_spec(rng, n, zero, symmetric=True) for zero in zeros]
    assert sum(map(_assert_matches_gauss_jordan, general)) >= 2
    assert sum(map(_assert_matches_gauss_jordan, symmetric)) >= 2


@pytest.mark.parametrize("sub,sup", [
    # a zero in sub where sup is nonzero at the same bond, and the reverse
    ((F(2), F(0), F(-1, 3), F(5)), (F(1), F(4), F(-3, 2), F(2, 7))),
    ((F(2), F(4), F(-1, 3), F(5)), (F(1), F(0), F(-3, 2), F(2, 7))),
    ((F(0), F(3), F(0), F(1)), (F(-1), F(0), F(5, 2), F(0))),
    ((F(0),) * 4, (F(1), F(-2), F(3), F(1, 2))),
])
def test_usmani_one_sided_zero_bonds(sub, sup):
    spec = TridiagonalSpec(sub, (F(1), F(-1, 2), F(3), F(2), F(-5)), sup)
    assert _assert_matches_gauss_jordan(spec)


@pytest.mark.parametrize("n", [2, 6, 10, 24])
def test_usmani_zero_coupled_chain_is_block_inverse(n):
    # zero diagonal, every second bond zero: decoupled dimers, invertible
    off = tuple(F(0) if b % 2 else F(2, 3) for b in range(n - 1))
    spec = TridiagonalSpec(off, (F(0),) * n, off)
    assert _assert_matches_gauss_jordan(spec)
    inv = usmani_inverse(spec)
    for i in range(n):
        for j in range(n):
            want = F(3, 2) if i // 2 == j // 2 and i != j else 0
            assert inv.get(i, j) == want


def test_usmani_of_negated_spec_is_green_function():
    spec = _random_spec(random.Random(11), 12, 0.25)
    assert theta_phi(spec).determinant != 0
    assert usmani_inverse(-spec) == -usmani_inverse(spec)
