"""ExactMatrix container and exact elimination routines."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hueckel_green import (ChainSpec, ExactMatrix, LatticeSpec, SingularMatrix,
                           Topology, build_hamiltonian,
                           build_lattice_hamiltonian, det_fraction_free,
                           inverse_exact)

from oracles import (cofactor_det, cofactor_inverse, gauss_jordan_inverse,
                     identity_rows, multiply)

F = Fraction
rationals = st.builds(F, st.integers(-5, 5), st.integers(1, 4))


def test_entries_stay_normalized():
    m = ExactMatrix.from_rows([[F(2, 4), F(-6, 3)], ["7/14", 0]])
    assert m.get(0, 0) == F(1, 2) and m.get(0, 0).denominator == 2
    assert m.get(0, 1) == -2 and m.get(0, 1).denominator == 1
    assert m.get(1, 0) == F(1, 2)


def test_float_entries_rejected():
    with pytest.raises(TypeError):
        ExactMatrix.from_rows([[0.5]])


def test_shape_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [F(1)] * 3)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[F(1)], [F(1), F(2)]])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bareiss_matches_cofactor_oracle(data):
    n = data.draw(st.integers(1, 5))
    rows = [[data.draw(rationals) for _ in range(n)] for _ in range(n)]
    assert det_fraction_free(ExactMatrix.from_rows(rows)) == cofactor_det(rows)


def test_bareiss_integer_path_matches_rational_path():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        as_int = ExactMatrix.from_rows(rows)
        as_frac = ExactMatrix.from_rows([[F(x, 1) * F(3, 3) for x in r] for r in rows])
        assert det_fraction_free(as_int) == det_fraction_free(as_frac)
        assert det_fraction_free(as_int) == cofactor_det(
            [[F(x) for x in r] for r in rows])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inverse_exact_matches_oracle(data):
    n = data.draw(st.integers(1, 6))
    rows = [[data.draw(rationals) for _ in range(n)] for _ in range(n)]
    m = ExactMatrix.from_rows(rows)
    if det_fraction_free(m) == 0:
        with pytest.raises(SingularMatrix):
            inverse_exact(m)
        return
    inv = inverse_exact(m)
    assert inv.to_lists() == gauss_jordan_inverse(rows)
    assert multiply(rows, inv.to_lists()) == identity_rows(n)


def assert_inverse_matches_cofactor_oracle(m):
    rows = m.to_lists()
    if cofactor_det(rows) == 0:
        with pytest.raises(SingularMatrix):
            inverse_exact(m)
    else:
        assert inverse_exact(m).to_lists() == cofactor_inverse(rows)


def test_bareiss_rational_chains_and_rings_match_cofactor_oracle():
    # Zero diagonals make every first pivot vanish, so each n >= 2 needs a
    # row swap; rational couplings go through the integer scaling.  The
    # determinant and the inverse are both checked, singular chains too.
    rng = random.Random(23)

    def coupling():
        return F(rng.choice([x for x in range(-7, 8) if x]), rng.randint(1, 6))

    for _ in range(40):
        n = rng.randint(1, 8)
        topologies = [Topology.OPEN] + ([Topology.CYCLIC] if n >= 2 else [])
        for topology in topologies:
            beta = coupling()
            alpha = coupling() if n % 2 == 0 else beta
            h = build_hamiltonian(ChainSpec(topology, n, beta, alpha))
            assert det_fraction_free(h) == cofactor_det(h.to_lists())
            assert_inverse_matches_cofactor_oracle(h)
    for _ in range(10):
        value = coupling()
        assert det_fraction_free(ExactMatrix.from_rows([[value]])) == value
        assert_inverse_matches_cofactor_oracle(ExactMatrix.from_rows([[value]]))
    swap = [[F(0), F(2, 3), F(1, 5)], [F(3, 4), F(0), F(-1, 2)],
            [F(1, 7), F(5, 6), F(0)]]
    assert det_fraction_free(ExactMatrix.from_rows(swap)) == cofactor_det(swap)
    assert_inverse_matches_cofactor_oracle(ExactMatrix.from_rows(swap))
    h = build_lattice_hamiltonian(LatticeSpec(3, 4))
    assert multiply(h.to_lists(), inverse_exact(h).to_lists()) == identity_rows(64)
