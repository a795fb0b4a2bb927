"""Float LU / eigensolver oracle module."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from oracles import NotSymmetric, dense_lu_inverse, symmetric_eigenvalues

from hueckel_green import (ChainSpec, HueckelError, LatticeSpec,
                           NumericallySingular, Topology,
                           build_hamiltonian, build_lattice_hamiltonian,
                           green_matrix, lattice_spectrum, lu_inverse)
from hueckel_green.chains import float_rows


def chain(n, topology=Topology.OPEN):
    return build_hamiltonian(ChainSpec(topology, n)).to_float()


def test_lu_inverse_permutation():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(lu_inverse(m), m, atol=1e-15)


def test_lu_inverse_matches_green_pattern():
    inv = lu_inverse(chain(6))
    expected = -green_matrix(ChainSpec(Topology.OPEN, 6)).to_float()
    assert float(np.max(np.abs(inv - expected))) <= 1e-12


def test_lu_inverse_odd_chain_singular():
    with pytest.raises(NumericallySingular):
        lu_inverse(chain(5))


def test_lu_inverse_residual_random():
    rng = np.random.default_rng(3)
    for n in (3, 8, 20):
        m = rng.normal(size=(n, n))
        inv = lu_inverse(m)
        assert float(np.max(np.abs(m @ inv - np.eye(n)))) <= 1e-8 * n


def test_lu_condition_screen():
    with pytest.raises(NumericallySingular):
        lu_inverse(np.diag([1.0, 1e-13]))


def test_symmetric_eigenvalues_two_site():
    assert np.allclose(symmetric_eigenvalues(chain(2)), [-1.0, 1.0], atol=1e-12)


def test_symmetric_eigenvalues_cycle_band_edges():
    eigs = symmetric_eigenvalues(chain(6, Topology.CYCLIC))
    assert eigs[0] == pytest.approx(-2.0, abs=1e-9)
    assert eigs[-1] == pytest.approx(2.0, abs=1e-9)


def test_symmetric_eigenvalues_square_lattice():
    spec = LatticeSpec(2, 3)
    numeric = symmetric_eigenvalues(build_lattice_hamiltonian(spec).to_float())
    analytic = np.sort(lattice_spectrum(spec).ravel())
    assert float(np.max(np.abs(numeric - analytic))) <= 1e-9


def test_symmetric_eigenvalues_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        lu_inverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_lu_inverse_takes_arrays_lists_and_mappings():
    m = chain(6, Topology.CYCLIC) + np.diag([0.5] * 6)
    mappings = [{j: x for j, x in enumerate(row) if x} for row in m.tolist()]
    inverses = [lu_inverse(form) for form in (m, m.tolist(), mappings)]
    assert inverses[0] == inverses[1] == inverses[2]
    assert all(type(x) is float for row in inverses[0] for x in row)
    with pytest.raises(ValueError):
        lu_inverse([[1.0, 0.0]])
    with pytest.raises(ValueError):
        lu_inverse([{0: 1.0}, {2: 1.0}])
    with pytest.raises(ValueError):
        lu_inverse(np.ones(3))


_RNG = random.Random(12)
LU_COUPLINGS = [(1, 1), (2, F(1, 3)), (F(-3, 2), F(5, 7)), (1000, 1),
                (1, 1000), (0, F(2, 3)), (F(2, 3), 0)] + [
    (F(_RNG.choice((-1, 1)) * _RNG.randint(1, 40), _RNG.randint(1, 40)),
     F(_RNG.choice((-1, 1)) * _RNG.randint(1, 40), _RNG.randint(1, 40)))
    for _ in range(4)]


def chain_grid(sizes):
    """Every open chain and ring of the sizes under LU_COUPLINGS (beta, alpha)."""
    for topology in Topology:
        for n in sizes:
            for beta, alpha in LU_COUPLINGS:
                try:
                    yield ChainSpec(topology, n, beta, alpha)
                except HueckelError:        # odd N alternating, 1-site ring
                    continue


def outcome(inverse, m):
    """("inverse", float.hex of each entry, zeros unsigned) or
    ("refused", pivot index)."""
    try:
        rows = inverse(m)
    except NumericallySingular as err:
        return "refused", err.pivot_index
    return "inverse", [[x.hex() if x else "0" for x in row]
                       for row in np.asarray(rows).tolist()]


def test_lu_inverse_equals_the_dense_lu_bit_for_bit():
    kinds = set()
    for spec in chain_grid((*range(1, 41), 100, 300)):
        dense = outcome(dense_lu_inverse, build_hamiltonian(spec).to_float())
        assert outcome(lu_inverse, float_rows(spec)) == dense, spec
        kinds.add(dense[0])
    assert kinds == {"inverse", "refused"}


def test_inverse_of_minus_h_is_minus_the_inverse():
    for spec in chain_grid(range(1, 41)):
        negated = outcome(lambda h: -np.asarray(lu_inverse(h)), float_rows(spec))
        assert outcome(lu_inverse, float_rows(spec, sign=-1)) == negated, spec
