"""Float LU / eigensolver oracle module."""

import numpy as np
import pytest

from hueckel_green import (ChainSpec, LatticeSpec, NotSymmetric,
                           NumericallySingular, Topology,
                           build_hamiltonian, build_lattice_hamiltonian,
                           green_matrix, lattice_spectrum, lu_inverse,
                           symmetric_eigenvalues)


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
