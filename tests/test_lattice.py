"""Kronecker-sum lattices, spectra and the spectral Green's function."""

import numpy as np
import pytest

from hueckel_green import (ChainSpec, IndexOutOfRange, LatticeSpec,
                           MultiIndex, SingularLattice, TooLarge, Topology,
                           build_hamiltonian, build_lattice_hamiltonian,
                           cosine_sum_is_zero_exact, flatten, green_matrix,
                           lattice_eigenvalue, lattice_green_entry,
                           lattice_green_matrix, lattice_spectrum,
                           symmetric_eigenvalues, unflatten)


def kron_sum_oracle(d: int, n: int) -> np.ndarray:
    """Independent construction: explicit Kronecker sum of chain matrices."""
    h1 = build_hamiltonian(ChainSpec(Topology.OPEN, n)).to_float()
    eye = np.eye(n)
    total = np.zeros((n ** d, n ** d))
    for i in range(d):
        term = np.ones((1, 1))
        for j in range(d):
            term = np.kron(term, h1 if j == i else eye)
        total += term
    return total


def test_square_lattice_two_by_two():
    h = build_lattice_hamiltonian(LatticeSpec(2, 2)).to_float()
    assert h.shape == (4, 4)
    assert np.array_equal(h.sum(axis=1), np.full(4, 2.0))
    assert np.array_equal(h, kron_sum_oracle(2, 2))


def test_one_dimensional_lattice_is_the_chain():
    lattice = build_lattice_hamiltonian(LatticeSpec(1, 5))
    chain = build_hamiltonian(ChainSpec(Topology.OPEN, 5))
    assert lattice == chain


def test_cube_lattice_degree_three():
    h = build_lattice_hamiltonian(LatticeSpec(3, 2)).to_float()
    assert np.array_equal(h.sum(axis=1), np.full(8, 3.0))
    assert np.array_equal(h, kron_sum_oracle(3, 2))


@pytest.mark.parametrize("d,n", [(1, 7), (2, 3), (2, 4), (3, 3)])
def test_builder_matches_kronecker_oracle(d, n):
    built = build_lattice_hamiltonian(LatticeSpec(d, n)).to_float()
    assert np.array_equal(built, kron_sum_oracle(d, n))


def test_lattice_eigenvalue_examples():
    assert lattice_eigenvalue(LatticeSpec(3, 4), MultiIndex((1, 1, 1))) \
        == pytest.approx(4.854101966, abs=1e-9)
    assert lattice_eigenvalue(LatticeSpec(2, 3), MultiIndex((1, 3))) \
        == pytest.approx(0.0, abs=1e-15)
    assert lattice_eigenvalue(LatticeSpec(1, 2), MultiIndex((1,))) \
        == pytest.approx(1.0, abs=1e-15)


def test_spectrum_multiset_matches_numeric():
    for d in (1, 2, 3):
        for n in range(2, 7):
            spec = LatticeSpec(d, n)
            analytic = np.sort(lattice_spectrum(spec).ravel())
            numeric = symmetric_eigenvalues(
                build_lattice_hamiltonian(spec).to_float())
            assert float(np.max(np.abs(analytic - numeric))) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 7, 16, 30])
def test_two_dimensional_zero_count(n):
    lam = lattice_spectrum(LatticeSpec(2, n))
    assert int(np.sum(np.abs(lam) < 1e-9)) == n


def test_green_entry_one_dimensional_example():
    value = lattice_green_entry(LatticeSpec(1, 6), MultiIndex((2,)), MultiIndex((1,)))
    assert value == pytest.approx(-1.0, abs=1e-12)


def test_green_entry_three_dimensional_row_residual():
    spec = LatticeSpec(3, 4)
    h = build_lattice_hamiltonian(spec).to_float()
    g = lattice_green_matrix(spec)
    entry = lattice_green_entry(spec, MultiIndex((1, 1, 1)), MultiIndex((1, 1, 1)))
    assert entry == pytest.approx(g[0, 0], abs=1e-12)
    residual = h @ g[:, 0] + np.eye(64)[:, 0]
    assert float(np.max(np.abs(residual))) <= 1e-8


def test_green_entry_two_dimensional_singular_with_witness():
    spec = LatticeSpec(2, 5)
    with pytest.raises(SingularLattice) as err:
        lattice_green_entry(spec, MultiIndex((1, 1)), MultiIndex((1, 1)))
    witness = err.value.witness
    assert witness is not None
    assert cosine_sum_is_zero_exact(6, witness)


def test_green_matrix_one_dimensional_reduction():
    g = lattice_green_matrix(LatticeSpec(1, 4))
    h = build_hamiltonian(ChainSpec(Topology.OPEN, 4)).to_float()
    assert float(np.max(np.abs(g + np.linalg.inv(h)))) <= 1e-10
    closed = green_matrix(ChainSpec(Topology.OPEN, 4)).to_float()
    assert float(np.max(np.abs(g - closed))) <= 1e-10


def test_green_matrix_one_dimensional_sweep():
    for n in range(2, 51, 2):
        spec = LatticeSpec(1, n)
        g = lattice_green_matrix(spec)
        closed = green_matrix(ChainSpec(Topology.OPEN, n)).to_float()
        assert float(np.max(np.abs(g - closed))) <= 1e-10
        for r, s in ((1, 2), (n - 1, n), (n // 2, n // 2 + 1)):
            entry = lattice_green_entry(spec, MultiIndex((r,)), MultiIndex((s,)))
            assert entry == pytest.approx(closed[r - 1, s - 1], abs=1e-10)


def test_green_matrix_cube_exists():
    # n = 3 is prime, so the cube lattice Green's function exists even
    # though d equals the smallest prime divisor (eigenvalues are +-1, +-3).
    spec = LatticeSpec(3, 2)
    g = lattice_green_matrix(spec)
    h = build_lattice_hamiltonian(spec).to_float()
    assert float(np.max(np.abs(h @ g + np.eye(8)))) <= 1e-12


def test_green_matrix_three_dimensional_residual_and_symmetry():
    spec = LatticeSpec(3, 4)
    h = build_lattice_hamiltonian(spec).to_float()
    g = lattice_green_matrix(spec)
    assert float(np.max(np.abs(h @ g + np.eye(64)))) <= 1e-8
    assert float(np.max(np.abs(g - g.T))) <= 1e-10


def test_green_matrix_rejects_even_dimension():
    with pytest.raises(SingularLattice):
        lattice_green_matrix(LatticeSpec(2, 4))


def test_green_matrix_rejects_odd_chain():
    with pytest.raises(SingularLattice):
        lattice_green_matrix(LatticeSpec(1, 5))


def test_builder_memory_guard(monkeypatch):
    with pytest.raises(TooLarge):
        build_lattice_hamiltonian(LatticeSpec(3, 128))  # 2^21 sites
    monkeypatch.setenv("HUECKEL_MAX_CELLS", "16")
    with pytest.raises(TooLarge):
        build_lattice_hamiltonian(LatticeSpec(2, 3))  # 81 cells
    build_lattice_hamiltonian(LatticeSpec(2, 2))  # 16 cells still fit


def test_builder_guard_counts_cells_not_sites(monkeypatch):
    monkeypatch.setenv("HUECKEL_MAX_CELLS", "100")
    with pytest.raises(TooLarge) as err:
        build_lattice_hamiltonian(LatticeSpec(2, 10))  # 100 sites, 10 000 cells
    assert str(err.value) == (
        "100x100 matrix (10000 cells) exceeds the memory guard (100)")
    # the spectrum holds one float per site, so its guard stays on sites
    assert lattice_spectrum(LatticeSpec(2, 10)).size == 100
    with pytest.raises(TooLarge):
        lattice_spectrum(LatticeSpec(2, 11))


def test_dense_green_guard():
    with pytest.raises(TooLarge):
        lattice_green_matrix(LatticeSpec(3, 17))  # 4913 > 4096 sites


def test_flatten_row_major_dimension_one_slowest():
    spec = LatticeSpec(3, 4)
    assert flatten(spec, MultiIndex((1, 1, 1))) == 1
    assert flatten(spec, MultiIndex((1, 1, 2))) == 2
    assert flatten(spec, MultiIndex((2, 1, 1))) == 17
    k = MultiIndex((3, 2, 4))
    assert flatten(spec, k) == (3 - 1) * 16 + (2 - 1) * 4 + (4 - 1) + 1
    for flat in range(1, spec.total_sites + 1):
        assert flatten(spec, unflatten(spec, flat)) == flat


def test_multi_index_validation():
    spec = LatticeSpec(2, 3)
    with pytest.raises(IndexOutOfRange):
        flatten(spec, MultiIndex((1,)))
    with pytest.raises(IndexOutOfRange):
        flatten(spec, MultiIndex((0, 2)))
    with pytest.raises(IndexOutOfRange):
        lattice_green_entry(spec, MultiIndex((1, 4)), MultiIndex((1, 1)))


def test_flattening_orders_the_spectrum_tensor():
    # lattice_spectrum axis order must match the flat site/mode convention
    spec = LatticeSpec(2, 3)
    lam = lattice_spectrum(spec)
    for k1 in range(1, 4):
        for k2 in range(1, 4):
            assert lam[k1 - 1, k2 - 1] == pytest.approx(
                lattice_eigenvalue(spec, MultiIndex((k1, k2))), abs=1e-14)
