"""Builders, the analytic eigenbasis and the spectral resolvent."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hueckel_green import (AlternatingOddN, ChainSpec, CycleTooSmall,
                           EnergyAtPole, ExactMatrix, GreenEntryQuery,
                           IndexOutOfRange, TooLarge, Topology,
                           UnsupportedCouplings, build_hamiltonian,
                           green_entry, green_matrix, spectral_resolvent_entry,
                           spectral_resolvent_matrix, transmission_proxy)
from hueckel_green.chains import _eigenvalues, _mode_row, _pairwise_sum

from oracles import (cofactor_inverse, numpy_resolvent_matrix,
                     vectorized_eigensystem)


def test_build_open_three_sites():
    h = build_hamiltonian(ChainSpec(Topology.OPEN, 3))
    assert h.to_lists() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_build_cycle_six_sites_has_corners():
    h = build_hamiltonian(ChainSpec(Topology.CYCLIC, 6))
    rows = h.to_lists()
    assert rows[0][5] == 1 and rows[5][0] == 1
    assert rows[0][1] == 1 and rows[4][5] == 1
    assert all(rows[i][i] == 0 for i in range(6))


def test_build_alternating_pattern():
    h = build_hamiltonian(ChainSpec(Topology.OPEN, 4, coupling_odd=2, coupling_even=3))
    assert h.to_lists() == [[0, 2, 0, 0], [2, 0, 3, 0], [0, 3, 0, 2], [0, 0, 2, 0]]


def test_degenerate_two_site_cycle_is_single_edge():
    h = build_hamiltonian(ChainSpec(Topology.CYCLIC, 2))
    assert h.to_lists() == [[0, 1], [1, 0]]


def test_build_rejects_alternating_odd_n():
    with pytest.raises(AlternatingOddN):
        ChainSpec(Topology.OPEN, 5, coupling_odd=1, coupling_even=2)


def test_build_rejects_one_site_cycle():
    with pytest.raises(CycleTooSmall):
        ChainSpec(Topology.CYCLIC, 1)


def test_float_couplings_rejected():
    with pytest.raises(TypeError):
        ChainSpec(Topology.OPEN, 4, coupling_odd=0.5)


@given(n=st.integers(1, 40),
       topology=st.sampled_from([Topology.OPEN, Topology.CYCLIC]))
def test_hamiltonian_symmetric_zero_diagonal(n, topology):
    if topology is Topology.CYCLIC and n < 2:
        n = 2
    h = build_hamiltonian(ChainSpec(topology, n))
    rows = h.to_lists()
    assert rows == [list(column) for column in zip(*rows)]
    assert all(h.get(i, i) == 0 for i in range(n))


def eigensystem(spec):
    """(eigenvalues, eigenvector matrix) from `_eigenvalues` and the N rows
    of `_mode_row`, eigenvalue i belonging to column i."""
    rows = [_mode_row(spec, r) for r in range(1, spec.n_sites + 1)]
    return np.array(_eigenvalues(spec)), np.array(rows)


def test_eigenvalues_two_sites():
    lam, _ = eigensystem(ChainSpec(Topology.OPEN, 2))
    assert np.allclose(lam, [1.0, -1.0])


def test_eigenvalue_single_site():
    lam, q = eigensystem(ChainSpec(Topology.OPEN, 1))
    assert abs(lam[0]) < 1e-15
    assert q[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_cyclic_six_contains_band_edges():
    lam, _ = eigensystem(ChainSpec(Topology.CYCLIC, 6))
    assert lam[0] == pytest.approx(2.0, abs=1e-12)
    assert lam[3] == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("topology", [Topology.OPEN, Topology.CYCLIC])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 34, 100, 251, 500])
def test_eigensystem_residual_and_norms(topology, n):
    if topology is Topology.CYCLIC and n < 3:
        pytest.skip("cycle needs three sites")
    spec = ChainSpec(topology, n)
    lam, q = eigensystem(spec)
    h = build_hamiltonian(spec).to_float()
    residual = np.max(np.abs(h @ q - q * lam))
    assert residual <= 1e-10
    norms = np.linalg.norm(q, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


@pytest.mark.parametrize("topology", [Topology.OPEN, Topology.CYCLIC])
def test_eigensystem_rows_equal_the_vectorized_formula(topology):
    cyclic = topology is Topology.CYCLIC
    for n in (*range(3 if cyclic else 1, 41), 127, 128, 129, 130, 257, 400):
        lam, q = eigensystem(ChainSpec(topology, n))
        want_lam, want_q = vectorized_eigensystem(n, cyclic)
        assert np.array_equal(lam, want_lam), n
        assert np.array_equal(q, want_q), n


@settings(max_examples=60)
@given(n=st.integers(1, 500))
def test_open_eigenvalue_pairing(n):
    lam = np.array(_eigenvalues(ChainSpec(Topology.OPEN, n)))
    paired = lam + lam[::-1]
    assert np.max(np.abs(paired)) <= 1e-12


def test_resolvent_two_sites_off_diagonal():
    # Oracle: eigenpairs are C = sqrt(2/3) sin(r k pi/3), eps = (1, -1);
    # the two-term sum C_11 C_21/(0-1) + C_12 C_22/(0+1) = -1/2 - 1/2 = -1,
    # which equals G(1,2) of the closed form.
    spec = ChainSpec(Topology.OPEN, 2)
    value = spectral_resolvent_entry(spec, 1, 2, 0.0)
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert value == pytest.approx(float(green_entry(GreenEntryQuery(spec, 1, 2))),
                                  abs=1e-12)


def test_resolvent_two_sites_diagonal_cancels():
    assert spectral_resolvent_entry(ChainSpec(Topology.OPEN, 2), 1, 1, 0.0) \
        == pytest.approx(0.0, abs=1e-14)


def test_resolvent_pole_for_odd_chain():
    with pytest.raises(EnergyAtPole) as err:
        spectral_resolvent_entry(ChainSpec(Topology.OPEN, 3), 1, 2, 0.0)
    assert str(err.value) == (
        "E=0.0 within 1e-9 of an eigenvalue (gap 1.225e-16)")


def test_resolvent_pole_near_eigenvalue():
    with pytest.raises(EnergyAtPole) as err:
        spectral_resolvent_entry(ChainSpec(Topology.OPEN, 2), 1, 2, 1.0 + 5e-10)
    assert str(err.value) == (
        "E=1.0000000005 within 1e-9 of an eigenvalue (gap 5.000e-10)")


def test_resolvent_refuses_nan_energy():
    # Regression: a NaN gap passed the pole screen and gave a NaN G.
    spec = ChainSpec(Topology.OPEN, 4)
    with pytest.raises(EnergyAtPole) as err:
        spectral_resolvent_entry(spec, 1, 2, float("nan"))
    assert str(err.value) == "E=nan is not a number"
    with pytest.raises(EnergyAtPole) as err:
        spectral_resolvent_matrix(spec, float("nan"))
    assert str(err.value) == "E=nan is not a number"
    for energy in (float("inf"), float("-inf")):
        assert spectral_resolvent_entry(spec, 1, 2, energy) == 0.0
        assert spectral_resolvent_matrix(spec, energy) == [[0.0] * 4] * 4


GUARD = "1025x1025 matrix (1050625 cells) exceeds the memory guard (1048576)"


@pytest.mark.parametrize("topology,n,r,s,energy,error,text", [
    # the 2-site ring is refused before the pole at E = 2
    (Topology.CYCLIC, 2, 1, 2, 2.0, CycleTooSmall,
     "cyclic eigensystem needs N >= 3"),
    (Topology.CYCLIC, 2, 3, 1, 2.0, IndexOutOfRange, "site 3 outside 1..2"),
    (Topology.CYCLIC, 6, 1, 7, 1.0, IndexOutOfRange, "site 7 outside 1..6"),
    # the N^2 guard comes before the pole (0 is an eigenvalue at odd N)
    (Topology.OPEN, 1025, 1, 2, 0.0, TooLarge, GUARD),
    (Topology.CYCLIC, 1025, 1, 1025, 0.37, TooLarge, GUARD),
    (Topology.CYCLIC, 8, 1, 2, 0.0, EnergyAtPole,
     "E=0.0 within 1e-9 of an eigenvalue (gap 1.225e-16)"),
])
def test_resolvent_entry_refusals_in_order(monkeypatch, topology, n, r, s,
                                           energy, error, text):
    monkeypatch.delenv("HUECKEL_MAX_CELLS", raising=False)
    with pytest.raises(error) as err:
        spectral_resolvent_entry(ChainSpec(topology, n), r, s, energy)
    assert str(err.value) == text


@pytest.mark.parametrize("n", [2, 6, 20, 50, 200])
def test_resolvent_at_zero_matches_closed_form(n):
    spec = ChainSpec(Topology.OPEN, n)
    g = green_matrix(spec)
    rng = np.random.default_rng(7)
    pairs = {(1, 1), (1, n), (n // 2, n // 2 + 1)}
    pairs.update((int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
                 for _ in range(20))
    for r, s in sorted(pairs):
        want = float(g.get(r - 1, s - 1))
        assert spectral_resolvent_entry(spec, r, s, 0.0) == pytest.approx(
            want, abs=1e-9)


def test_resolvent_away_from_zero_matches_dense_resolvent():
    spec = ChainSpec(Topology.OPEN, 8)
    h = build_hamiltonian(spec).to_float()
    energy = 0.35
    dense = np.linalg.inv(energy * np.eye(8) - h)
    for r, s in ((1, 1), (2, 7), (4, 4)):
        assert spectral_resolvent_entry(spec, r, s, energy) == pytest.approx(
            dense[r - 1, s - 1], abs=1e-10)


def _hex_rows(m) -> list[list[str]]:
    return [[float(v).hex() for v in row] for row in m]


_MATRIX_CASES = [
    (Topology.OPEN, 1, 0.3), (Topology.OPEN, 2, 0.0), (Topology.OPEN, 3, 0.37),
    (Topology.OPEN, 6, 0.0), (Topology.OPEN, 35, 0.37), (Topology.OPEN, 90, 0.0),
    (Topology.CYCLIC, 3, 0.0), (Topology.CYCLIC, 5, 0.37),
    (Topology.CYCLIC, 35, 0.0), (Topology.CYCLIC, 42, 0.0),
    # past numpy's 128-term pairwise block, where the sum splits in two
    (Topology.OPEN, 130, 0.0), (Topology.OPEN, 300, 0.37),
    (Topology.OPEN, 400, 0.0), (Topology.CYCLIC, 129, 0.0),
    (Topology.CYCLIC, 250, 0.37), (Topology.CYCLIC, 257, 0.0),
]
# every pairwise-sum remainder below and inside the first 8-way block, the
# 2-site ring and the small poles; then both sides of the 128-site switch,
# at a pole where N has one (a 1-site ring is no chain at all)
_MATRIX_CASES += [
    (topology, n, energy)
    for topology in (Topology.OPEN, Topology.CYCLIC)
    for n, energies in ([(n, (0.0, 0.37, -1.3)) for n in range(1, 18)]
                        + [(n, (0.0, 0.37)) for n in range(127, 131)])
    for energy in energies
    if (topology, n, energy) not in _MATRIX_CASES
    and (topology, n) != (Topology.CYCLIC, 1)
]


@pytest.mark.parametrize("topology,n,energy", _MATRIX_CASES)
def test_resolvent_matrix_is_entrywise_bit_for_bit(topology, n, energy):
    spec = ChainSpec(topology, n)
    try:
        expected = _hex_rows(numpy_resolvent_matrix(spec, energy))
    except (EnergyAtPole, CycleTooSmall) as err:
        # a pole or a 2-site ring is refused alike, with the same message
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            spectral_resolvent_matrix(spec, energy)
        return
    matrix = spectral_resolvent_matrix(spec, energy)
    assert all(type(v) is float for row in matrix for v in row)
    matrix = np.asarray(matrix)
    assert matrix.shape == (n, n)
    assert _hex_rows(matrix) == expected
    # every row up to 128 sites; past that, whole rows at the ends and middle
    rows = (range(1, n + 1) if n <= 128
            else sorted({1, 2, n // 3, n // 2, n - 1, n}))
    entrywise = [[spectral_resolvent_entry(spec, r, s, energy)
                  for s in range(1, n + 1)] for r in rows]
    assert _hex_rows(matrix[[r - 1 for r in rows]]) == _hex_rows(entrywise)


def test_pairwise_sum_is_numpys_sum():
    # numpy's own reduction is the oracle; magnitudes spread over ten
    # decades so that a different association shows in the last bits
    rng = np.random.default_rng(20)
    for n in range(1, 1101):
        terms = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        assert _pairwise_sum(terms.tolist()) == np.sum(terms), n
    assert str(_pairwise_sum([-0.0] * 9)) == str(np.sum([-0.0] * 9)) == "0.0"


def test_resolvent_matrix_rejects_pole_and_couplings():
    with pytest.raises(EnergyAtPole):
        spectral_resolvent_matrix(ChainSpec(Topology.OPEN, 5), 0.0)
    with pytest.raises(UnsupportedCouplings):
        spectral_resolvent_matrix(
            ChainSpec(Topology.OPEN, 4, coupling_odd=2, coupling_even=1), 0.0)
    with pytest.raises(CycleTooSmall, match="cyclic eigensystem needs N >= 3"):
        spectral_resolvent_matrix(ChainSpec(Topology.CYCLIC, 2), 2.0)


def test_transmission_from_closed_form_matrix():
    g = green_matrix(ChainSpec(Topology.OPEN, 6))
    assert transmission_proxy(g, 1, 2) == 1
    assert transmission_proxy(g, 1, 3) == 0


def test_transmission_alternating_quarter():
    # Oracle: invert [[0,2],[2,0]] directly; G = -inverse has G(2,1) = -1/2.
    spec = ChainSpec(Topology.OPEN, 2, coupling_odd=2, coupling_even=1)
    h = build_hamiltonian(spec)
    inv = cofactor_inverse(h.to_lists())
    g = ExactMatrix.from_rows([[-x for x in row] for row in inv])
    assert g.get(1, 0) == Fraction(-1, 2)
    assert transmission_proxy(g, 2, 1) == Fraction(1, 4)


def test_transmission_index_out_of_range():
    g = green_matrix(ChainSpec(Topology.OPEN, 4))
    with pytest.raises(IndexOutOfRange):
        transmission_proxy(g, 0, 1)
    with pytest.raises(IndexOutOfRange):
        transmission_proxy(g, 1, 5)
