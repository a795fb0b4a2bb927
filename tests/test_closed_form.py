"""Closed-form Green's functions against paper patterns and exact oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hueckel_green import (ChainSpec, CycleTooSmall, ExactMatrix,
                           GreenEntryQuery, SingularMatrix, Topology,
                           ZeroCoupling, build_hamiltonian,
                           cyclic_inverse_first_column, det_fraction_free,
                           det_open, green_entry, green_matrix,
                           harmonic_sum_identity_check)
from hueckel_green import closed_form
from hueckel_green.closed_form import (_alternating_cyclic_kernel,
                                       _alternating_open_kernel)

from oracles import (cofactor_inverse, gauss_jordan_inverse, identity_rows,
                     multiply)

F = Fraction

# The 6x6 alternating-sign pattern of the uniform open-chain Green's matrix.
PATTERN_SIX = [
    [0, -1, 0, 1, 0, -1],
    [-1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 1],
    [1, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1],
    [-1, 0, 1, 0, -1, 0],
]


def open_query(n, r, s, beta=1, alpha=1):
    spec = ChainSpec(Topology.OPEN, n, coupling_odd=beta, coupling_even=alpha)
    return GreenEntryQuery(spec, r, s)


def cyclic_query(n, r, s, beta=1, alpha=1):
    spec = ChainSpec(Topology.CYCLIC, n, coupling_odd=beta, coupling_even=alpha)
    return GreenEntryQuery(spec, r, s)


@pytest.mark.parametrize("n,expected", [(2, -1), (4, 1), (5, 0), (200, 1)])
def test_det_open_table(n, expected):
    assert det_open(n) == expected


def test_det_open_matches_fraction_free():
    for n in range(1, 21):
        h = build_hamiltonian(ChainSpec(Topology.OPEN, n))
        assert det_open(n) == det_fraction_free(h)


@pytest.mark.parametrize("r,s,expected", [(2, 1, -1), (4, 1, 1), (3, 5, 0)])
def test_green_open_entries(r, s, expected):
    assert green_entry(open_query(6, r, s)) == expected


def test_green_open_six_site_pattern():
    g = green_matrix(ChainSpec(Topology.OPEN, 6))
    assert g.to_lists() == PATTERN_SIX


def test_green_open_odd_is_singular():
    with pytest.raises(SingularMatrix) as err:
        green_entry(open_query(5, 1, 2))
    assert err.value.case == "N odd"


@settings(max_examples=80)
@given(n=st.integers(1, 50), r=st.integers(1, 100), s=st.integers(1, 100))
def test_green_open_symmetry_and_alternancy(n, r, s):
    n = 2 * n
    r = (r - 1) % n + 1
    s = (s - 1) % n + 1
    value = green_entry(open_query(n, r, s))
    assert value == green_entry(open_query(n, s, r))
    if (r + s) % 2 == 0:
        assert value == 0
    else:
        assert value in (-1, 0, 1)


def test_green_bond_alternating_two_sites():
    # invert [[0,2],[2,0]] directly: inverse (2,1) entry is 1/2, G = -1/2
    assert green_entry(open_query(2, 2, 1, beta=2, alpha=7)) == F(-1, 2)


def test_green_bond_alternating_uniform_reduction():
    for r in range(1, 5):
        for s in range(1, 5):
            q = open_query(4, r, s)
            assert _alternating_open_kernel(q.spec)(r, s) == green_entry(q)


def test_green_bond_alternating_same_parity_zero():
    assert green_entry(open_query(4, 3, 3, beta=3, alpha=5)) == 0


def test_green_bond_alternating_zero_coupling():
    with pytest.raises(ZeroCoupling):
        green_entry(open_query(4, 2, 1, beta=0, alpha=0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_green_bond_alternating_matches_cofactor_oracle(data):
    n = 2 * data.draw(st.integers(1, 3), label="half_n")
    beta = data.draw(st.builds(F, st.integers(1, 4), st.integers(1, 3)))
    alpha = data.draw(st.builds(F, st.integers(1, 4), st.integers(1, 3)))
    spec = ChainSpec(Topology.OPEN, n, coupling_odd=beta, coupling_even=alpha)
    inv = cofactor_inverse(build_hamiltonian(spec).to_lists())
    expected = [[-x for x in row] for row in inv]
    assert green_matrix(spec).to_lists() == expected


@pytest.mark.parametrize("n,r,s,expected", [
    (5, 1, 1, F(-1, 2)),
    (6, 2, 1, F(-1, 2)),
    (6, 1, 1, 0),
])
def test_green_cyclic_entries(n, r, s, expected):
    assert green_entry(cyclic_query(n, r, s)) == expected


def test_green_cyclic_multiple_of_four_singular():
    with pytest.raises(SingularMatrix) as err:
        green_entry(cyclic_query(8, 1, 1))
    assert err.value.case == "N=4k"


def test_green_cyclic_identity_exact():
    for n in (5, 6, 7, 11):
        spec = ChainSpec(Topology.CYCLIC, n)
        product = multiply(build_hamiltonian(spec).to_lists(),
                           (-green_matrix(spec)).to_lists())
        assert product == identity_rows(n)


def test_green_cyclic_alternating_uniform_entry():
    spec = ChainSpec(Topology.CYCLIC, 6)
    assert _alternating_cyclic_kernel(spec)(2, 1) == F(-1, 2)


def test_green_cyclic_alternating_uniform_four_singular():
    with pytest.raises(SingularMatrix) as err:
        _alternating_cyclic_kernel(cyclic_query(4, 2, 1).spec)
    assert err.value.case == "N=4k"


def test_green_cyclic_alternating_four_sites_oracle():
    # H has bonds beta=1, alpha=2 and corner alpha: cofactor inversion of
    # [[0,1,0,2],[1,0,2,0],[0,2,0,1],[2,0,1,0]] gives column (0,-1/3,0,2/3),
    # so G(2,1) = +1/3.
    q = cyclic_query(4, 2, 1, beta=1, alpha=2)
    inv = cofactor_inverse(build_hamiltonian(q.spec).to_lists())
    assert inv[1][0] == F(-1, 3)
    assert green_entry(q) == F(1, 3)
    assert green_entry(q) == -inv[1][0]


def test_green_cyclic_alternating_two_sites_rejected():
    with pytest.raises(CycleTooSmall):
        green_entry(cyclic_query(2, 1, 2, beta=2, alpha=3))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_green_cyclic_alternating_matches_gauss_jordan(data):
    n = 2 * data.draw(st.integers(2, 5), label="half_n")
    beta = data.draw(st.builds(F, st.integers(1, 4), st.integers(1, 3)))
    alpha = data.draw(st.builds(F, st.integers(1, 4), st.integers(1, 3)))
    spec = ChainSpec(Topology.CYCLIC, n, coupling_odd=beta, coupling_even=alpha)
    try:
        g = green_matrix(spec)
    except SingularMatrix:
        assert det_fraction_free(build_hamiltonian(spec)) == 0
        return
    inv = gauss_jordan_inverse(build_hamiltonian(spec).to_lists())
    assert g.to_lists() == [[-x for x in row] for row in inv]


def test_vanishing_denominator_matches_exact_singularity():
    # alpha = -beta kills both geometric denominators; the matrix really is
    # singular
    spec = ChainSpec(Topology.CYCLIC, 6, coupling_odd=2, coupling_even=-2)
    with pytest.raises(SingularMatrix) as err:
        green_matrix(spec)
    assert err.value.case == "alternating denominator"
    assert det_fraction_free(build_hamiltonian(spec)) == 0


def test_green_entry_dispatch():
    assert green_entry(open_query(6, 2, 1)) == -1
    assert green_entry(cyclic_query(6, 2, 1)) == F(-1, 2)
    assert green_entry(open_query(2, 2, 1, beta=2, alpha=7)) == F(-1, 2)
    assert green_entry(cyclic_query(4, 2, 1, beta=1, alpha=2)) == F(1, 3)


@pytest.mark.parametrize("n,r,s,expected_float,expected_exact", [
    (2, 1, 2, -1.0, -1),
    (6, 2, 4, 0.0, 0),
    (6, 4, 1, 1.0, 1),
])
def test_harmonic_sum_identity_examples(n, r, s, expected_float, expected_exact):
    float_side, exact_side = harmonic_sum_identity_check(n, r, s)
    assert exact_side == expected_exact
    assert float_side == pytest.approx(expected_float, abs=1e-10)
    assert abs(float_side - float(exact_side)) <= 1e-9


def test_harmonic_sum_rejects_odd():
    with pytest.raises(SingularMatrix):
        harmonic_sum_identity_check(5, 1, 2)


@pytest.mark.parametrize("n", [2, 10, 40])
def test_open_identity_and_uniform_reduction(n):
    spec = ChainSpec(Topology.OPEN, n)
    g = green_matrix(spec)
    assert multiply(build_hamiltonian(spec).to_lists(),
                    (-g).to_lists()) == identity_rows(n)
    # The alternating form at unit couplings reduces to the uniform pattern.
    alternating = _alternating_open_kernel(spec)
    assert [[alternating(r, s) for s in range(1, n + 1)]
            for r in range(1, n + 1)] == g.to_lists()


def refused_entry_call(rows, r, s):
    raise AssertionError(f"green_matrix asked for the entry ({r}, {s})")


# Four closed forms: uniform open, alternating open, uniform ring,
# alternating ring, and the odd rings with equal couplings t != 1.
# green_matrix must fill exactly the entries green_entry answers one at a
# time, and copy them out of the rows without asking for any one of them.
@pytest.mark.parametrize("topology,beta,alpha,sizes", [
    (Topology.OPEN, 1, 1, range(2, 31, 2)),
    (Topology.OPEN, F(2), F(-1, 3), range(2, 25, 2)),
    (Topology.CYCLIC, 1, 1, [n for n in range(3, 31) if n % 4]),
    (Topology.CYCLIC, F(3, 2), F(5, 7), range(4, 25, 2)),
    (Topology.CYCLIC, F(2), F(2), range(3, 25, 2)),
    (Topology.CYCLIC, F(-3, 7), F(-3, 7), range(3, 25, 2)),
])
def test_green_matrix_matches_entrywise(topology, beta, alpha, sizes,
                                        monkeypatch):
    for n in sizes:
        spec = ChainSpec(topology, n, coupling_odd=beta, coupling_even=alpha)
        expected = [[green_entry(GreenEntryQuery(spec, r, s))
                     for s in range(1, n + 1)] for r in range(1, n + 1)]
        with monkeypatch.context() as patched:
            patched.setattr(closed_form._Rows, "__call__", refused_entry_call)
            g = green_matrix(spec)
        assert g.to_lists() == expected, n


# One chain per form at the memory guard's edge; the uniform ring N = 1024
# is N = 4k, so it is N = 1022.  green_entry validates the spec per call,
# so every entry is read through the one form it builds, and a few through
# green_entry itself.
@pytest.mark.parametrize("spec", [
    ChainSpec(Topology.OPEN, 1024),
    ChainSpec(Topology.OPEN, 1024, F(1, 3), F(2)),
    ChainSpec(Topology.CYCLIC, 1022),
    ChainSpec(Topology.CYCLIC, 1024, F(1, 3), F(2)),
], ids=["open", "open-alternating", "ring", "ring-alternating"])
def test_green_matrix_at_the_guard_edge_matches_entrywise(spec, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(closed_form._Rows, "__call__", refused_entry_call)
        g = green_matrix(spec).to_lists()
    form = closed_form._entry_kernel(spec)
    n = spec.n_sites
    sites = range(1, n + 1)
    assert g == [[form(r, s) for s in sites] for r in sites]
    for r, s in ((1, 1), (1, n), (n, 1), (2, 1), (n // 2, n // 2 + 1),
                 (n // 3, n - 4)):
        assert g[r - 1][s - 1] == green_entry(GreenEntryQuery(spec, r, s))


def refused_rows(form):
    raise AssertionError("a single entry built the rows of its chain")


# A single entry forms one power of alpha/beta, not the chain's O(N) rows,
# whose N/2 powers would take O(N^2) bits: at N = 10^6 it is one
# 1.3-million-bit value.
def test_single_entry_at_large_n_builds_no_rows(monkeypatch):
    monkeypatch.setattr(closed_form._Rows, "odd_row", refused_rows)
    monkeypatch.setattr(closed_form._Bipartite, "odd_row", refused_rows)
    n, beta, alpha = 10 ** 6, F(1, 3), F(2)
    ratio = -alpha / beta
    open_chain = ChainSpec(Topology.OPEN, n, beta, alpha)
    assert green_entry(GreenEntryQuery(open_chain, n, 1)) == \
        -ratio ** (n // 2 - 1) / beta
    assert green_entry(GreenEntryQuery(open_chain, n, n - 2)) == 0
    ring = ChainSpec(Topology.CYCLIC, n, beta, alpha)
    assert green_entry(GreenEntryQuery(ring, 2, 1)) == \
        -1 / (beta * (1 - ratio ** (n // 2)))


@pytest.mark.parametrize("spec,error,message", [
    (ChainSpec(Topology.OPEN, 5), SingularMatrix, "singular: N odd"),
    (ChainSpec(Topology.OPEN, 4, 0, 0), ZeroCoupling,
     "couplings must be nonzero"),
    (ChainSpec(Topology.OPEN, 4, 0, 2), ZeroCoupling,
     "couplings must be nonzero"),
    (ChainSpec(Topology.CYCLIC, 8), SingularMatrix, "singular: N=4k"),
    (ChainSpec(Topology.CYCLIC, 2), CycleTooSmall,
     "cyclic Green's function needs N >= 3"),
    (ChainSpec(Topology.CYCLIC, 2, 2, 3), CycleTooSmall,
     "cyclic bond alternation needs N >= 4"),
    (ChainSpec(Topology.CYCLIC, 6, 0, 2), ZeroCoupling,
     "couplings must be nonzero"),
    (ChainSpec(Topology.CYCLIC, 6, 2, -2), SingularMatrix,
     "singular: alternating denominator"),
])
def test_green_matrix_and_entry_error_parity(spec, error, message):
    with pytest.raises(error) as matrix_err:
        green_matrix(spec)
    with pytest.raises(error) as entry_err:
        green_entry(GreenEntryQuery(spec, 1, 2))
    assert str(matrix_err.value) == str(entry_err.value) == message


@pytest.mark.parametrize("n", [n for n in range(3, 60) if n % 4] + [147, 198])
def test_uniform_ring_matrix_is_recurrence_circulant(n):
    column = cyclic_inverse_first_column(n).first_column
    expected = ExactMatrix.from_rows(
        [[-column[(r - s) % n] for s in range(n)] for r in range(n)])
    assert green_matrix(ChainSpec(Topology.CYCLIC, n)) == expected


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
@pytest.mark.parametrize("t", [F(2), F(-3, 7)])
def test_odd_ring_with_equal_couplings_is_invertible(n, t):
    # Regression: the alternating ring kernel called every odd ring
    # singular, but t (S + S^T) is invertible at odd N.
    spec = ChainSpec(Topology.CYCLIC, n, t, t)
    inverse = gauss_jordan_inverse(build_hamiltonian(spec).to_lists())
    assert green_matrix(spec).to_lists() == [[-x for x in row]
                                             for row in inverse]
    assert green_entry(GreenEntryQuery(spec, 2, 1)) == -inverse[1][0]


def test_odd_ring_with_zero_couplings_is_singular():
    with pytest.raises(SingularMatrix) as err:
        green_matrix(ChainSpec(Topology.CYCLIC, 5, 0, 0))
    assert err.value.case == "zero couplings"
