"""The package's value types: immutable, and size and index errors typed."""

from fractions import Fraction

import pytest

from hueckel_green import (ChainSpec, CirculantSpec, CosineWitness,
                           ExactMatrix, GreenEntryQuery, HueckelError,
                           IndexOutOfRange, InvalidSize, InvertibilityQuery,
                           LatticeSpec, MultiIndex, Topology, TridiagonalSpec,
                           cosine_sum_is_zero_exact, cyclic_inverse_first_column,
                           cyclic_kernel_basis, cyclotomic_polynomial,
                           det_cyclic, det_open, direct_green_matrix,
                           direct_green_sum, find_vanishing_witness,
                           green_entry, roots_of_unity_sum_is_zero,
                           smallest_prime_divisor, spectral_resolvent_entry,
                           symbol_factorization_inverse, theta_phi,
                           transmission_proxy, unflatten, usmani_entry)
from hueckel_green.trig import parity_zero_sum, sine_ratio_sign

CHAIN = ChainSpec(Topology.OPEN, 4, 2, Fraction(1, 3))
TRIDIAGONAL = TridiagonalSpec.from_chain(CHAIN)

VALUES = {
    "ChainSpec": (CHAIN, "n_sites"),
    "TridiagonalSpec": (TRIDIAGONAL, "diag"),
    "ThetaPhiTables": (theta_phi(TRIDIAGONAL), "theta"),
    "CirculantSpec": (CirculantSpec((0, 1, 0)), "first_column"),
    "LatticeSpec": (LatticeSpec(2, 3), "linear_size"),
    "MultiIndex": (MultiIndex((1, 2)), "coords"),
    "InvertibilityQuery": (InvertibilityQuery(3, 9), "dim"),
    "CosineWitness": (CosineWitness((2, 4, 8)), "ks"),
    "GreenEntryQuery": (GreenEntryQuery(CHAIN, 1, 2), "r"),
    "ExactMatrix.rows": (ExactMatrix.from_rows([[1, 2], [3, 4]]), "rows"),
    "ExactMatrix.cols": (ExactMatrix.from_rows([[1, 2], [3, 4]]), "cols"),
}


@pytest.mark.parametrize("value, field", VALUES.values(), ids=VALUES)
def test_value_types_are_immutable(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


SIZE_ERRORS = {
    "lattice_dimension": (lambda: LatticeSpec(0, 3), "dimension must be >= 1"),
    "lattice_size": (lambda: LatticeSpec(3, 0), "linear size must be >= 1"),
    "tridiagonal_empty": (lambda: TridiagonalSpec((), (), ()), "empty diagonal"),
    "circulant_empty": (lambda: CirculantSpec(()), "empty first column"),
    "matrix_zero_rows": (lambda: ExactMatrix(0, 3, []),
                         "matrix dimensions must be positive"),
    "matrix_zero_cols": (lambda: ExactMatrix(2, 0, []),
                         "matrix dimensions must be positive"),
    "matrix_no_rows": (lambda: ExactMatrix.from_rows([]), "no rows"),
    "sine_ratio_odd": (lambda: sine_ratio_sign(3, 1),
                       "N must be a positive even integer"),
    "sine_ratio_zero": (lambda: sine_ratio_sign(0, 1),
                        "N must be a positive even integer"),
    "parity_sum_odd": (lambda: parity_zero_sum(5, 1),
                       "N must be a positive even integer"),
    "parity_sum_negative": (lambda: parity_zero_sum(-2, 1),
                            "N must be a positive even integer"),
}


@pytest.mark.parametrize("build, message", SIZE_ERRORS.values(),
                         ids=SIZE_ERRORS)
def test_empty_or_zero_sized_specs_raise_invalid_size(build, message):
    # Regression: these raised a plain ValueError, which callers that
    # catch HueckelError missed.
    with pytest.raises(HueckelError) as err:
        build()
    assert isinstance(err.value, InvalidSize)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == message


@pytest.mark.parametrize("i, j", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_matrix_index_outside_is_index_out_of_range(i, j):
    # Regression: this raised a bare IndexError((i, j)), which callers that
    # catch HueckelError missed.
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(HueckelError) as err:
        m.get(i, j)
    assert isinstance(err.value, IndexOutOfRange)
    assert isinstance(err.value, IndexError)
    assert str(err.value) == f"({i}, {j}) outside the 2x3 matrix"


@pytest.mark.parametrize("i", [2, 5, -1])
def test_matrix_row_outside_is_index_out_of_range(i):
    # Regression: row(5) and row(-1) returned [] where get refused.
    m = ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(IndexOutOfRange) as err:
        m.row(i)
    assert str(err.value) == f"row {i} outside the 2x3 matrix"


RING = ChainSpec(Topology.CYCLIC, 6)

NON_INTEGER_SITES = {
    "entry_r": (lambda: GreenEntryQuery(CHAIN, 1.5, 1), "1.5"),
    "entry_s": (lambda: GreenEntryQuery(CHAIN, 1, 2.0), "2.0"),
    "ring_entry": (lambda: green_entry(GreenEntryQuery(RING, 2.0, 1)), "2.0"),
    "spectral_entry": (lambda: spectral_resolvent_entry(
        ChainSpec(Topology.OPEN, 4), 1.5, 2, 0.0), "1.5"),
    "spectral_entry_s": (lambda: spectral_resolvent_entry(
        ChainSpec(Topology.OPEN, 4), 1, "2", 0.0), "'2'"),
}


@pytest.mark.parametrize("build, site", NON_INTEGER_SITES.values(),
                         ids=NON_INTEGER_SITES)
def test_non_integer_sites_raise_index_out_of_range(build, site):
    # Regression: a site of 1.5 gave the entry 0 or a spectral value, and a
    # ring site of 2.0 a bare TypeError.
    with pytest.raises(IndexOutOfRange) as err:
        build()
    assert str(err.value) == f"site {site} is not an integer"


MATRIX = ExactMatrix.from_rows([[1, 2], [3, 4]])

NON_INTEGER_INDICES = {
    "matrix_row": (lambda: MATRIX.get(1.0, 0), "row 1.0"),
    "matrix_column": (lambda: MATRIX.get(0, "1"), "column '1'"),
    "matrix_whole_row": (lambda: MATRIX.row(1.0), "row 1.0"),
    "transmission_r": (lambda: transmission_proxy(MATRIX, 2.0, 1), "site r 2.0"),
    "transmission_s": (lambda: transmission_proxy(MATRIX, 1, 1.5), "site s 1.5"),
    "usmani_r": (lambda: usmani_entry(TRIDIAGONAL, 1.0, 2), "site r 1.0"),
    "usmani_s": (lambda: usmani_entry(TRIDIAGONAL, 1, None), "site s None"),
    "direct_sum_r": (lambda: direct_green_sum(4, 1.5, 2), "site r 1.5"),
    "direct_sum_s": (lambda: direct_green_sum(4, 1, 2.0), "site s 2.0"),
    "unflatten": (lambda: unflatten(LatticeSpec(2, 3), 2.0), "flat index 2.0"),
}


@pytest.mark.parametrize("build, index", NON_INTEGER_INDICES.values(),
                         ids=NON_INTEGER_INDICES)
def test_non_integer_indices_raise_index_out_of_range(build, index):
    # Regression: these reached list indexing and raised a bare TypeError,
    # and unflatten(spec, 2.0) blamed "coordinate 1.0".
    with pytest.raises(IndexOutOfRange) as err:
        build()
    assert str(err.value) == f"{index} is not an integer"


@pytest.mark.parametrize("n", [4.0, 4.5, "4", None])
def test_non_integer_chain_size_raises_invalid_size(n):
    # Regression: ChainSpec(Topology.OPEN, 4.0) was accepted.
    with pytest.raises(InvalidSize) as err:
        ChainSpec(Topology.OPEN, n)
    assert str(err.value) == f"n_sites must be an integer, got {n!r}"


NON_INTEGER_SIZES = {
    "query_n": (lambda: InvertibilityQuery(3, 9.0), "n", 9.0),
    "query_n_seven": (lambda: InvertibilityQuery(3, 7.0), "n", 7.0),
    "query_dim": (lambda: InvertibilityQuery(3.0, 9), "dimension", 3.0),
    "lattice_size": (lambda: LatticeSpec(3, 4.0), "linear size", 4.0),
    "lattice_dim": (lambda: LatticeSpec(3.0, 4), "dimension", 3.0),
    "det_cyclic": (lambda: det_cyclic(6.0), "N", 6.0),
    "det_open": (lambda: det_open(4.0), "n", 4.0),
    "cyclic_inverse": (lambda: cyclic_inverse_first_column(6.0), "N", 6.0),
    "symbol_inverse": (lambda: symbol_factorization_inverse(5.0), "N", 5.0),
    "cyclic_kernel": (lambda: cyclic_kernel_basis(4.0), "N", 4.0),
    "direct_sum": (lambda: direct_green_sum(4.0, 1, 2), "N", 4.0),
    "direct_sum_odd": (lambda: direct_green_sum(1.5, 1, 1), "N", 1.5),
    "direct_matrix": (lambda: direct_green_matrix(4.0), "N", 4.0),
    "parity_sum": (lambda: parity_zero_sum(4.0, 1), "N", 4.0),
    "parity_sum_q": (lambda: parity_zero_sum(4, 1.0), "q", 1.0),
    "sine_ratio": (lambda: sine_ratio_sign(4.0, 1), "N", 4.0),
    "sine_ratio_k": (lambda: sine_ratio_sign(4, 1.0), "k", 1.0),
    "cosine_sum": (lambda: cosine_sum_is_zero_exact(5, (1.0, 4.0)), "k", 1.0),
    "cosine_sum_n": (lambda: cosine_sum_is_zero_exact(5.0, (1, 4)), "n", 5.0),
    "roots_modulus": (lambda: roots_of_unity_sum_is_zero(3.0, (0, 1, 2)),
                      "modulus", 3.0),
    "roots_exponent": (lambda: roots_of_unity_sum_is_zero(3, (0, 1.0, 2)),
                       "exponent", 1.0),
    "cyclotomic": (lambda: cyclotomic_polynomial(6.0), "m", 6.0),
    "prime_divisor": (lambda: smallest_prime_divisor(9.0), "n", 9.0),
    "witness_budget": (lambda: find_vanishing_witness(
        InvertibilityQuery(3, 9), budget=100.0), "budget", 100.0),
}


@pytest.mark.parametrize("build, name, size", NON_INTEGER_SIZES.values(),
                         ids=NON_INTEGER_SIZES)
def test_non_integer_sizes_raise_invalid_size(build, name, size):
    # Regression: InvertibilityQuery(3, 9.0) was accepted and its witness
    # search never ended, det_cyclic(6.0) and det_open(4.0) answered, and
    # the circulant routes ended in a bare TypeError.  So did the trig and
    # number-theory routes, except that direct_green_sum(1.5, 1, 1) called
    # N odd, sine_ratio_sign(4.0, 1) and smallest_prime_divisor(9.0)
    # answered, and cyclotomic_polynomial(6.0) answered once 6 was cached.
    with pytest.raises(InvalidSize) as err:
        build()
    assert str(err.value) == f"{name} must be an integer, got {size!r}"


class Index:
    """An integer-like value that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_like_sizes_and_sites_are_stored_as_ints():
    spec = ChainSpec(Topology.OPEN, Index(4))
    query = GreenEntryQuery(spec, Index(1), Index(2))
    assert (spec.n_sites, query.r, query.s) == (4, 1, 2)
    assert type(spec.n_sites) is type(query.r) is type(query.s) is int
    assert green_entry(query) == -1
    assert spectral_resolvent_entry(spec, Index(1), Index(2), 0.5) == (
        spectral_resolvent_entry(spec, 1, 2, 0.5))
