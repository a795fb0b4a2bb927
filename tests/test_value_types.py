"""The package's value types: immutable, and size and index errors typed."""

from fractions import Fraction

import pytest

from hueckel_green import (ChainSpec, CirculantSpec, CosineWitness,
                           ExactMatrix, GreenEntryQuery, HueckelError,
                           IndexOutOfRange, InvalidSize, InvertibilityQuery,
                           LatticeSpec, MultiIndex, Topology, TridiagonalSpec,
                           theta_phi)
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
