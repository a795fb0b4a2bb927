"""The package's value types: immutable, and size errors typed."""

from fractions import Fraction

import pytest

from hueckel_green import (ChainSpec, CirculantSpec, CosineWitness,
                           GreenEntryQuery, HueckelError, InvalidSize,
                           InvertibilityQuery, LatticeSpec, MultiIndex,
                           Topology, TridiagonalSpec, theta_phi)

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
