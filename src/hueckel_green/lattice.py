"""d-dimensional Kronecker-sum Hamiltonians and their spectral Green's function.

H_d is the sum over axes of I x ... x H_1 x ... x I built from the open
chain, so its eigenvalues are all sums 2 sum_i cos(k_i pi/(N+1)) and its
eigenvectors are tensor products of the chain's sine vectors.  Existence of
the Green's function is decided by the exact predicate in
`vanishing_sums`, never by a float threshold; the spectral formulas are
evaluated only once that predicate holds.

Multi-index flattening is row-major with dimension 1 slowest:
flat = sum_i (k_i - 1) N^(d-i) + 1.  Open boundaries only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExhausted, IndexOutOfRange, SingularLattice, TooLarge
from .exact import ExactMatrix, guard_dense, max_cells
from .vanishing_sums import InvertibilityQuery, find_vanishing_witness, is_invertible

MAX_DENSE_SITES = 4096
_WITNESS_BUDGET = 500_000


@dataclass(frozen=True)
class LatticeSpec:
    """Hypercubic lattice: spatial dimension and sites per axis."""

    dim: int
    linear_size: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.linear_size < 1:
            raise ValueError("linear size must be >= 1")

    @property
    def total_sites(self) -> int:
        return self.linear_size ** self.dim

    @property
    def omega(self) -> float:
        return math.pi / (self.linear_size + 1)


@dataclass(frozen=True)
class MultiIndex:
    """Per-axis coordinates (k_1, ..., k_d), each 1-based."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))


def _check_index(spec: LatticeSpec, mi: MultiIndex) -> None:
    if len(mi.coords) != spec.dim:
        raise IndexOutOfRange(
            f"multi-index has {len(mi.coords)} coordinates, lattice has {spec.dim}")
    if not all(1 <= c <= spec.linear_size for c in mi.coords):
        raise IndexOutOfRange(f"{mi.coords} outside 1..{spec.linear_size}")


def flatten(spec: LatticeSpec, mi: MultiIndex) -> int:
    """1-based flat site index; dimension 1 varies slowest."""
    _check_index(spec, mi)
    flat = 0
    for c in mi.coords:
        flat = flat * spec.linear_size + (c - 1)
    return flat + 1


def unflatten(spec: LatticeSpec, flat: int) -> MultiIndex:
    if not 1 <= flat <= spec.total_sites:
        raise IndexOutOfRange(f"flat index {flat} outside 1..{spec.total_sites}")
    rem = flat - 1
    coords = []
    for _ in range(spec.dim):
        coords.append(rem % spec.linear_size + 1)
        rem //= spec.linear_size
    return MultiIndex(tuple(reversed(coords)))


def _guard_sites(spec: LatticeSpec) -> None:
    if spec.total_sites > max_cells():
        raise TooLarge(
            f"{spec.total_sites} sites exceed the memory guard ({max_cells()})")


def build_lattice_hamiltonian(spec: LatticeSpec) -> ExactMatrix:
    """Adjacency matrix of the hypercubic lattice as an exact matrix.

    Equivalent to the Kronecker sum of d open chains; built directly from
    the neighbour structure so no intermediate tensor products are formed.
    Allocates sites^2 cells, so it is guarded like every dense builder.
    """
    guard_dense(spec.total_sites)
    total = spec.total_sites
    n = spec.linear_size
    one = Fraction(1)
    data = [Fraction(0)] * (total * total)
    for site in range(total):
        stride = 1
        rem = site
        for _ in range(spec.dim):
            coord = rem % n
            if coord + 1 < n:
                other = site + stride
                data[site * total + other] = one
                data[other * total + site] = one
            stride *= n
            rem //= n
    return ExactMatrix(total, total, data)


def lattice_eigenvalue(spec: LatticeSpec, k: MultiIndex) -> float:
    """Eigenvalue 2 sum_i cos(k_i pi/(N+1)) for one mode multi-index."""
    _check_index(spec, k)
    return 2.0 * sum(math.cos(c * spec.omega) for c in k.coords)


def lattice_spectrum(spec: LatticeSpec) -> np.ndarray:
    """All N^d eigenvalues as a tensor over mode multi-indices
    (axis i indexed by k_{i+1} - 1)."""
    _guard_sites(spec)
    n, d = spec.linear_size, spec.dim
    axis = 2.0 * np.cos(spec.omega * np.arange(1, n + 1))
    lam = np.zeros((n,) * d)
    for i in range(d):
        shape = [1] * d
        shape[i] = n
        lam = lam + axis.reshape(shape)
    return lam


def _require_invertible(spec: LatticeSpec) -> None:
    query = InvertibilityQuery(spec.dim, spec.linear_size + 1)
    if is_invertible(query):
        return
    try:
        witness = find_vanishing_witness(query, budget=_WITNESS_BUDGET)
    except BudgetExhausted:
        witness = None
    raise SingularLattice(spec.dim, spec.linear_size + 1,
                          witness=witness.ks if witness else None)


def _chain_modes(spec: LatticeSpec) -> np.ndarray:
    n = spec.linear_size
    idx = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(idx, idx) * spec.omega)


def lattice_green_entry(spec: LatticeSpec, r: MultiIndex, s: MultiIndex) -> float:
    """Green's function entry G(r, s) from the spectral sum.

    -(2/(N+1))^d sum over modes of prod_i sin(r_i k_i w) sin(s_i k_i w)
    divided by 2 sum_i cos(k_i w); evaluated with one tensor contraction
    per axis in a fixed order, so results are bit-reproducible.
    """
    _guard_sites(spec)
    _check_index(spec, r)
    _check_index(spec, s)
    _require_invertible(spec)
    q = _chain_modes(spec)
    value = -1.0 / lattice_spectrum(spec)
    for ri, si in zip(r.coords, s.coords):
        value = np.tensordot(q[ri - 1] * q[si - 1], value, axes=(0, 0))
    return float(value)


def lattice_green_matrix(spec: LatticeSpec) -> np.ndarray:
    """Dense G_d = -H_d^{-1} via the eigenbasis, one tensor factor at a time.

    The d-fold tensor-product eigenvector matrix is never materialized;
    each axis of the reciprocal-eigenvalue tensor is contracted against the
    chain modes in turn.
    """
    if spec.total_sites > MAX_DENSE_SITES:
        raise TooLarge(
            f"{spec.total_sites} sites exceed the dense limit ({MAX_DENSE_SITES})")
    _require_invertible(spec)
    n, d = spec.linear_size, spec.dim
    q = _chain_modes(spec)
    x = -1.0 / lattice_spectrum(spec)
    for _ in range(d):
        # contract the leading mode axis; append the new (row, col) axes
        x = np.einsum("k...,ak,bk->...ab", x, q, q)
    order = [2 * i for i in range(d)] + [2 * i + 1 for i in range(d)]
    return x.transpose(order).reshape(spec.total_sites, spec.total_sites)
