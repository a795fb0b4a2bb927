"""d-dimensional Kronecker-sum Hamiltonians and their spectral Green's function.

H_d is the sum over axes of I x ... x H_1 x ... x I built from the open
chain, so its eigenvalues are all sums 2 sum_i cos(k_i pi/(N+1)) and its
eigenvectors are tensor products of the chain's sine vectors, both taken
from the one open-chain eigenbasis that `chains` forms.  Existence of
the Green's function is decided by the exact predicate in
`vanishing_sums`, never by a float threshold; the spectral formulas are
evaluated only once that predicate holds.

Multi-index flattening is row-major with dimension 1 slowest:
flat = sum_i (k_i - 1) N^(d-i) + 1.  Open boundaries only.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from .chains import ChainSpec, Topology, _eigenvalues, _mode_row
from .errors import (BudgetExhausted, IndexOutOfRange, SingularLattice,
                     TooLarge, _as_index, _as_size)
from .exact import ExactMatrix, guard_dense, max_cells
from .vanishing_sums import InvertibilityQuery, find_vanishing_witness, is_invertible

if TYPE_CHECKING:
    import numpy as np

MAX_DENSE_SITES = 4096
_WITNESS_BUDGET = 500_000
# OpenBLAS runs a GEMM of at most 65 536 * GEMM_MULTITHREAD_THRESHOLD (4)
# multiply-adds on the calling thread (interface/gemm.c).
_ONE_THREAD_GEMM = 1 << 18


class LatticeSpec(namedtuple("LatticeSpec", "dim linear_size")):
    """Hypercubic lattice: spatial dimension and sites per axis."""

    __slots__ = ()

    def __new__(cls, dim: int, linear_size: int):
        return super().__new__(cls, _as_size(dim, "dimension", 1),
                               _as_size(linear_size, "linear size", 1))

    @property
    def total_sites(self) -> int:
        return self.linear_size ** self.dim


class MultiIndex(namedtuple("MultiIndex", "coords")):
    """Per-axis coordinates (k_1, ..., k_d), each 1-based."""

    __slots__ = ()

    def __new__(cls, coords: tuple[int, ...]):
        return super().__new__(
            cls, tuple(_as_index(c, "coordinate") for c in coords))


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
    rem = _as_index(flat, "flat index", spec.total_sites) - 1
    coords = []
    for _ in range(spec.dim):
        coords.append(rem % spec.linear_size + 1)
        rem //= spec.linear_size
    return MultiIndex(tuple(reversed(coords)))


def _axis(spec: LatticeSpec) -> ChainSpec:
    """The open chain along every axis; H_d inherits its eigenbasis."""
    return ChainSpec(Topology.OPEN, spec.linear_size)


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
    return ExactMatrix._of_fractions(total, total, data)


def lattice_eigenvalue(spec: LatticeSpec, k: MultiIndex) -> float:
    """Eigenvalue 2 sum_i cos(k_i pi/(N+1)) for one mode multi-index: the
    chain's `_eigenvalues` added left to right, as in `lattice_spectrum`."""
    _check_index(spec, k)
    axis = _eigenvalues(_axis(spec))
    total = 0.0
    for c in k.coords:
        total += axis[c - 1]
    return total


def lattice_spectrum(spec: LatticeSpec) -> np.ndarray:
    """All N^d eigenvalues as a tensor over mode multi-indices
    (axis i indexed by k_{i+1} - 1), each the sum of the chain's `_eigenvalues`
    added axis by axis."""
    import numpy as np

    _guard_sites(spec)
    n, d = spec.linear_size, spec.dim
    axis = np.array(_eigenvalues(_axis(spec)))
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


def lattice_green_entry(spec: LatticeSpec, r: MultiIndex, s: MultiIndex) -> float:
    """Green's function entry G(r, s) from the spectral sum.

    -(2/(N+1))^d sum over modes of prod_i sin(r_i k_i w) sin(s_i k_i w)
    divided by 2 sum_i cos(k_i w); evaluated with one tensor contraction
    per axis in a fixed order, so results are bit-reproducible.  Only the
    2d rows of the chain's eigenbasis that the entry reads are built.
    """
    import numpy as np

    _guard_sites(spec)
    _check_index(spec, r)
    _check_index(spec, s)
    _require_invertible(spec)
    chain = _axis(spec)
    value = -1.0 / lattice_spectrum(spec)
    for ri, si in zip(r.coords, s.coords):
        pair = np.multiply(_mode_row(chain, ri), _mode_row(chain, si))
        value = np.tensordot(pair, value, axes=(0, 0))
    return float(value)


def lattice_green_matrix(spec: LatticeSpec) -> np.ndarray:
    """Dense G_d = -H_d^{-1} via the eigenbasis, one batched GEMM per axis.

    The d-fold tensor-product eigenvector matrix is never materialized.
    With the pair table P[a, k, b] = q[a, k] q[b, k], each axis contracts
    the leading mode index k of the reciprocal-eigenvalue tensor: laid out
    as (a_1..a_t, k, rest) it becomes (a_1..a_t, a, rest, b), so after the
    last axis the tensor is G, rows (a_1..a_d) by columns (b_1..b_d), and
    the last product writes it in place.  Every product is one
    (N^{d-1} x N)(N x N) GEMM.  For every invertible lattice within the
    dense limit that is at most 2^18 multiply-adds, which OpenBLAS runs on
    the calling thread; it hands larger products to worker threads, whose
    busy wait after each call costs CPU time and saves no wall time here.

    In 1-D the pair table would hold N^3 floats, so G is built in row
    blocks of (q diag(x)) q^T of at most 2^18 multiply-adds, or one row at
    a time above N = 512; BLAS may spread such a row over its threads.

    Cost: O(N^{2d+1}) flops on one thread; memory of the output plus
    O(N^{2d-1}), and at d = 1 the N x N eigenbasis.
    """
    import numpy as np

    if spec.total_sites > MAX_DENSE_SITES:
        raise TooLarge(
            f"{spec.total_sites} sites exceed the dense limit ({MAX_DENSE_SITES})")
    _require_invertible(spec)
    n, d = spec.linear_size, spec.dim
    chain = _axis(spec)
    q = np.empty((n, n))
    for r in range(n):
        q[r] = _mode_row(chain, r + 1)
    x = -1.0 / lattice_spectrum(spec)
    if d == 1:
        g = np.empty((n, n))
        rows = max(1, _ONE_THREAD_GEMM // (n * n))
        for r in range(0, n, rows):
            np.matmul(q[r:r + rows] * x, q.T, out=g[r:r + rows])
        return g
    pairs = q[:, :, None] * q.T
    rest = n ** (d - 1)
    for t in range(d):
        head = n ** t
        x = np.matmul(x.reshape(head, n, rest).transpose(0, 2, 1)[:, None],
                      pairs, out=np.empty((head, n, rest, n)))
    return x.reshape(spec.total_sites, spec.total_sites)
