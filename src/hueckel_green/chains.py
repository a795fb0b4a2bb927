"""One-dimensional tight-binding Hamiltonians and their analytic eigensystems.

The eigenbasis of the uniform open chain and ring is formed here and nowhere
else: `_eigenvalues` and `_mode_row` serve the spectral resolvent, the
d-dimensional lattices built from the open chain, and the `verify` lattice
certificates.

Site indices in the public API are 1-based throughout; internal storage is
0-based.  On-site energy is fixed to zero (the Fermi-level convention), so a
chain is fully described by its topology, size and the two bond couplings.
All functions here are pure; specs and matrices are immutable and safe to
share between threads.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from operator import add

from .errors import (AlternatingOddN, CycleTooSmall, EnergyAtPole,
                     IndexOutOfRange, UnsupportedCouplings, _as_index,
                     _as_size)
from .exact import ExactMatrix, Rational, as_rational, guard_dense

_ONE = Fraction(1)

# The largest chain whose spectral matrix is summed in plain Python: numpy's
# pairwise block, past which the sum splits and numpy's import pays off.
_PURE_PYTHON_SITES = 128


class Topology(enum.Enum):
    OPEN = "open"
    CYCLIC = "cyclic"


class ChainSpec(namedtuple("ChainSpec",
                           "topology n_sites coupling_odd coupling_even")):
    """Problem statement for every 1-D builder.

    ``coupling_odd`` (beta) sits on bonds 1-2, 3-4, ...; ``coupling_even``
    (alpha) on bonds 2-3, 4-5, ...  The uniform chain is the special case
    where both equal one.  Bond-alternating specs (distinct couplings)
    require an even number of sites.
    """

    __slots__ = ()

    def __new__(cls, topology: Topology, n_sites: int,
                coupling_odd: Rational = _ONE, coupling_even: Rational = _ONE):
        coupling_odd = as_rational(coupling_odd)
        coupling_even = as_rational(coupling_even)
        n_sites = _as_size(n_sites, "n_sites", 1)
        if topology is Topology.CYCLIC and n_sites < 2:
            raise CycleTooSmall("cyclic chain needs at least 2 sites")
        if coupling_odd != coupling_even and n_sites % 2:
            raise AlternatingOddN(
                f"bond alternation requires even N, got N={n_sites}")
        return super().__new__(cls, topology, n_sites, coupling_odd, coupling_even)

    @property
    def is_uniform(self) -> bool:
        return self.coupling_odd == 1 and self.coupling_even == 1

    def check_site(self, index: int) -> int:
        """``index`` as an int, if it is a site of this chain."""
        return _as_index(index, "site", self.n_sites)


def bond_coupling(spec: ChainSpec, bond: int) -> Rational:
    """Coupling on the bond between sites ``bond`` and ``bond``+1 (1-based)."""
    return spec.coupling_odd if bond % 2 else spec.coupling_even


def bonds(spec: ChainSpec) -> list[tuple[int, int, Rational]]:
    """Every bond as (i, j, coupling) with 0-based sites, in O(N).

    The bonds run 1-2, 2-3, ..., (N-1)-N; a cycle with N >= 3 adds the
    wrap-around bond between sites N and 1.  The degenerate N=2 cycle has
    the single edge 1-2, consistent with its determinant.
    """
    n = spec.n_sites
    out = [(b - 1, b, bond_coupling(spec, b)) for b in range(1, n)]
    if spec.topology is Topology.CYCLIC and n >= 3:
        out.append((n - 1, 0, bond_coupling(spec, n)))
    return out


def build_hamiltonian(spec: ChainSpec) -> ExactMatrix:
    """Assemble the nearest-neighbour Hamiltonian as an exact matrix.

    Symmetric, zero diagonal, nonzeros exactly on the `bonds`.
    """
    n = spec.n_sites
    guard_dense(n)
    data = [Fraction(0)] * (n * n)
    for i, j, c in bonds(spec):
        data[i * n + j] = data[j * n + i] = c
    return ExactMatrix._of_fractions(n, n, data)


def float_rows(spec: ChainSpec, sign: int = 1) -> list[dict[int, float]]:
    """``sign`` * H as one {column: float} mapping of its nonzeros per row,
    from the `bonds` in O(N)."""
    rows = [{} for _ in range(spec.n_sites)]
    for i, j, c in bonds(spec):
        rows[i][j] = rows[j][i] = float(sign * c)
    return rows


def _require_uniform(spec: ChainSpec) -> None:
    if not spec.is_uniform:
        raise UnsupportedCouplings(
            "analytic eigensystem needs unit couplings; use the numeric oracle")


def _require_eigenbasis(spec: ChainSpec) -> None:
    guard_dense(spec.n_sites)
    if spec.topology is Topology.CYCLIC and spec.n_sites < 3:
        raise CycleTooSmall("cyclic eigensystem needs N >= 3")


def _eigenvalues(spec: ChainSpec) -> list[float]:
    """eps_k in mode order: 2 cos(k*omega) for the open chain (k = 1..N,
    omega = pi/(N+1)), 2 cos(2*pi*j/N) for the cycle (j = 0..N-1)."""
    n = spec.n_sites
    if spec.topology is Topology.OPEN:
        omega = math.pi / (n + 1)
        return [2.0 * math.cos(k * omega) for k in range(1, n + 1)]
    omega = 2.0 * math.pi / n
    return [2.0 * math.cos(omega * j) for j in range(n)]


def _mode_row(spec: ChainSpec, r: int) -> list[float]:
    """Row r (1-based site) of the eigenvector matrix, in O(N).

    Open chain: sqrt(2/(N+1)) sin(r k omega).  Cycle, at position p = r-1:
    1/sqrt(N) for j = 0, sqrt(2/N) cos(j omega p) for 1 <= j <= (N-1)/2,
    the alternating mode (+-1)/sqrt(N) at j = N/2 for even N, and
    sqrt(2/N) sin(m omega p) at j = N-m, so the sines run m = (N-1)/2..1.
    """
    n = spec.n_sites
    if spec.topology is Topology.OPEN:
        omega = math.pi / (n + 1)
        scale = math.sqrt(2.0 / (n + 1))
        return [scale * math.sin(r * k * omega) for k in range(1, n + 1)]
    omega = 2.0 * math.pi / n
    p = r - 1
    unit = 1.0 / math.sqrt(n)
    scale = math.sqrt(2.0 / n)
    half = (n - 1) // 2
    row = [unit]
    row += [scale * math.cos(omega * m * p) for m in range(1, half + 1)]
    if n % 2 == 0:
        row.append(unit if p % 2 == 0 else -unit)
    row += [scale * math.sin(omega * m * p) for m in range(half, 0, -1)]
    return row


def _gaps(spec: ChainSpec, energy: float) -> list[float]:
    """E - eps_k for every mode, refusing a NaN energy or one on the
    spectrum."""
    if math.isnan(energy):
        raise EnergyAtPole(f"E={energy} is not a number")
    gaps = [energy - eps for eps in _eigenvalues(spec)]
    nearest = min(map(abs, gaps))
    if nearest < 1e-9:
        raise EnergyAtPole(
            f"E={energy} within 1e-9 of an eigenvalue (gap {nearest:.3e})")
    return gaps


def _pairwise_sum(values: list[float]) -> float:
    """numpy's float64 sum of ``values``, operation for operation.

    `np.sum` adds the pairwise total of the terms to 0.0 (Higham, "The
    accuracy of floating point summation", SIAM J. Sci. Comput. 14, 1993).
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: list[float], lo: int, n: int) -> float:
    """Below 8 terms: left to right from 0.0.  Up to 128: eight strided
    accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the rest left to right.  Above: split at half, rounded down to a
    multiple of 8."""
    if n < 8:
        return reduce(add, values[lo:lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, values[j:end:8]) for j in range(lo, lo + 8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end:lo + n], total)
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def _resolvent_sum(row_r: list[float], row_s: list[float],
                   gaps: list[float]) -> float:
    """sum_k C_rk C_sk / (E - eps_k) in numpy's pairwise order."""
    return _pairwise_sum([a * b / g for a, b, g in zip(row_r, row_s, gaps)])


def spectral_resolvent_entry(spec: ChainSpec, r: int, s: int, energy: float) -> float:
    """Principal-value resolvent entry sum_k C_rk C_sk / (E - eps_k).

    Defined for uniform couplings and E away from the spectrum; at E = 0
    this equals the zero-energy Green's function entry G(r, s).  O(N) in
    plain Python: rows r and s of the eigenbasis, the N gaps, and numpy's
    pairwise summation order, so the value is bit for bit its entry of
    `spectral_resolvent_matrix`.  It keeps that route's N^2 memory guard,
    so both refuse the same sizes.
    """
    _require_uniform(spec)
    r, s = spec.check_site(r), spec.check_site(s)
    _require_eigenbasis(spec)
    return _resolvent_sum(_mode_row(spec, r), _mode_row(spec, s),
                          _gaps(spec, energy))


def spectral_resolvent_matrix(spec: ChainSpec,
                              energy: float) -> list[list[float]]:
    """Every entry of `spectral_resolvent_entry`, as rows of floats.

    O(N^3) either way, and bit for bit numpy's row sums of the broadcast
    ``(row * modes) / gaps``:
    - up to 128 sites, in plain Python without numpy: the N rows of the
      eigenbasis are built once, and the entry's pairwise sum runs on the
      upper triangle, each value mirrored below the diagonal (a*b = b*a in
      IEEE arithmetic, so numpy's matrix is symmetric bit for bit);
    - above, by that numpy broadcast.  Past 128 terms the pairwise sum
      splits and the Python cost jumps: an open-chain CLI JSON matrix
      costs 282 ms of process CPU in Python at N=128 (414 ms with numpy)
      but 504 ms at N=140 (418 ms with numpy); medians of 5 on a shared
      2-vCPU x86_64 host, Python 3.11.7, numpy 2.4.6.
    Refuses non-uniform couplings, then sizes past the N^2 guard and the
    2-site ring, then an energy on the spectrum, as the entry does.
    """
    _require_uniform(spec)
    _require_eigenbasis(spec)
    gaps = _gaps(spec, energy)
    n = spec.n_sites
    modes = [_mode_row(spec, r) for r in range(1, n + 1)]
    if n > _PURE_PYTHON_SITES:
        import numpy as np

        modes, gaps = np.array(modes), np.array(gaps)
        return [((row * modes) / gaps).sum(axis=1).tolist() for row in modes]
    g = [[0.0] * n for _ in range(n)]
    for i, a in enumerate(modes):
        for j in range(i, n):
            g[i][j] = g[j][i] = _resolvent_sum(a, modes[j], gaps)
    return g


def transmission_proxy(g: ExactMatrix, r: int, s: int) -> Rational:
    """|G(r, s)|^2, the quantity conductance is proportional to."""
    r, s = _as_index(r, "site r"), _as_index(s, "site s")
    if not (1 <= r <= g.rows and 1 <= s <= g.cols):
        raise IndexOutOfRange(f"({r}, {s}) outside the {g.rows}x{g.cols} matrix")
    value = g.get(r - 1, s - 1)
    return value * value
