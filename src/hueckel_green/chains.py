"""One-dimensional tight-binding Hamiltonians and their analytic eigensystems.

Site indices in the public API are 1-based throughout; internal storage is
0-based.  On-site energy is fixed to zero (the Fermi-level convention), so a
chain is fully described by its topology, size and the two bond couplings.
All functions here are pure; specs and matrices are immutable and safe to
share between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (AlternatingOddN, CycleTooSmall, EnergyAtPole,
                     IndexOutOfRange, InvalidSize, UnsupportedCouplings)
from .exact import ExactMatrix, Rational, as_rational, guard_dense

if TYPE_CHECKING:
    import numpy as np

_ONE = Fraction(1)


class Topology(enum.Enum):
    OPEN = "open"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class ChainSpec:
    """Problem statement for every 1-D builder.

    ``coupling_odd`` (beta) sits on bonds 1-2, 3-4, ...; ``coupling_even``
    (alpha) on bonds 2-3, 4-5, ...  The uniform chain is the special case
    where both equal one.  Bond-alternating specs (distinct couplings)
    require an even number of sites.
    """

    topology: Topology
    n_sites: int
    coupling_odd: Rational = field(default=_ONE)
    coupling_even: Rational = field(default=_ONE)

    def __post_init__(self):
        object.__setattr__(self, "coupling_odd", as_rational(self.coupling_odd))
        object.__setattr__(self, "coupling_even", as_rational(self.coupling_even))
        if self.n_sites < 1:
            raise InvalidSize("n_sites must be >= 1")
        if self.topology is Topology.CYCLIC and self.n_sites < 2:
            raise CycleTooSmall("cyclic chain needs at least 2 sites")
        if self.coupling_odd != self.coupling_even and self.n_sites % 2:
            raise AlternatingOddN(
                f"bond alternation requires even N, got N={self.n_sites}")

    @property
    def is_uniform(self) -> bool:
        return self.coupling_odd == 1 and self.coupling_even == 1

    def check_site(self, index: int) -> None:
        if not 1 <= index <= self.n_sites:
            raise IndexOutOfRange(f"site {index} outside 1..{self.n_sites}")


@dataclass(frozen=True)
class EigenSystem:
    """Analytic eigenpairs of a uniform chain.

    ``eigenvalues[i]`` belongs to the i-th column of ``eigenvectors``;
    ordering is by mode index (r = 1..N for open chains, j = 0..N-1 for
    cycles), not by value.  Cyclic degenerate pairs are returned as real
    cosine/sine combinations so the matrix stays real orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def analytic_eigensystem(spec: ChainSpec) -> EigenSystem:
    """Closed-form eigenpairs of the uniform open chain or cycle.

    Open chain: eigenvalue 2 cos(r*omega) with sine eigenvectors,
    omega = pi/(N+1).  Cycle: 2 cos(2*pi*j/N) with the real Fourier basis.
    """
    import numpy as np

    _require_uniform(spec)
    n = spec.n_sites
    guard_dense(n)
    if spec.topology is Topology.OPEN:
        omega = math.pi / (n + 1)
        r = np.arange(1, n + 1)
        lam = 2.0 * np.cos(r * omega)
        q = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(r, r) * omega)
        return EigenSystem(lam, q)
    if n < 3:
        raise CycleTooSmall("cyclic eigensystem needs N >= 3")
    omega = 2.0 * math.pi / n
    j = np.arange(n)
    lam = 2.0 * np.cos(omega * j)
    q = np.empty((n, n))
    pos = np.arange(n)
    q[:, 0] = 1.0 / math.sqrt(n)
    for m in range(1, (n - 1) // 2 + 1):
        q[:, m] = math.sqrt(2.0 / n) * np.cos(omega * m * pos)
        q[:, n - m] = math.sqrt(2.0 / n) * np.sin(omega * m * pos)
    if n % 2 == 0:
        q[:, n // 2] = np.where(pos % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    return EigenSystem(lam, q)


def _modes_and_gaps(spec: ChainSpec, energy: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and E - eps_k, refusing an energy on the spectrum."""
    import numpy as np

    system = analytic_eigensystem(spec)
    gaps = energy - system.eigenvalues
    nearest = float(np.min(np.abs(gaps)))
    if nearest < 1e-9:
        raise EnergyAtPole(
            f"E={energy} within 1e-9 of an eigenvalue (gap {nearest:.3e})")
    return system.eigenvectors, gaps


def spectral_resolvent_entry(spec: ChainSpec, r: int, s: int, energy: float) -> float:
    """Principal-value resolvent entry sum_k C_rk C_sk / (E - eps_k).

    Defined for uniform couplings and E away from the spectrum; at E = 0
    this equals the zero-energy Green's function entry G(r, s).  The sum
    is O(N), but the eigensystem behind it costs O(N^2).
    """
    import numpy as np

    _require_uniform(spec)
    spec.check_site(r)
    spec.check_site(s)
    modes, gaps = _modes_and_gaps(spec, energy)
    return float(np.sum(modes[r - 1] * modes[s - 1] / gaps))


def spectral_resolvent_matrix(spec: ChainSpec, energy: float) -> np.ndarray:
    """Every entry of `spectral_resolvent_entry`, from one eigensystem.

    O(N^3): each row is one N x N product summed along the modes, in the
    same order as the entry's sum, so the two agree bit for bit.
    """
    import numpy as np

    modes, gaps = _modes_and_gaps(spec, energy)
    return np.array([((row * modes) / gaps).sum(axis=1) for row in modes])


def transmission_proxy(g: ExactMatrix, r: int, s: int) -> Rational:
    """|G(r, s)|^2, the quantity conductance is proportional to."""
    if not (1 <= r <= g.rows and 1 <= s <= g.cols):
        raise IndexOutOfRange(f"({r}, {s}) outside the {g.rows}x{g.cols} matrix")
    value = g.get(r - 1, s - 1)
    return value * value
