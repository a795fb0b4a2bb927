"""Typed errors raised across the package.

Every error carries an ``exit_code`` used by the command line front end:
3 for ordinary domain errors, 4 for singular matrices/lattices, 5 for an
exhausted search budget.
"""

from __future__ import annotations

import operator


class HueckelError(Exception):
    """Base class for all domain errors raised by this package."""

    exit_code = 3


class InvalidSize(HueckelError, ValueError):
    """A size outside its domain: fewer than one site, dimension below one,
    or n = N+1 below two.  Also a ValueError, so library callers that
    catch that keep working."""


def _as_size(value, name: str, low: int | None = None) -> int:
    """``value`` as an int, refusing floats and other non-integers, and
    with ``low`` sizes below it, with an InvalidSize that names it."""
    try:
        size = operator.index(value)
    except TypeError:
        raise InvalidSize(f"{name} must be an integer, got {value!r}") from None
    if low is not None and size < low:
        raise InvalidSize(f"{name} must be >= {low}")
    return size


class AlternatingOddN(HueckelError):
    """Bond-alternating couplings require an even number of sites."""


class CycleTooSmall(HueckelError):
    """A simple cycle needs at least three sites."""


class UnsupportedCouplings(HueckelError):
    """Operation is defined for the uniform chain (both couplings equal one)."""


class EnergyAtPole(HueckelError):
    """Requested energy coincides with an eigenvalue; the principal-value
    sum is undefined pointwise."""


class IndexOutOfRange(HueckelError, IndexError):
    """Site or matrix index outside its range; also an IndexError."""


def _as_index(value, name: str, high: int | None = None) -> int:
    """``value`` as an int, refusing floats and other non-integers, and
    with ``high`` indices outside 1..high, with an IndexOutOfRange that
    names it."""
    try:
        index = operator.index(value)
    except TypeError:
        raise IndexOutOfRange(f"{name} {value!r} is not an integer") from None
    if high is not None and not 1 <= index <= high:
        raise IndexOutOfRange(f"{name} {index} outside 1..{high}")
    return index


def _as_site_pair(r, s, high: int, names=("site r", "site s")) -> tuple[int, int]:
    """Sites ``r`` and ``s`` as ints, each named by ``names`` if it is not
    an integer, and refused together unless both lie in 1..high."""
    r, s = _as_index(r, names[0]), _as_index(s, names[1])
    if not (1 <= r <= high and 1 <= s <= high):
        raise IndexOutOfRange(f"({r}, {s}) outside 1..{high}")
    return r, s


class ZeroCoupling(HueckelError):
    """Closed forms divide by the couplings; zero is not allowed."""


class TooLarge(HueckelError):
    """Request exceeds the configured memory guard, or a number past the
    range where the number theory answers with a proof."""


class NotSingular(HueckelError):
    """Kernel requested for a matrix that is invertible."""


class NearSingularAngle(HueckelError):
    """Closed-form trigonometric sum evaluated too close to a pole of the
    formula (sin(theta/2) ~ 0)."""


class DegenerateAngle(HueckelError):
    """Sine-ratio identity evaluated where both sines vanish."""


class SingularMatrix(HueckelError):
    """Exactly singular matrix.

    ``case`` is a short machine-readable tag ("N odd", "N=4k",
    "alternating denominator", or a symbol index for circulants); extra
    diagnostics may ride along (``n``, ``theta`` for the tridiagonal
    engine, ``index`` for a vanishing circulant symbol value).
    """

    exit_code = 4

    def __init__(self, case: str, *, n: int | None = None, theta=None,
                 index: int | None = None):
        self.case = case
        self.n = n
        self.theta = theta
        self.index = index
        super().__init__(f"singular: {case}")


class NumericallySingular(HueckelError):
    """LU pivot collapsed (or the condition estimate blew past 1e12)."""

    exit_code = 4

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular: numeric pivot {pivot_index}")


class IllConditioned(HueckelError):
    """The float LU refused a matrix that is exactly invertible: a pivot or
    the condition estimate crossed its screen, so the float route has no
    answer for it."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(
            f"float LU refused an invertible matrix at pivot {pivot_index}")


class SingularLattice(HueckelError):
    """The d-dimensional Green's function does not exist.

    ``witness`` is a tuple of mode numbers whose cosine sum vanishes,
    when the search oracle found one within budget.
    """

    exit_code = 4

    def __init__(self, dim: int, n: int, witness=None):
        self.dim = dim
        self.n = n
        self.witness = witness
        super().__init__(f"singular: lattice d={dim} n={n}")


class BudgetExhausted(HueckelError):
    """Witness search would pass its budget of table entries plus walked
    heads before exhausting the space."""

    exit_code = 5
