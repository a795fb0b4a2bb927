"""Cross-method verification suites.

Most checks pit two independent routes against each other (closed form vs.
engine, exact vs. float, predicate vs. exhaustive search) and report a worst
residual.  The inverse checks (`open.identity`, `cyclic.identity` and
`alternating.*_vs_exact_inverse`) are exact certificates H·(-G) = I instead,
computed in scaled integers over the nonzeros of H, so O(N^2) each.  They are
as conclusive as a second inversion: for square H, H·X = I fixes X = H^-1.
The float `lattice.*` checks are certificates too, built from the analytic
tensor eigenpairs and the nonzeros of the built lattice Hamiltonian: H v =
lambda v for every vector of an orthonormal basis fixes the whole spectrum,
multiplicities included, and H·G = -I fixes G.
Exact comparisons report 0.0 on success and 1.0 on any mismatch.  Checks
run in a fixed order and all randomness flows from the seed, so reports are
byte-reproducible.  No suite imports numpy, so no report depends on the
BLAS build.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import mul, sub, truediv
from typing import Iterator

from . import closed_form, trig
from .chains import (ChainSpec, Topology, _eigenvalues, _mode_row,
                     build_hamiltonian, float_rows)
from .circulant import (cyclic_inverse_first_column, cyclic_kernel_basis,
                        det_cyclic, symbol_factorization_inverse)
from .closed_form import CYCLIC_PATTERNS, green_matrix
from .errors import InvalidSize, SingularLattice, SingularMatrix
# inverse_exact stays bound although unused: perfbench/spans.py patches it here.
from .exact import ExactMatrix, det_fraction_free, inverse_exact, mat_vec  # noqa: F401
# lattice_green_matrix stays bound although unused: perfbench/spans.py
# patches it here.
from .lattice import (LatticeSpec, build_lattice_hamiltonian,  # noqa: F401
                      lattice_green_matrix)
from .oracle import lu_inverse
from .tridiagonal import TridiagonalSpec, usmani_inverse
from .vanishing_sums import (InvertibilityQuery, cosine_sum_is_zero_exact,
                             find_vanishing_witness, is_invertible,
                             roots_of_unity_sum_is_zero,
                             smallest_prime_divisor)

SUITES = ("open", "cyclic", "alternating", "lattice", "numbertheory", "trig")

_ZERO = Fraction(0)
_ALLOWED_OPEN = {Fraction(-1), _ZERO, Fraction(1)}
_ALLOWED_CYCLIC = {Fraction(-1, 2), _ZERO, Fraction(1, 2)}


def _check(check_id: str, passed: bool, residual: float = 0.0) -> dict:
    return {"id": check_id, "passed": bool(passed), "residual": float(residual)}


def _exact(check_id: str, ok: bool) -> dict:
    return _check(check_id, ok, 0.0 if ok else 1.0)


def _inverse_certificate(h: ExactMatrix, g: ExactMatrix) -> bool:
    """True iff g = -h^-1, checked as h·g = -I in integers.

    Only the nonzeros of h are visited, so a chain (at most two per row)
    costs O(N^2).  A singular h fails for every g.
    """
    n = h.rows
    if not h.cols == g.rows == g.cols == n:
        return False
    hs, dh = h.scaled_rows()
    gs, dg = g.scaled_rows()
    diagonal = -dh * dg
    for i, h_row in enumerate(hs):
        acc = [0] * n
        for k, a in enumerate(h_row):
            if a:
                acc = [x + a * y for x, y in zip(acc, gs[k])]
        want = [0] * n
        want[i] = diagonal
        if acc != want:
            return False
    return True


def _float_rows(m: ExactMatrix) -> list[list[float]]:
    """float(x) of every entry, row by row: the values `to_float` stores,
    converting only the nonzeros."""
    return [[float(x) if x else 0.0 for x in m.row(i)] for i in range(m.rows)]


def _max_gap(a: list[list[float]], b: list[list[float]]) -> float:
    """max |x - y| over the entries of two float matrices of one shape."""
    return max(max(map(abs, map(sub, x, y))) for x, y in zip(a, b))


def suite_open(max_n: int, rng: random.Random) -> list[dict]:
    sizes = range(2, max_n + 1, 2)
    vs_usmani = identity = entries = True
    vs_numeric = 0.0
    for n in sizes:
        spec = ChainSpec(Topology.OPEN, n)
        g = green_matrix(spec)
        h = build_hamiltonian(spec)
        vs_usmani &= usmani_inverse(-TridiagonalSpec.from_chain(spec)) == g
        identity &= _inverse_certificate(h, g)
        entries &= set(g._data) <= _ALLOWED_OPEN
        gf = _float_rows(g)
        numeric = [[-x for x in row] for row in lu_inverse(float_rows(spec))]
        vs_numeric = max(vs_numeric, _max_gap(numeric, gf))
    harmonic = _direct_vs_closed(max_n)
    n = max(2, max_n - max_n % 2)
    semi = _semiseparable_upper(
        green_matrix(ChainSpec(Topology.OPEN, n)).scaled_rows()[0])
    return [
        _exact("open.closed_vs_usmani", vs_usmani),
        _exact("open.identity", identity),
        _exact("open.entries_pm1", entries),
        _check("open.vs_numeric", vs_numeric <= 1e-10, vs_numeric),
        _check("open.harmonic_sum", harmonic <= 1e-9, harmonic),
        _exact("open.semiseparable", semi),
    ]


def _direct_vs_closed(max_n: int) -> float:
    """max |direct sum - closed form| over the open chains with even
    N <= max_n: the harmonic-sum identity, one sweep for both checks of it."""
    worst = 0.0
    for n in range(2, max_n + 1, 2):
        closed = _float_rows(green_matrix(ChainSpec(Topology.OPEN, n)))
        worst = max(worst, _max_gap(trig.direct_green_matrix(n), closed))
    return worst


def _semiseparable_upper(rows: list[list[int]]) -> bool:
    """Every 2x2 minor taken on-or-above the diagonal vanishes.

    Scaling every entry by d > 0 scales each minor by d^2, so the integer
    rows of `ExactMatrix.scaled_rows` give the same answer as the rationals.
    """
    n = len(rows)
    for i1 in range(n):
        top = rows[i1]
        for i2 in range(i1 + 1, n):
            low = rows[i2]
            for j1 in range(i2, n):
                a, b = top[j1], low[j1]
                for j2 in range(j1 + 1, n):
                    if a * low[j2] != top[j2] * b:
                        return False
    return True


def suite_cyclic(max_n: int, rng: random.Random) -> list[dict]:
    routes = identity = pattern = symmetric = True
    for n in range(3, max_n + 1):
        if n % 4 == 0:
            continue
        rec = cyclic_inverse_first_column(n)
        routes &= symbol_factorization_inverse(n).first_column == rec.first_column
        g = ExactMatrix.from_rows(
            [[-rec.first_column[(r - s) % n] for s in range(n)] for r in range(n)])
        identity &= _inverse_certificate(
            build_hamiltonian(ChainSpec(Topology.CYCLIC, n)), g)
        pattern &= _cyclic_pattern_holds(n, rec.first_column)
        symmetric &= rec.is_symmetric
    dets = all(det_cyclic(n) == det_fraction_free(
        build_hamiltonian(ChainSpec(Topology.CYCLIC, n)))
        for n in range(2, min(max_n, 64) + 1))
    kernels = True
    for n in range(4, max_n + 1, 4):
        h = build_hamiltonian(ChainSpec(Topology.CYCLIC, n))
        for v in cyclic_kernel_basis(n):
            kernels &= all(x == 0 for x in mat_vec(h, [Fraction(c) for c in v]))
    return [
        _exact("cyclic.recurrence_vs_symbol", routes),
        _exact("cyclic.identity", identity),
        _exact("cyclic.mod4_patterns", pattern),
        _exact("cyclic.symmetric_circulant", symmetric),
        _exact("cyclic.det_table", dets),
        _exact("cyclic.kernel", kernels),
    ]


def _cyclic_pattern_holds(n: int, column) -> bool:
    base = CYCLIC_PATTERNS[n % 4]
    if set(column) - _ALLOWED_CYCLIC:
        return False
    return all(2 * column[k] == base[k % 4] for k in range(n))


def _random_coupling(rng: random.Random) -> Fraction:
    num = rng.choice([x for x in range(-5, 6) if x])
    return Fraction(num, rng.randint(1, 5))


def _reduces(kernel, spec: ChainSpec) -> bool:
    """True iff `kernel(spec)` has the row of the uniform form for spec."""
    return kernel(spec).odd_row() == closed_form._entry_kernel(spec).odd_row()


def suite_alternating(max_n: int, rng: random.Random) -> list[dict]:
    open_ok = cyclic_ok = True
    for _ in range(100):
        beta, alpha = _random_coupling(rng), _random_coupling(rng)
        n_open = 2 * rng.randint(1, max(1, max_n // 2))
        spec = ChainSpec(Topology.OPEN, n_open, beta, alpha)
        g = green_matrix(spec)
        open_ok &= _inverse_certificate(build_hamiltonian(spec), g)
        n_cyc = 2 * rng.randint(2, max(2, max_n // 2))
        spec = ChainSpec(Topology.CYCLIC, n_cyc, beta, alpha)
        try:
            g = green_matrix(spec)
        except SingularMatrix:
            continue    # vanishing geometric denominator: genuinely singular
        cyclic_ok &= _inverse_certificate(build_hamiltonian(spec), g)
    reduce_open = all(
        _reduces(closed_form._alternating_open_kernel, ChainSpec(Topology.OPEN, n))
        for n in range(2, max_n + 1, 2))
    reduce_cyclic = all(
        _reduces(closed_form._alternating_cyclic_kernel, ChainSpec(Topology.CYCLIC, n))
        for n in range(6, max_n + 1, 4))
    return [
        _exact("alternating.open_vs_exact_inverse", open_ok),
        _exact("alternating.cyclic_vs_exact_inverse", cyclic_ok),
        _exact("alternating.uniform_reduction_open", reduce_open),
        _exact("alternating.uniform_reduction_cyclic", reduce_cyclic),
    ]


def _d2_zero_count(n: int) -> int:
    """Zeros of 2 cos(a pi/(n+1)) + 2 cos(b pi/(n+1)) over a, b = 1..n,
    the d=2 lattice spectrum, decided exactly; a pair a < b counts twice."""
    return sum(1 if a == b else 2
               for a in range(1, n + 1) for b in range(a, n + 1)
               if cosine_sum_is_zero_exact(n + 1, (a, b)))


def _nonzeros(h: ExactMatrix) -> list[list[tuple[int, float]]]:
    """Each row of h as (column, float value) pairs of its nonzeros."""
    return [[(j, float(x)) for j, x in enumerate(h.row(i)) if x]
            for i in range(h.rows)]


def _chain_columns(n: int) -> tuple[list[float], list[tuple[float, ...]]]:
    """The open N-site chain's eigenvalues and eigenvector columns, mode k
    at index k - 1."""
    spec = ChainSpec(Topology.OPEN, n)
    rows = [_mode_row(spec, r) for r in range(1, n + 1)]
    return _eigenvalues(spec), list(zip(*rows))


def _lattice_modes(spec: LatticeSpec) -> Iterator[tuple[float, list[float]]]:
    """Yield every eigenpair (lambda, v) of the lattice Hamiltonian.

    Mode (k_1, ..., k_d) has lambda = eps_{k_1} + ... + eps_{k_d}, added
    left to right, and v the tensor product of the chain's eigenvectors,
    flattened with axis 1 slowest as the sites are.  Modes come in the
    same order, k_1 slowest, one v at a time.
    """
    eps, columns = _chain_columns(spec.linear_size)
    for ks in itertools.product(range(spec.linear_size), repeat=spec.dim):
        lam, v = 0.0, [1.0]
        for k in ks:
            lam += eps[k]
            v = [x * y for x in v for y in columns[k]]
        yield lam, v


def _eigenpair_residual(spec: LatticeSpec) -> float:
    """max |H v - lambda v| over every eigenpair, H the built Hamiltonian."""
    h = _nonzeros(build_lattice_hamiltonian(spec))
    worst = 0.0
    for lam, v in _lattice_modes(spec):
        worst = max(worst, max(
            abs(math.fsum([w * v[j] for j, w in row]) - lam * x)
            for row, x in zip(h, v)))
    return worst


def _orthonormality_residual(n: int) -> float:
    """max |Q^T Q - I| of the open chain's eigenvector matrix Q."""
    _, columns = _chain_columns(n)
    return max(abs(math.fsum(map(mul, a, b)) - (1.0 if k == l else 0.0))
               for k, a in enumerate(columns) for l, b in enumerate(columns))


def _lattice_green(spec: LatticeSpec) -> list[list[float]]:
    """G = -V Lambda^-1 V^T from the `_lattice_modes`, as float rows.

    Entry (a, b) is -sum over modes m of V[a][m] V[b][m] / lambda_m, the
    products of row a and the weighted row b added exactly rounded
    (`math.fsum`); the upper triangle is summed and mirrored.  Raises
    SingularLattice, as `lattice_green_matrix` does, where the exact
    predicate finds the Hamiltonian singular: no float decides that.
    """
    if not is_invertible(InvertibilityQuery(spec.dim, spec.linear_size + 1)):
        raise SingularLattice(spec.dim, spec.linear_size + 1)
    lams, modes = zip(*_lattice_modes(spec))
    rows = list(zip(*modes))
    weighted = [list(map(truediv, row, lams)) for row in rows]
    sites = spec.total_sites
    g = [[0.0] * sites for _ in range(sites)]
    for a, row in enumerate(rows):
        for b in range(a, sites):
            g[a][b] = g[b][a] = -math.fsum(map(mul, row, weighted[b]))
    return g


def _identity_residual(spec: LatticeSpec, g: list[list[float]]) -> float:
    """max |H G + I| over the nonzeros of the built Hamiltonian H."""
    worst = 0.0
    for i, row in enumerate(_nonzeros(build_lattice_hamiltonian(spec))):
        acc = [0.0] * len(g)
        acc[i] = 1.0
        for j, w in row:
            acc = [x + w * y for x, y in zip(acc, g[j])]
        worst = max(worst, max(map(abs, acc)))
    return worst


def suite_lattice(max_n: int, rng: random.Random) -> list[dict]:
    spectrum = 0.0
    for n in range(2, min(max_n, 6) + 1):
        spectrum = max(spectrum, _orthonormality_residual(n))
        for d in (1, 2, 3):
            spectrum = max(spectrum, _eigenpair_residual(LatticeSpec(d, n)))
    zeros_ok = all(_d2_zero_count(n) == n for n in range(1, min(max_n, 30) + 1))
    residual = 0.0
    for d, n in ((3, 2), (3, 4), (1, max(2, min(max_n, 20) // 2 * 2))):
        spec = LatticeSpec(d, n)
        residual = max(residual, _identity_residual(spec, _lattice_green(spec)))
    reduction = 0.0
    for n in range(2, min(max_n, 50) + 1, 2):
        g1 = _lattice_green(LatticeSpec(1, n))
        gc = _float_rows(green_matrix(ChainSpec(Topology.OPEN, n)))
        reduction = max(reduction, _max_gap(g1, gc))
    return [
        _check("lattice.spectrum_vs_numeric", spectrum <= 1e-8, spectrum),
        _exact("lattice.d2_zero_count", zeros_ok),
        _check("lattice.green_residual", residual <= 1e-8, residual),
        _check("lattice.d1_reduction", reduction <= 1e-10, reduction),
    ]


def suite_numbertheory(max_n: int, rng: random.Random) -> list[dict]:
    agree = sound = True
    float_worst = 0.0
    for d in (1, 3, 5, 7):
        cap = min(max_n, 21 if d == 7 else 45)
        for n in range(3, cap + 1, 2):
            query = InvertibilityQuery(d, n)
            witness = find_vanishing_witness(query)
            agree &= is_invertible(query) == (witness is None)
            if witness is not None:
                sound &= cosine_sum_is_zero_exact(n, witness.ks)
                value = abs(sum(math.cos(k * math.pi / n) for k in witness.ks))
                float_worst = max(float_worst, value)
    evens = all(
        find_vanishing_witness(InvertibilityQuery(d, n)) is not None
        for n in range(2, min(max_n, 30) + 1, 2) for d in (1, 2, 3))
    pairs = all(
        find_vanishing_witness(InvertibilityQuery(2, n)) is not None
        for n in range(3, min(max_n, 30) + 1))
    primes = all(
        roots_of_unity_sum_is_zero(p, range(p))
        for p in range(2, 51) if smallest_prime_divisor(p) == p)
    ranks = True
    for d in (1, 2, 3):
        for n_sites in range(1, 5):
            h = build_lattice_hamiltonian(LatticeSpec(d, n_sites))
            singular = det_fraction_free(h) == 0
            ranks &= is_invertible(InvertibilityQuery(d, n_sites + 1)) == (not singular)
    return [
        _exact("numbertheory.predicate_vs_search", agree),
        _check("numbertheory.witness_soundness", sound and float_worst <= 1e-12,
               float_worst),
        _exact("numbertheory.even_cases_have_witnesses", evens and pairs),
        _exact("numbertheory.prime_symmetric_sums", primes),
        _exact("numbertheory.matrix_rank_agreement", ranks),
    ]


def suite_trig(max_n: int, rng: random.Random) -> list[dict]:
    grid_worst = 0.0
    thetas = [0.01 + (math.pi - 0.02) * i / 19 for i in range(20)]
    for nprime in range(1, 51):
        for theta in thetas:
            direct_c = trig.kahan_sum(math.cos(m * theta) for m in range(nprime + 1))
            direct_s = trig.kahan_sum(math.sin(m * theta) for m in range(nprime + 1))
            grid_worst = max(grid_worst,
                             abs(trig.sum_cos(nprime, theta) - direct_c),
                             abs(trig.sum_sin(nprime, theta) - direct_s))
    ratio_ok = True
    for n in range(2, min(max_n, 100) + 1, 2):
        for k in range(1, 3 * n + 1):
            if k % (n + 1) == 0:
                continue
            ratio_ok &= trig.sine_ratio_sign(n, k) == (1 if k % 2 else -1)
    parity_worst = 0.0
    for n in range(2, max_n + 1, 2):
        for q in range(1, n // 2 + 1):
            parity_worst = max(parity_worst, abs(trig.parity_zero_sum(n, q)))
    direct_worst = _direct_vs_closed(max_n)
    return [
        _check("trig.closed_sums", grid_worst <= 1e-11, grid_worst),
        _exact("trig.sine_ratio", ratio_ok),
        _check("trig.parity_zero", parity_worst <= 1e-10, parity_worst),
        _check("trig.direct_vs_closed", direct_worst <= 1e-9, direct_worst),
    ]


_SUITE_RUNNERS = {
    "open": suite_open,
    "cyclic": suite_cyclic,
    "alternating": suite_alternating,
    "lattice": suite_lattice,
    "numbertheory": suite_numbertheory,
    "trig": suite_trig,
}


# The smallest max_n at which every check of a suite sees a case: the
# cyclic kernels start at N = 4, the alternating ring reduction at N = 6,
# and the first witness of numbertheory's search is (d, n) = (3, 9).
_SMALLEST_MAX_N = {"open": 2, "cyclic": 4, "alternating": 6, "lattice": 2,
                  "numbertheory": 9, "trig": 2}


def run_suite(suite: str, max_n: int, seed: int) -> list[dict]:
    """Run one suite (or "all") and return its ordered check results.

    InvalidSize for a max_n at which some check would pass over no case.
    """
    names = SUITES if suite == "all" else (suite,)
    smallest = max(_SMALLEST_MAX_N[name] for name in names)
    if max_n < smallest:
        raise InvalidSize(f"verify --suite {suite} needs --max-n >= {smallest}")
    results: list[dict] = []
    for name in names:
        rng = random.Random(seed)
        results.extend(_SUITE_RUNNERS[name](max_n, rng))
    return results
