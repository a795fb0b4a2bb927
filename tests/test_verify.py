"""The verify suites' certificates, exact and float, and that their checks
can fail."""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from hueckel_green import cli, closed_form, lattice, verify
from hueckel_green.chains import ChainSpec, Topology, build_hamiltonian
from hueckel_green.circulant import CirculantSpec
from hueckel_green.errors import SingularLattice, SingularMatrix
from hueckel_green.exact import ExactMatrix, inverse_exact
from hueckel_green.vanishing_sums import (InvertibilityQuery,
                                          find_vanishing_witness)

from oracles import identity_rows

TINY = Fraction(1, 10 ** 12)


def nudged(m: ExactMatrix, i: int, j: int) -> ExactMatrix:
    rows = m.to_lists()
    rows[i][j] += TINY
    return ExactMatrix.from_rows(rows)


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("seed", range(4))
def test_certificate_matches_gauss_jordan(topology, seed):
    rng = random.Random(seed)
    smallest = 2 if topology is Topology.OPEN else 4   # as the suite draws them
    for n in range(smallest, 25, 2):
        spec = ChainSpec(topology, n, verify._random_coupling(rng),
                         verify._random_coupling(rng))
        h = build_hamiltonian(spec)
        try:
            g = verify.green_matrix(spec)
        except SingularMatrix:
            continue
        wrong = nudged(g, rng.randrange(n), rng.randrange(n))
        for candidate in (g, wrong):
            assert (verify._inverse_certificate(h, candidate)
                    == (candidate == -inverse_exact(h)))
        assert verify._inverse_certificate(h, g)


def test_certificate_rejects_wrong_shapes():
    h = build_hamiltonian(ChainSpec(Topology.OPEN, 4))
    g = verify.green_matrix(ChainSpec(Topology.OPEN, 4))
    assert verify._inverse_certificate(h, g)
    assert not verify._inverse_certificate(
        h, verify.green_matrix(ChainSpec(Topology.OPEN, 2)))
    assert not verify._inverse_certificate(
        ExactMatrix.from_rows(h.to_lists()[:3]), g)
    assert not verify._inverse_certificate(
        h, ExactMatrix.from_rows([row[:3] for row in g.to_lists()]))


def test_certificate_rejects_every_inverse_of_a_singular_ring():
    h = build_hamiltonian(ChainSpec(Topology.CYCLIC, 8))
    with pytest.raises(SingularMatrix):
        inverse_exact(h)
    rng = random.Random(3)
    eye = ExactMatrix.from_rows(identity_rows(8))
    made_up = [ExactMatrix.from_rows([[0] * 8] * 8), eye, -eye]
    made_up += [ExactMatrix.from_rows(
        [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(8)]
         for _ in range(8)]) for _ in range(20)]
    for g in made_up:
        assert not verify._inverse_certificate(h, g)


def failed_ids(suite):
    return {c["id"] for c in verify.run_suite(suite, 10, 0) if not c["passed"]}


def cli_exit(suite, capsys):
    code = cli.main(["verify", "--suite", suite, "--max-n", "10"])
    capsys.readouterr()
    return code


@pytest.fixture
def nudged_green(monkeypatch):
    """Every Green's matrix verify builds, off by 1e-12 in its top-right entry."""
    real = verify.green_matrix
    monkeypatch.setattr(
        verify, "green_matrix",
        lambda spec: nudged(real(spec), 0, spec.n_sites - 1))


@pytest.mark.parametrize("suite, check_ids", [
    ("alternating", {"alternating.open_vs_exact_inverse",
                     "alternating.cyclic_vs_exact_inverse"}),
    ("open", {"open.identity", "open.semiseparable"}),
])
def test_exact_checks_fail_on_a_wrong_green_matrix(nudged_green, capsys,
                                                   suite, check_ids):
    assert check_ids <= failed_ids(suite)
    assert cli_exit(suite, capsys) == 1


def test_cyclic_identity_fails_on_a_wrong_column(monkeypatch, capsys):
    real = verify.cyclic_inverse_first_column

    def wrong_column(n):
        column = list(real(n).first_column)
        column[1] += TINY
        return CirculantSpec(tuple(column))

    monkeypatch.setattr(verify, "cyclic_inverse_first_column", wrong_column)
    assert "cyclic.identity" in failed_ids("cyclic")
    assert cli_exit("cyclic", capsys) == 1


@pytest.mark.parametrize("suite,smallest", [
    ("open", 2), ("cyclic", 4), ("alternating", 6), ("lattice", 2),
    ("numbertheory", 9), ("trig", 2), ("all", 9),
])
def test_verify_refuses_max_n_where_a_check_sees_no_case(suite, smallest,
                                                          capsys):
    # Regression: below these sizes some check looped over no case and
    # still reported pass, with exit 0.
    for max_n in (-1, 0, smallest - 1):
        code = cli.main(["verify", "--suite", suite, "--max-n", str(max_n)])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == (f"InvalidSize: verify --suite {suite} needs "
                       f"--max-n >= {smallest}\n")
    assert cli.main(["verify", "--suite", suite, "--max-n", str(smallest)]) == 0
    capsys.readouterr()


def test_numbertheory_smallest_max_n_is_the_first_witness():
    # Below max_n = 9 the witness search of the suite finds nothing, so
    # witness_soundness would check no witness.
    queries = [InvertibilityQuery(d, n) for d in (1, 3, 5, 7)
               for n in range(3, 10, 2)]
    found = [(q.dim, q.n) for q in queries if find_vanishing_witness(q)]
    assert found and min(n for _, n in found) == 9


def report(suite, max_n):
    return {c["id"]: c["passed"] for c in verify.run_suite(suite, max_n, 0)}


def test_open_reduction_evaluates_the_alternating_form(monkeypatch):
    # Regression: the reduction compared the uniform open form with itself,
    # so a wrong alternating form still passed.
    real = closed_form._alternating_open_kernel

    def off_by_a_seventh(spec):
        form = real(spec)
        return form._replace(first=form.first + Fraction(1, 7))

    monkeypatch.setattr(closed_form, "_alternating_open_kernel",
                        off_by_a_seventh)
    assert report("alternating", 22)["alternating.uniform_reduction_open"] \
        is False


def test_cyclic_reduction_builds_one_kernel_per_ring(monkeypatch):
    real = closed_form._alternating_cyclic_kernel
    uniform_sizes = []

    def counted(spec):
        if spec.is_uniform:
            uniform_sizes.append(spec.n_sites)
        return real(spec)

    monkeypatch.setattr(closed_form, "_alternating_cyclic_kernel", counted)
    assert report("alternating", 22)["alternating.uniform_reduction_cyclic"]
    assert uniform_sizes == [6, 10, 14, 18, 22]


def test_rank_agreement_takes_no_eigenvalues(monkeypatch):
    # Every float spectrum within reach: the library's, which imports numpy
    # to compute it, and the analytic eigenpairs of the lattice checks.
    def refused(spec):
        raise AssertionError("numbertheory asked for a float spectrum")

    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(verify, "_lattice_modes", refused)
    assert report("numbertheory", 9)["numbertheory.matrix_rank_agreement"]


def test_d2_zero_count_reads_no_float_spectrum(monkeypatch):
    # Regression: the count was |lambda| < 1e-9 on the float spectrum, so a
    # rounding error that moved a nonzero eigenvalue below 1e-9 failed it.
    real_modes = verify._lattice_modes
    real_spectrum = lattice.lattice_spectrum

    def one_more_near_zero(spec):
        modes = list(real_modes(spec))
        if spec.dim == 2 and spec.linear_size == 7:
            worst = max(range(len(modes)), key=lambda m: abs(modes[m][0]))
            modes[worst] = (5e-10, modes[worst][1])
        return iter(modes)

    def near_zero_spectrum(spec):
        values = real_spectrum(spec)
        if spec.dim == 2 and spec.linear_size == 7:
            flat = values.reshape(-1)
            flat[abs(flat).argmax()] = 5e-10
        return values

    monkeypatch.setattr(verify, "_lattice_modes", one_more_near_zero)
    monkeypatch.setattr(lattice, "lattice_spectrum", near_zero_spectrum)
    checks = report("lattice", 10)
    assert checks["lattice.d2_zero_count"]
    assert all(checks.values())


def lattice_report(monkeypatch, **patches):
    for name, fn in patches.items():
        monkeypatch.setattr(verify, name, fn)
    return {c["id"]: c["passed"] for c in verify.run_suite("lattice", 10, 0)}


def test_spectrum_check_fails_on_one_perturbed_eigenvalue(monkeypatch):
    real = verify._lattice_modes

    def perturbed(spec):
        for m, (lam, v) in enumerate(real(spec)):
            yield (lam + 1e-6 if (spec.dim, spec.linear_size, m) == (2, 3, 4)
                   else lam), v

    checks = lattice_report(monkeypatch, _lattice_modes=perturbed)
    assert not checks["lattice.spectrum_vs_numeric"]


def test_spectrum_check_fails_on_a_basis_that_is_not_orthonormal(monkeypatch):
    # Stretched eigenvectors still satisfy H v = lambda v; only Q^T Q = I
    # sees that they no longer form an orthonormal basis.
    real = verify._chain_columns

    def stretched(n):
        eps, columns = real(n)
        return eps, [tuple(x * (1 + 1e-6) for x in c) for c in columns]

    checks = lattice_report(monkeypatch, _chain_columns=stretched)
    assert not checks["lattice.spectrum_vs_numeric"]


def test_lattice_checks_fail_on_one_dropped_bond(monkeypatch):
    real = verify.build_lattice_hamiltonian

    def dropped(spec):
        rows = real(spec).to_lists()
        if spec.total_sites > 1:
            rows[0][1] = rows[1][0] = Fraction(0)
        return ExactMatrix.from_rows(rows)

    checks = lattice_report(monkeypatch, build_lattice_hamiltonian=dropped)
    assert not checks["lattice.spectrum_vs_numeric"]
    assert not checks["lattice.green_residual"]


def test_green_residual_fails_on_a_wrong_weight_in_g(monkeypatch):
    # One eigenvector scaled by 1 + 1e-6 is still an eigenvector, so the
    # spectrum check passes, but its term in G carries the weight twice.
    real = verify._lattice_modes

    def rescaled(spec):
        for m, (lam, v) in enumerate(real(spec)):
            yield lam, [x * (1 + 1e-6) for x in v] if m == 1 else v

    checks = lattice_report(monkeypatch, _lattice_modes=rescaled)
    assert checks["lattice.spectrum_vs_numeric"]
    assert not checks["lattice.green_residual"]
    assert not checks["lattice.d1_reduction"]


def test_lattice_green_asks_the_exact_predicate(monkeypatch, capsys):
    # A singular answer ends the suite as the library's lattice Green's
    # matrix ends it, before any float is summed.
    monkeypatch.setattr(verify, "is_invertible", lambda query: False)
    with pytest.raises(SingularLattice):
        verify.run_suite("lattice", 10, 0)
    assert cli_exit("lattice", capsys) == 4


@pytest.mark.parametrize("d, n", [(3, 2), (3, 4), (1, 20)])
def test_certificate_evaluations_match_the_library(d, n):
    # The numpy library routes and the plain-Python evaluations the checks
    # certify agree; LAPACK's eigvalsh is compared in test_lattice.
    spec = lattice.LatticeSpec(d, n)
    modes = [lam for lam, _ in verify._lattice_modes(spec)]
    assert np.max(np.abs(lattice.lattice_spectrum(spec).ravel()
                         - np.array(modes))) <= 1e-13
    g = np.array(verify._lattice_green(spec))
    assert np.max(np.abs(lattice.lattice_green_matrix(spec) - g)) <= 1e-13
