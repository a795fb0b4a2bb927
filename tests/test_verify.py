"""The verify suites' exact inverse certificate, and that its checks can fail."""

import random
from fractions import Fraction

import pytest

from hueckel_green import cli, verify
from hueckel_green.chains import ChainSpec, Topology, build_hamiltonian
from hueckel_green.circulant import CirculantSpec
from hueckel_green.errors import SingularMatrix
from hueckel_green.exact import ExactMatrix, inverse_exact

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
    made_up = [ExactMatrix.zeros(8, 8), ExactMatrix.identity(8),
               -ExactMatrix.identity(8)]
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
