"""Command line contract: frozen bytes and exit codes."""

import json
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hueckel_green", *args],
                          capture_output=True, text=True)


def test_build_open_three():
    result = run_cli("build", "--topology", "open", "--n", "3")
    assert result.returncode == 0
    assert result.stdout == "0,1,0\n1,0,1\n0,1,0\n"


def test_build_cyclic_json_has_corners():
    result = run_cli("build", "--topology", "cyclic", "--n", "6",
                     "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["kind"] == "matrix" and doc["exact"] is True
    assert doc["entries"][0][5] == 1 and doc["entries"][5][0] == 1


def test_build_alternating_odd_n_exit_three():
    result = run_cli("build", "--topology", "open", "--n", "5",
                     "--alpha", "2", "--beta", "1")
    assert result.returncode == 3
    assert result.stderr.startswith("AlternatingOddN")


def test_green_closed_entry():
    result = run_cli("green", "--topology", "open", "--n", "6",
                     "--method", "closed", "--r", "4", "--s", "1")
    assert result.returncode == 0
    assert result.stdout == "1\n"


def test_green_numeric_entry():
    result = run_cli("green", "--topology", "open", "--n", "6",
                     "--method", "numeric", "--r", "4", "--s", "1")
    assert result.returncode == 0
    assert result.stdout == "1.0000000000000000\n"


def test_green_cyclic_multiple_of_four_exit_four():
    result = run_cli("green", "--topology", "cyclic", "--n", "8")
    assert result.returncode == 4
    assert result.stderr == "singular: N=4k\n"
    assert result.stdout == ""


def test_green_methods_agree():
    from fractions import Fraction

    def cell_value(cell):
        return float(Fraction(cell)) if "/" in cell else float(cell)

    matrices = {}
    for method in ("closed", "usmani", "numeric", "spectral"):
        result = run_cli("green", "--topology", "open", "--n", "6",
                         "--method", method)
        assert result.returncode == 0, method
        rows = [[cell_value(cell) for cell in line.split(",")]
                for line in result.stdout.splitlines()]
        matrices[method] = rows
    for method in ("usmani", "numeric", "spectral"):
        for a, b in zip(matrices["closed"], matrices[method]):
            assert a == pytest.approx(b, abs=1e-9), method


def test_green_negative_coupling_with_equals_sign():
    from fractions import Fraction

    from hueckel_green import ChainSpec, GreenEntryQuery, Topology, green_entry
    result = run_cli("green", "--topology", "open", "--n", "4",
                     "--beta=-3/2", "--alpha=1/2", "--r", "1", "--s", "2")
    assert result.returncode == 0
    spec = ChainSpec(Topology.OPEN, 4, Fraction(-3, 2), Fraction(1, 2))
    want = green_entry(GreenEntryQuery(spec, 1, 2))
    assert result.stdout == f"{want}\n"


def test_green_usmani_requires_open():
    result = run_cli("green", "--topology", "cyclic", "--n", "6",
                     "--method", "usmani")
    assert result.returncode == 3


def test_green_transmission_squares():
    result = run_cli("green", "--topology", "open", "--n", "6",
                     "--r", "1", "--s", "2", "--transmission")
    assert result.stdout == "1\n"
    result = run_cli("green", "--topology", "cyclic", "--n", "6",
                     "--r", "2", "--s", "1", "--transmission")
    assert result.stdout == "1/4\n"


def test_det_examples():
    assert run_cli("det", "--topology", "cyclic", "--n", "7").stdout == "2\n"
    assert run_cli("det", "--topology", "open", "--n", "8").stdout == "1\n"
    assert run_cli("det", "--topology", "open", "--n", "7").stdout == "0\n"


def test_invertible_true():
    result = run_cli("invertible", "--d", "3", "--n-plus-one", "25")
    assert result.returncode == 0
    assert result.stdout == '{"invertible": true, "reason": "3 < 5"}\n'


def test_invertible_with_witness():
    result = run_cli("invertible", "--d", "3", "--n-plus-one", "9", "--witness")
    assert result.returncode == 0
    assert result.stdout == \
        '{"invertible": false, "reason": "3 >= 3", "witness": [1, 5, 7]}\n'


def test_invertible_even_dimension():
    result = run_cli("invertible", "--d", "2", "--n-plus-one", "11")
    assert result.returncode == 0
    assert result.stdout == '{"invertible": false, "reason": "even dimension"}\n'


def test_invertible_budget_exhausted_exit_five():
    result = run_cli("invertible", "--d", "5", "--n-plus-one", "31",
                     "--witness", "--budget", "3")
    assert result.returncode == 5


def test_usage_error_exit_two():
    assert run_cli("det", "--topology", "torus", "--n", "5").returncode == 2
    assert run_cli("green", "--topology", "open", "--n", "4",
                   "--beta", "0.5").returncode == 2
    assert run_cli().returncode == 2


def test_float_coupling_rejected_as_usage_error():
    result = run_cli("build", "--topology", "open", "--n", "4",
                     "--alpha", "2.5")
    assert result.returncode == 2


def test_verify_all_small_exit_zero():
    result = run_cli("verify", "--suite", "all", "--max-n", "12")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1].startswith("all,pass")


def test_verify_deterministic_bytes():
    first = run_cli("verify", "--suite", "alternating", "--max-n", "10",
                    "--seed", "5")
    second = run_cli("verify", "--suite", "alternating", "--max-n", "10",
                     "--seed", "5")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_invertible_deterministic_bytes():
    runs = [run_cli("invertible", "--d", "5", "--n-plus-one", "45", "--witness")
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout


def test_green_full_matrix_csv():
    result = run_cli("green", "--topology", "open", "--n", "6")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "0,-1,0,1,0,-1"


def test_green_json_round_trip():
    result = run_cli("green", "--topology", "cyclic", "--n", "5",
                     "--format", "json")
    doc = json.loads(result.stdout)
    assert doc["exact"] is True
    assert doc["entries"][0][0] == "-1/2"


def run_in_process(*args):
    """(exit code, stdout, stderr) of `cli.main` called in this process."""
    import contextlib
    import io

    from hueckel_green import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("n,beta,alpha", [
    (8, "1", "1"), (30, "1", "1"), (12, "2", "1/3"), (10, "-3/2", "5/7"),
])
def test_usmani_point_query_matches_dense_route(n, beta, alpha):
    chain = ("--topology", "open", "--n", str(n), f"--beta={beta}",
             f"--alpha={alpha}", "--method", "usmani")
    code, out, err = run_in_process("green", *chain)
    dense = [line.split(",") for line in out.splitlines()]
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            point = run_in_process("green", *chain, "--r", str(r), "--s", str(s))
            assert point == (code, dense[r - 1][s - 1] + "\n", err), (r, s)


def test_usmani_point_query_skips_the_full_inverse(monkeypatch):
    from hueckel_green import cli

    def refuse(spec):
        raise AssertionError("point query built the full inverse")
    monkeypatch.setattr(cli, "usmani_inverse", refuse)
    assert run_in_process("green", "--topology", "open", "--n", "396",
                          "--method", "usmani", "--r", "4", "--s", "1") \
        == (0, "1\n", "")


@pytest.mark.parametrize("args,code,stderr", [
    (("--n", "7", "--r", "1", "--s", "2"), 4, "singular: theta_N = 0\n"),
    (("--n", "7", "--r", "9", "--s", "2"), 4, "singular: theta_N = 0\n"),
    (("--n", "6", "--r", "7", "--s", "2"), 3,
     "IndexOutOfRange: (7, 2) outside 1..6\n"),
])
def test_usmani_point_query_errors(args, code, stderr):
    assert run_in_process("green", "--topology", "open", "--method", "usmani",
                          *args) == (code, "", stderr)


@pytest.mark.parametrize("topology,n", [("open", 2), ("open", 36),
                                        ("cyclic", 35), ("cyclic", 3)])
def test_spectral_matrix_one_eigensystem_bit_for_bit(monkeypatch, topology, n):
    from hueckel_green import chains
    calls = []
    original = chains.analytic_eigensystem

    def counting(spec):
        calls.append(spec)
        return original(spec)
    monkeypatch.setattr(chains, "analytic_eigensystem", counting)
    code, out, _ = run_in_process("green", "--topology", topology, "--n",
                                  str(n), "--method", "spectral")
    assert (code, len(calls)) == (0, 1)
    spec = chains.ChainSpec(chains.Topology(topology), n)
    for r, line in enumerate(out.splitlines(), start=1):
        assert [float(cell) for cell in line.split(",")] == [
            chains.spectral_resolvent_entry(spec, r, s, 0.0)
            for s in range(1, n + 1)]
