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


@pytest.mark.parametrize("command", ["build", "green"])
@pytest.mark.parametrize("coupling,flag", [
    (("--alpha", "1/0"), "--alpha"),
    (("--beta=0/0",), "--beta"),
    (("--alpha=-3/0",), "--alpha"),
])
def test_zero_denominator_coupling_is_a_usage_error(command, coupling, flag):
    # Regression: Fraction's ZeroDivisionError escaped argparse, which
    # ended in a traceback and exit 1.
    result = run_cli(command, "--topology", "open", "--n", "4", *coupling)
    assert result.returncode == 2
    assert f"error: argument {flag}: invalid" in result.stderr
    assert "Traceback" not in result.stderr


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
    original = chains._mode_row

    def counting(spec, r):
        calls.append(r)
        return original(spec, r)
    monkeypatch.setattr(chains, "_mode_row", counting)
    code, out, _ = run_in_process("green", "--topology", topology, "--n",
                                  str(n), "--method", "spectral")
    # each row of the eigenbasis is built once
    assert (code, sorted(calls)) == (0, list(range(1, n + 1)))
    spec = chains.ChainSpec(chains.Topology(topology), n)
    for r, line in enumerate(out.splitlines(), start=1):
        assert [float(cell) for cell in line.split(",")] == [
            chains.spectral_resolvent_entry(spec, r, s, 0.0)
            for s in range(1, n + 1)]


@pytest.mark.parametrize("n,beta,alpha", [
    (8, "1", "1"), (30, "1", "1"), (12, "2", "1/3"), (10, "-3/2", "5/7"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_usmani_matrix_one_inverse_no_negation(monkeypatch, n, beta, alpha,
                                               fmt):
    from hueckel_green import cli, exact
    calls = {"usmani_inverse": 0, "neg": 0}
    original_inverse = cli.usmani_inverse
    original_neg = exact.ExactMatrix.__neg__

    def counting_inverse(spec):
        calls["usmani_inverse"] += 1
        return original_inverse(spec)

    def counting_neg(self):
        calls["neg"] += 1
        return original_neg(self)
    monkeypatch.setattr(cli, "usmani_inverse", counting_inverse)
    monkeypatch.setattr(exact.ExactMatrix, "__neg__", counting_neg)
    chain = ("green", "--topology", "open", "--n", str(n), f"--beta={beta}",
             f"--alpha={alpha}", "--format", fmt)
    usmani = run_in_process(*chain, "--method", "usmani")
    assert calls == {"usmani_inverse": 1, "neg": 0}
    assert usmani == run_in_process(*chain, "--method", "closed")
    assert usmani[0] == 0


def test_usmani_matrix_with_zero_coupling():
    # alpha = 0 cuts the chain into dimers; closed forms refuse it
    code, out, err = run_in_process("green", "--topology", "open", "--n", "6",
                                    "--alpha", "0", "--beta", "2/3",
                                    "--method", "usmani")
    dimer = [["0", "-3/2"], ["-3/2", "0"]]
    want = [[dimer[r % 2][s % 2] if r // 2 == s // 2 else "0"
             for s in range(6)] for r in range(6)]
    assert (code, err) == (0, "")
    assert out == "".join(",".join(row) + "\n" for row in want)
    assert run_in_process("green", "--topology", "open", "--n", "6",
                          "--alpha", "0", "--method", "closed")[0] == 3


@pytest.mark.parametrize("args,stderr", [
    (("det", "--topology", "open", "--n", "0"),
     "InvalidSize: n must be >= 1\n"),
    (("invertible", "--d", "3", "--n-plus-one", "1"),
     "InvalidSize: n must be >= 2\n"),
    (("invertible", "--d", "0", "--n-plus-one", "5", "--witness"),
     "InvalidSize: dimension must be >= 1\n"),
    (("green", "--topology", "open", "--n", "0"),
     "InvalidSize: n_sites must be >= 1\n"),
    (("green", "--topology", "cyclic", "--n", "-3", "--r", "1", "--s", "1"),
     "InvalidSize: n_sites must be >= 1\n"),
    (("build", "--topology", "open", "--n", "-1"),
     "InvalidSize: n_sites must be >= 1\n"),
])
def test_domain_errors_exit_three_with_one_line(args, stderr):
    result = run_cli(*args)
    assert (result.returncode, result.stdout, result.stderr) == (3, "", stderr)


def test_domain_errors_are_still_value_errors():
    from hueckel_green import (ChainSpec, HueckelError, InvertibilityQuery,
                               Topology, det_open)
    for build in (lambda: det_open(0), lambda: InvertibilityQuery(0, 5),
                  lambda: InvertibilityQuery(3, 1),
                  lambda: ChainSpec(Topology.OPEN, 0)):
        with pytest.raises(ValueError) as err:
            build()
        assert isinstance(err.value, HueckelError)


ILL_CONDITIONED = ("green", "--topology", "open", "--alpha=1000")


@pytest.mark.parametrize("n", [12, 20, 40])
@pytest.mark.parametrize("entry", [(), ("--r", "1", "--s", "2")])
def test_numeric_refusal_of_invertible_chain_is_not_singular(n, entry):
    # Regression: the LU condition screen trips on these chains, and they
    # exited 4 although det H = +-1 and the exact routes answer them.
    chain = (*ILL_CONDITIONED, "--n", str(n), *entry)
    code, out, err = run_in_process(*chain, "--method", "numeric")
    assert (code, out) == (3, "")
    assert err.startswith("IllConditioned: ") and err.count("\n") == 1
    assert run_in_process(*chain, "--method", "closed")[0] == 0


@pytest.mark.parametrize("chain,stderr", [
    (("--topology", "open", "--n", "7"), "singular: theta_N = 0\n"),
    (("--topology", "open", "--n", "6", "--alpha", "0", "--beta", "0"),
     "singular: theta_N = 0\n"),
    (("--topology", "cyclic", "--n", "8"), "singular: N=4k\n"),
    (("--topology", "cyclic", "--n", "6", "--beta", "2", "--alpha=-2"),
     "singular: alternating denominator\n"),
])
@pytest.mark.parametrize("entry", [(), ("--r", "1", "--s", "2")])
def test_numeric_singular_chain_is_decided_exactly(chain, stderr, entry):
    assert run_in_process("green", *chain, "--method", "numeric", *entry) \
        == (4, "", stderr)


def test_numeric_gate_decides_open_chains_by_the_theta_rule(monkeypatch):
    # theta_N = (-beta^2)^(N/2) for even N and 0 for odd N: the gate needs
    # neither recursion table.
    from fractions import Fraction as F

    from hueckel_green import (ChainSpec, HueckelError, SingularMatrix,
                               Topology, TridiagonalSpec, tridiagonal)
    cases = []
    for n in range(1, 41):
        for beta, alpha in ((1, 1), (2, F(1, 3)), (F(-3, 2), F(5, 7)),
                            (1000, 1), (1, 1000), (0, F(2, 3)), (F(2, 3), 0),
                            (0, 0)):
            try:
                spec = ChainSpec(Topology.OPEN, n, beta, alpha)
            except HueckelError:
                continue
            try:
                tridiagonal.require_invertible(TridiagonalSpec.from_chain(spec))
                singular = False
            except SingularMatrix:
                singular = True
            cases.append((n, beta, alpha, singular))
    calls = []
    theta_phi = tridiagonal.theta_phi
    monkeypatch.setattr(tridiagonal, "theta_phi",
                        lambda spec: calls.append(spec) or theta_phi(spec))
    for n, beta, alpha, singular in cases:
        code, _, err = run_in_process(
            "green", "--topology", "open", "--n", str(n), f"--beta={beta}",
            f"--alpha={alpha}", "--method", "numeric", "--r", "1", "--s", "1")
        assert (code == 4) == singular, (n, beta, alpha)
        assert (err == "singular: theta_N = 0\n") == singular
    assert calls == []
    assert {c[3] for c in cases} == {True, False}


@pytest.mark.parametrize("chain,code,stderr", [
    (("--n", "2"), 0, ""),                                   # no ring kernel
    (("--n", "6", "--alpha", "0", "--beta", "1"), 0, ""),    # dimers
    (("--n", "6", "--alpha", "0", "--beta", "0"), 4,
     "singular: zero couplings\n"),
    (("--n", "5", "--alpha", "2", "--beta", "2"), 0, ""),
    (("--n", "2", "--beta", "0"), 4, "singular: zero couplings\n"),
    (("--n", "2", "--alpha", "0"), 0, ""),                   # the edge beta
])
def test_numeric_ring_outside_the_kernels_is_left_to_lu(chain, code, stderr):
    # Only the answer is left to the LU; singularity is decided exactly:
    # the 2-site ring is the single edge beta, and an even ring with a
    # zero coupling is a set of disjoint dimers.
    result = run_in_process("green", "--topology", "cyclic", *chain,
                            "--method", "numeric")
    assert (result[0], result[2]) == (code, stderr)


def test_odd_ring_with_equal_couplings_is_not_singular():
    # Regression: the closed form called t (S + S^T) singular at odd N.
    code, out, err = run_in_process("green", "--topology", "cyclic", "--n",
                                    "5", "--alpha", "2", "--beta", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "-1/4,-1/4,1/4,1/4,-1/4"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("transmission", [False, True])
def test_long_exact_entry_is_written_in_full(fmt, transmission):
    # Regression: G(N, 1) = 3 * 6^(N/2 - 1) has 4 670 digits at N = 12 000,
    # past Python's default int-to-str limit of 4 300, and the request
    # ended in a ValueError traceback and exit 1.
    limit = sys.get_int_max_str_digits()
    extra = ("--transmission",) if transmission else ()
    code, out, err = run_in_process(
        "green", "--topology", "open", "--n", "12000", "--alpha=2",
        "--beta=1/3", "--r", "12000", "--s", "1", "--format", fmt, *extra)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    value = 3 * 6 ** 5999
    if transmission:
        value *= value
    sys.set_int_max_str_digits(0)
    try:
        digits = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    if fmt == "csv":
        assert out == digits + "\n"
    else:
        assert out == f'{{"kind": "scalar", "value": {digits}, "exact": true}}\n'
