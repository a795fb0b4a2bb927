"""Process start: exact requests, the float LU, spectral entries,
spectral matrices up to 128 sites and every verify suite never import
numpy; spectral matrices above 128 sites do.  Neither the package import
nor any of those requests loads `dataclasses` or `inspect` (with the `ast`,
`dis` and `tokenize` imports they bring), which cost every process
milliseconds.

Each case runs in a fresh interpreter, so `sys.modules` shows exactly what
the package import and one `cli.main` call loaded.  The numpy and the
`dataclasses` tests of a case share that interpreter's report.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Each probe ends by printing its code and which of these it loaded.
WATCHED = ("numpy", "dataclasses", "inspect")
REPORT = f"print(code, *(m for m in {WATCHED!r} if m in sys.modules))\n"

PROBE = """
import contextlib, io, sys
import hueckel_green, hueckel_green.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = hueckel_green.cli.main(sys.argv[1:])
""" + REPORT


CIRCULANT_PROBE = """
import sys
from hueckel_green import CirculantSpec, SingularMatrix, circulant_inverse_dft
circulant_inverse_dft(CirculantSpec((3, 1, "-1/2", 0, 1)))
try:
    circulant_inverse_dft(CirculantSpec((0, 1, 0, 1)))
except SingularMatrix as err:
    code = err.index
""" + REPORT


@functools.lru_cache(maxsize=None)
def run_probe(script, *argv):
    """(exit code of cli.main or None, the `WATCHED` modules it loaded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                            capture_output=True, text=True, check=True)
    code, *loaded = result.stdout.split()
    return (None if code == "None" else int(code)), tuple(loaded)


def probe(*argv, script=PROBE):
    """(exit code of cli.main or None, whether numpy was imported)."""
    code, loaded = run_probe(script, *argv)
    return code, "numpy" in loaded


def slow_stdlib_loaded(*argv):
    """The ones of `dataclasses` and `inspect` that the probe loaded."""
    return [m for m in run_probe(PROBE, *argv)[1] if m != "numpy"]


OPEN = ("--topology", "open", "--n", "6")
CYCLIC = ("--topology", "cyclic", "--n", "6")

EXACT_ROUTES = {
    "det_open": (("det", *OPEN), 0),
    "det_cyclic": (("det", *CYCLIC), 0),
    "invertible": (("invertible", "--d", "3", "--n-plus-one", "25"), 0),
    "invertible_witness": (("invertible", "--d", "3", "--n-plus-one", "9",
                            "--witness"), 0),
    "build_open": (("build", *OPEN), 0),
    "build_cyclic_json": (("build", *CYCLIC, "--format", "json"), 0),
    "green_closed_matrix": (("green", *CYCLIC, "--method", "closed"), 0),
    "green_closed_entry": (("green", *OPEN, "--method", "closed",
                            "--r", "4", "--s", "1"), 0),
    "green_closed_transmission": (("green", *OPEN, "--beta", "2",
                                   "--alpha", "1/3", "--transmission"), 0),
    "green_closed_singular": (("green", "--topology", "cyclic", "--n", "8"), 4),
    "green_usmani_matrix": (("green", *OPEN, "--method", "usmani"), 0),
    "green_usmani_entry": (("green", *OPEN, "--method", "usmani",
                            "--r", "2", "--s", "5", "--transmission"), 0),
    "verify_cyclic": (("verify", "--suite", "cyclic", "--max-n", "10"), 0),
    "verify_alternating": (("verify", "--suite", "alternating",
                            "--max-n", "6"), 0),
    "verify_numbertheory": (("verify", "--suite", "numbertheory",
                             "--max-n", "9"), 0),
    "verify_open": (("verify", "--suite", "open", "--max-n", "6"), 0),
    "verify_lattice": (("verify", "--suite", "lattice", "--max-n", "6"), 0),
    "verify_trig": (("verify", "--suite", "trig", "--max-n", "6"), 0),
    "verify_all": (("verify", "--suite", "all", "--max-n", "9"), 0),
    "green_numeric": (("green", *OPEN, "--method", "numeric"), 0),
    "green_numeric_entry": (("green", *OPEN, "--beta", "2", "--alpha", "1/3",
                             "--method", "numeric", "--r", "2", "--s", "5",
                             "--transmission"), 0),
    "green_numeric_ring": (("green", *CYCLIC, "--beta", "2", "--alpha", "1/3",
                            "--method", "numeric", "--format", "json"), 0),
    "green_spectral_entry": (("green", *OPEN, "--method", "spectral",
                              "--r", "4", "--s", "1"), 0),
    "green_spectral_ring_entry": (("green", "--topology", "cyclic", "--n", "7",
                                   "--method", "spectral", "--r", "2",
                                   "--s", "6", "--transmission"), 0),
    "green_spectral_matrix": (("green", *CYCLIC, "--method", "spectral"), 0),
    "green_spectral_ring_matrix_json": (("green", "--topology", "cyclic",
                                         "--n", "38", "--method", "spectral",
                                         "--format", "json"), 0),
}

FLOAT_ROUTES = {
    "green_spectral_matrix_large": (("green", "--topology", "open", "--n",
                                     "130", "--method", "spectral",
                                     "--format", "json"), 0),
}


def test_package_import_leaves_numpy_out():
    assert probe() == (None, False)


@pytest.mark.parametrize("argv, code", EXACT_ROUTES.values(), ids=EXACT_ROUTES)
def test_exact_routes_leave_numpy_out(argv, code):
    assert probe(*argv) == (code, False)


def test_package_import_leaves_dataclasses_out():
    assert slow_stdlib_loaded() == []


@pytest.mark.parametrize("argv", [argv for argv, _ in EXACT_ROUTES.values()],
                         ids=EXACT_ROUTES)
def test_exact_routes_leave_dataclasses_out(argv):
    assert slow_stdlib_loaded(*argv) == []


@pytest.mark.parametrize("argv, code", FLOAT_ROUTES.values(), ids=FLOAT_ROUTES)
def test_float_routes_load_numpy(argv, code):
    assert probe(*argv) == (code, True)


def test_circulant_inverse_leaves_numpy_out():
    # the second call is singular, with its symbol vanishing at index 1
    assert probe(script=CIRCULANT_PROBE) == (1, False)
