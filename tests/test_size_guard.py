"""The dense-matrix memory guard: N^2 cells against HUECKEL_MAX_CELLS."""

import os
import subprocess
import sys

import pytest

from hueckel_green import (ChainSpec, GreenEntryQuery, SingularMatrix,
                           TooLarge, Topology, TridiagonalSpec, ZeroCoupling,
                           build_hamiltonian, closed_form,
                           direct_green_matrix, green_entry,
                           green_matrix, spectral_resolvent_entry,
                           spectral_resolvent_matrix, usmani_entry,
                           usmani_inverse)
from hueckel_green.lattice import max_cells

LIMIT = "100"   # a 10x10 matrix just fits, a 14x14 one does not


def dense_builders(n):
    open_spec = ChainSpec(Topology.OPEN, n)
    return {
        "build": lambda: build_hamiltonian(open_spec),
        "closed": lambda: green_matrix(open_spec),
        "closed ring": lambda: green_matrix(ChainSpec(Topology.CYCLIC, n)),
        "alternating": lambda: green_matrix(
            ChainSpec(Topology.OPEN, n, coupling_odd=2, coupling_even=3)),
        "usmani": lambda: usmani_inverse(TridiagonalSpec.from_chain(open_spec)),
        "spectral": lambda: spectral_resolvent_matrix(open_spec, 0.3),
        "spectral entry": lambda: spectral_resolvent_entry(open_spec, 1, 2, 0.3),
        "direct sum": lambda: direct_green_matrix(n),
    }


def test_lattice_guard_stays_importable(monkeypatch):
    monkeypatch.setenv("HUECKEL_MAX_CELLS", LIMIT)
    assert max_cells() == 100


@pytest.mark.parametrize("builder", list(dense_builders(2)))
def test_dense_builders_refuse_past_the_guard(monkeypatch, builder):
    monkeypatch.setenv("HUECKEL_MAX_CELLS", LIMIT)
    dense_builders(10)[builder]()
    with pytest.raises(TooLarge) as err:
        dense_builders(14)[builder]()
    assert str(err.value) == (
        "14x14 matrix (196 cells) exceeds the memory guard (100)")


def refused_rows(*args):
    raise AssertionError("rows built for a matrix past the guard")


@pytest.mark.parametrize("spec, error", [
    (ChainSpec(Topology.OPEN, 15), SingularMatrix),
    (ChainSpec(Topology.OPEN, 14, 0, 3), ZeroCoupling),
    (ChainSpec(Topology.CYCLIC, 16), SingularMatrix),
    (ChainSpec(Topology.CYCLIC, 14, 2, -2), SingularMatrix),
    (ChainSpec(Topology.CYCLIC, 15, 0, 0), SingularMatrix),
    (ChainSpec(Topology.OPEN, 14), TooLarge),
    (ChainSpec(Topology.OPEN, 14, 2, 3), TooLarge),
    (ChainSpec(Topology.CYCLIC, 14), TooLarge),
    (ChainSpec(Topology.CYCLIC, 14, 2, 3), TooLarge),
    (ChainSpec(Topology.CYCLIC, 15, 2, 2), TooLarge),
])
def test_closed_form_refusals_come_first_and_rows_after_the_guard(
        monkeypatch, spec, error):
    # The closed forms refuse a spec before the guard, as before; the
    # guard comes before the O(N) rows, whose alternating powers would
    # take O(N^2) bits for a matrix that is refused anyway.
    monkeypatch.setenv("HUECKEL_MAX_CELLS", LIMIT)
    monkeypatch.setattr(closed_form._Rows, "odd_row", refused_rows)
    monkeypatch.setattr(closed_form._Bipartite, "odd_row", refused_rows)
    with pytest.raises(error):
        green_matrix(spec)


def test_single_entries_stay_unguarded(monkeypatch):
    monkeypatch.setenv("HUECKEL_MAX_CELLS", LIMIT)
    spec = ChainSpec(Topology.OPEN, 12)
    assert green_entry(GreenEntryQuery(spec, 2, 1)) == -1
    assert usmani_entry(TridiagonalSpec.from_chain(spec), 2, 1) == 1


def run_cli(*args):
    env = dict(os.environ, HUECKEL_MAX_CELLS=LIMIT)
    return subprocess.run([sys.executable, "-m", "hueckel_green", *args],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("args", [
    ("build",),
    ("green", "--method", "closed"),
    ("green", "--method", "usmani"),
    ("green", "--method", "numeric"),
    ("green", "--method", "spectral"),
    ("green", "--method", "numeric", "--r", "2", "--s", "1"),
])
def test_cli_refuses_past_the_guard(args):
    result = run_cli(*args, "--topology", "open", "--n", "14")
    assert result.returncode == 3
    assert result.stderr.startswith("TooLarge: 14x14 matrix (196 cells)")
    assert result.stdout == ""


@pytest.mark.parametrize("method", ["closed", "usmani"])
def test_cli_single_entries_pass_the_guard(method):
    result = run_cli("green", "--topology", "open", "--n", "14",
                     "--method", method, "--r", "2", "--s", "1")
    assert result.returncode == 0
    assert result.stdout == "-1\n"
