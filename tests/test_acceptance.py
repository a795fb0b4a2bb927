"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from hueckel_green import (ChainSpec, SingularMatrix, Topology,
                           TridiagonalSpec, build_hamiltonian,
                           cosine_sum_is_zero_exact,
                           cyclic_inverse_first_column, cyclic_kernel_basis,
                           det_cyclic, det_fraction_free, det_open,
                           direct_green_matrix, find_vanishing_witness,
                           green_matrix, InvertibilityQuery, is_invertible,
                           LatticeSpec, lattice_green_matrix,
                           lattice_spectrum, lu_inverse, mat_vec,
                           build_lattice_hamiltonian, sine_ratio_sign,
                           sum_cos, sum_sin, symbol_factorization_inverse,
                           symmetric_eigenvalues, usmani_inverse, kahan_sum)

from oracles import gauss_jordan_inverse

F = Fraction
ALLOWED_OPEN = {F(-1), F(0), F(1)}
ALLOWED_CYCLIC = {F(-1, 2), F(0), F(1, 2)}
DIAG_PATTERNS = {1: (1, 1, -1, -1), 2: (0, 1, 0, -1), 3: (-1, 1, 1, -1)}


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


def open_chain_identity_exact(g) -> bool:
    """H1 (-G) = I checked in rational arithmetic row by row."""
    n = g.rows
    minus_g = [[-x for x in g.row(i)] for i in range(n)]
    for i in range(n):
        above = minus_g[i - 1] if i > 0 else [F(0)] * n
        below = minus_g[i + 1] if i + 1 < n else [F(0)] * n
        for j in range(n):
            if above[j] + below[j] != (1 if i == j else 0):
                return False
    return True


def test_criterion_1_open_chain_pattern():
    worst_lu = 0.0
    exact_ok = True
    for n in range(2, 201, 2):
        spec = ChainSpec(Topology.OPEN, n)
        g = green_matrix(spec)
        exact_ok &= set(g._data) <= ALLOWED_OPEN
        exact_ok &= (-usmani_inverse(TridiagonalSpec.from_chain(spec))) == g
        exact_ok &= open_chain_identity_exact(g)
        lu = np.asarray(lu_inverse(build_hamiltonian(spec).to_float()))
        worst_lu = max(worst_lu, float(np.max(np.abs(-lu - g.to_float()))))
    report("1 (open-chain pattern)", exact_ok and worst_lu <= 1e-10,
           f"worst LU deviation {worst_lu:.3e}")


def test_criterion_2_harmonic_sum_identity():
    worst = 0.0
    for n in range(2, 201, 2):
        closed = green_matrix(ChainSpec(Topology.OPEN, n)).to_float()
        direct = direct_green_matrix(n)
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    # spot-check the compensated per-entry path against the bulk sweep
    from hueckel_green import direct_green_sum
    for n, r, s in ((2, 1, 2), (6, 2, 4), (6, 4, 1), (200, 117, 44)):
        bulk = direct_green_matrix(n)[r - 1][s - 1]
        worst = max(worst, abs(direct_green_sum(n, r, s) - bulk))
    report("2 (harmonic-sum identity)", worst <= 1e-9, f"worst residual {worst:.3e}")


def test_criterion_3_determinant_tables_and_kernels():
    ok = True
    for n in range(2, 65):
        ok &= det_open(n) == det_fraction_free(
            build_hamiltonian(ChainSpec(Topology.OPEN, n)))
        ok &= det_cyclic(n) == det_fraction_free(
            build_hamiltonian(ChainSpec(Topology.CYCLIC, n)))
        if n % 4 == 0:
            h = build_hamiltonian(ChainSpec(Topology.CYCLIC, n))
            for v in cyclic_kernel_basis(n):
                ok &= all(x == 0 for x in mat_vec(h, [F(c) for c in v]))
    report("3 (determinant tables)", ok)


def test_criterion_4_cyclic_inverse_routes():
    ok = True
    for n in range(3, 201):
        if n % 4 == 0:
            continue
        column = cyclic_inverse_first_column(n).first_column
        ok &= symbol_factorization_inverse(n).first_column == column
        ok &= set(column) <= ALLOWED_CYCLIC
        base = DIAG_PATTERNS[n % 4]
        ok &= all(2 * column[k] == base[k % 4] for k in range(n))
        # H (first column) = e_0 proves H G = I exactly: the product of two
        # circulants is circulant, so its first column determines it all
        for i in range(n):
            want = F(1) if i == 0 else F(0)
            ok &= column[(i - 1) % n] + column[(i + 1) % n] == want
    report("4 (cyclic inverse routes)", ok)


def test_criterion_5_bond_alternation():
    rng = random.Random(51423)
    ok = True
    for _ in range(100):
        beta = F(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 5))
        alpha = F(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 5))
        n_open = 2 * rng.randint(1, 20)
        spec = ChainSpec(Topology.OPEN, n_open, beta, alpha)
        inverse = gauss_jordan_inverse(build_hamiltonian(spec).to_lists())
        ok &= green_matrix(spec).to_lists() == [[-x for x in r] for r in inverse]
        n_cyc = 2 * rng.randint(2, 20)
        spec = ChainSpec(Topology.CYCLIC, n_cyc, beta, alpha)
        try:
            g = green_matrix(spec)
        except SingularMatrix:
            ok &= det_fraction_free(build_hamiltonian(spec)) == 0
            continue
        inverse = gauss_jordan_inverse(build_hamiltonian(spec).to_lists())
        ok &= g.to_lists() == [[-x for x in r] for r in inverse]
    for n in range(2, 101, 2):
        uniform = ChainSpec(Topology.OPEN, n, 1, 1)
        ok &= green_matrix(uniform) == green_matrix(ChainSpec(Topology.OPEN, n))
        if n % 4 == 2 and n >= 6:
            alt = ChainSpec(Topology.CYCLIC, n, 1, 1)
            ok &= green_matrix(alt) == green_matrix(ChainSpec(Topology.CYCLIC, n))
    report("5 (bond alternation)", ok)


def test_criterion_6_lattice_spectra_and_inverse():
    worst_spectrum = 0.0
    for d in (1, 2, 3):
        for n in range(2, 7):
            spec = LatticeSpec(d, n)
            analytic = np.sort(lattice_spectrum(spec).ravel())
            numeric = symmetric_eigenvalues(
                build_lattice_hamiltonian(spec).to_float())
            worst_spectrum = max(worst_spectrum,
                                 float(np.max(np.abs(analytic - numeric))))
    zeros_ok = all(
        int(np.sum(np.abs(lattice_spectrum(LatticeSpec(2, n))) < 1e-9)) == n
        for n in range(1, 31))
    spec = LatticeSpec(3, 4)
    h = build_lattice_hamiltonian(spec).to_float()
    residual = float(np.max(np.abs(h @ lattice_green_matrix(spec) + np.eye(64))))
    ok = worst_spectrum <= 1e-8 and zeros_ok and residual <= 1e-8
    report("6 (lattice spectra and inverse)", ok,
           f"spectrum {worst_spectrum:.3e}, d3n4 residual {residual:.3e}")


def test_criterion_7_invertibility_predicate():
    ok = True
    for d in (1, 3, 5, 7):
        cap = 21 if d == 7 else 45
        for n in range(3, cap + 1, 2):
            query = InvertibilityQuery(d, n)
            witness = find_vanishing_witness(query)
            ok &= is_invertible(query) == (witness is None)
            if witness is not None:
                ok &= cosine_sum_is_zero_exact(n, witness.ks)
                ok &= abs(sum(math.cos(k * math.pi / n)
                              for k in witness.ks)) <= 1e-12
    for n in range(2, 46, 2):          # even n: always a witness, any d
        for d in (1, 2, 3, 4, 5):
            witness = find_vanishing_witness(InvertibilityQuery(d, n))
            ok &= witness is not None and cosine_sum_is_zero_exact(n, witness.ks)
    for n in range(3, 46):             # d = 2: always a witness
        witness = find_vanishing_witness(InvertibilityQuery(2, n))
        ok &= witness is not None and cosine_sum_is_zero_exact(n, witness.ks)
    report("7 (invertibility predicate vs search)", ok)


def test_criterion_8_appendix_trig_suite():
    worst_grid = 0.0
    thetas = [0.01 + (math.pi - 0.02) * i / 19 for i in range(20)]
    for nprime in range(1, 51):
        for theta in thetas:
            direct_c = kahan_sum(math.cos(k * theta) for k in range(nprime + 1))
            direct_s = kahan_sum(math.sin(k * theta) for k in range(nprime + 1))
            worst_grid = max(worst_grid,
                             abs(sum_cos(nprime, theta) - direct_c),
                             abs(sum_sin(nprime, theta) - direct_s))
    ratio_ok = True
    for n in range(2, 101, 2):
        for k in range(1, 3 * n + 1):
            if k % (n + 1) == 0:
                continue
            expected = 1 if k % 2 else -1
            ratio_ok &= sine_ratio_sign(n, k) == expected
    ok = worst_grid <= 1e-11 and ratio_ok
    report("8 (appendix trig suite)", ok, f"worst grid residual {worst_grid:.3e}")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hueckel_green", *args],
                          capture_output=True, text=True)


def test_criterion_9_cli_contract():
    ok = True
    result = run_cli("green", "--topology", "open", "--n", "6",
                     "--method", "closed", "--r", "4", "--s", "1")
    ok &= result.returncode == 0 and result.stdout == "1\n"
    result = run_cli("green", "--topology", "open", "--n", "6",
                     "--method", "numeric", "--r", "4", "--s", "1")
    ok &= result.returncode == 0 and result.stdout == "1.0000000000000000\n"
    result = run_cli("green", "--topology", "cyclic", "--n", "8")
    ok &= result.returncode == 4 and result.stderr == "singular: N=4k\n"
    result = run_cli("invertible", "--d", "3", "--n-plus-one", "25")
    ok &= result.stdout == '{"invertible": true, "reason": "3 < 5"}\n'
    result = run_cli("invertible", "--d", "3", "--n-plus-one", "9", "--witness")
    ok &= result.stdout == \
        '{"invertible": false, "reason": "3 >= 3", "witness": [1, 5, 7]}\n'
    ok &= json.loads(result.stdout)["witness"] == [1, 5, 7]
    result = run_cli("invertible", "--d", "2", "--n-plus-one", "11")
    ok &= result.stdout == '{"invertible": false, "reason": "even dimension"}\n'
    result = run_cli("verify", "--suite", "all", "--max-n", "20")
    ok &= result.returncode == 0
    report("9 (CLI contract)", ok)
