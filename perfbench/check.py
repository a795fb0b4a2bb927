"""Independent output checker for the benchmark.

Nothing here imports the package under test: every reference is rebuilt
from the request itself with code of its own.

* exact Green's matrices: the banded certificate H.(-G) = I against an H
  built here, in scaled integer arithmetic;
* float matrices: the residual max|H.G + I|;
* single entries: an O(N) exact column solve of H.x = e_s;
* determinants: the continuant recurrence;
* cosine witnesses: evaluation at every primitive 2n-th root of unity
  modulo two large primes p = 1 (mod 2n);
* lattice matrices: H.(G.x) = -x for a seeded probe vector x;
* exit codes: compared with the code the request expects.

`expected(request)` derives the right answer from the request's inputs;
`check(request, code, stdout)` and `check_call(request, reply)` return None
for a correct answer and a short reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

FLOAT_TOL = 1e-8


# -- chains -----------------------------------------------------------------

def couplings(topology: str, n: int, alpha: str, beta: str) -> list[Fraction]:
    """c[b] for b = 1..n (index 0 unused): beta on odd bonds, alpha on even.

    c[n] is the wrap-around bond; it is zero for open chains and for the
    two-site ring, which collapses to a single edge.
    """
    a, b = Fraction(alpha), Fraction(beta)
    c = [Fraction(0)] + [b if k % 2 else a for k in range(1, n + 1)]
    if topology == "open" or n < 3:
        c[n] = Fraction(0)
    return c


def hamiltonian(topology: str, n: int, alpha: str, beta: str) -> list[list[Fraction]]:
    c = couplings(topology, n, alpha, beta)
    h = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n):
        h[k - 1][k] = h[k][k - 1] = c[k]
    if c[n]:
        h[n - 1][0] = h[0][n - 1] = c[n]
    return h


def solve_column(topology: str, n: int, alpha: str, beta: str,
                 s: int) -> list[Fraction] | None:
    """x with H.x = e_s (1-based s), or None when H is singular.

    Rows 2..N-1 give x_{i+1} from x_{i-1}, so every x_i is an affine form
    in (x_1, x_2); rows 1 and N then pin (x_1, x_2) by a 2x2 solve.
    """
    c = couplings(topology, n, alpha, beta)
    x = [None, (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))]
    for i in range(2, n):
        rhs = 1 if i == s else 0
        p = x[i - 1]
        x.append(((rhs - c[i - 1] * p[0]) / c[i],
                  -c[i - 1] * p[1] / c[i], -c[i - 1] * p[2] / c[i]))

    def row(i, left, right, cl, cr):
        rhs = 1 if i == s else 0
        return (cl * left[1] + cr * right[1], cl * left[2] + cr * right[2],
                rhs - cl * left[0] - cr * right[0])

    # row 1: c_N x_N + c_1 x_2 = [s == 1];  row N: c_{N-1} x_{N-1} + c_N x_1
    a11, a12, b1 = row(1, x[n], x[2], c[n], c[1])
    a21, a22, b2 = row(n, x[n - 1], x[1], c[n - 1], c[n])
    det = a11 * a22 - a12 * a21
    if det == 0:
        return None
    x1 = (b1 * a22 - a12 * b2) / det
    x2 = (a11 * b2 - b1 * a21) / det
    return [f[0] + f[1] * x1 + f[2] * x2 for f in x[1:n + 1]]


def det_uniform(topology: str, n: int) -> int:
    """Determinant of the uniform open chain or ring by the continuant."""
    d = [1, 0]                      # D_0, D_1 of the zero-diagonal path
    for _ in range(2, n + 1):
        d.append(-d[-2])
    if topology == "open":
        return d[n]
    if n == 2:
        return d[2]
    # periodic Jacobi matrix: D_N - D_{N-2} + 2 (-1)^(N+1) for unit bonds
    return d[n] - d[n - 2] + 2 * (-1) ** (n + 1)


# -- parsing ----------------------------------------------------------------

def parse_matrix(text: str, fmt: str) -> tuple[list[list], dict]:
    """Rows of raw entries (str for CSV, JSON values for JSON) and metadata."""
    if fmt == "csv":
        return [line.split(",") for line in text.splitlines()], {}
    doc = json.loads(text)
    meta = {k: v for k, v in doc.items() if k != "entries"}
    return doc["entries"], meta


def _scaled_rows(rows: list[list]) -> tuple[list[list[int]], int]:
    """Exact entries as integers over one common denominator."""
    cache: dict = {}
    for row in rows:
        for tok in row:
            if tok not in cache:
                if not _is_exact_token(tok):
                    raise ValueError(f"non-exact entry {tok!r}")
                cache[tok] = Fraction(tok)
    den = 1
    for v in cache.values():
        den = den * v.denominator // math.gcd(den, v.denominator)
    scaled = {k: v.numerator * (den // v.denominator) for k, v in cache.items()}
    return [[scaled[t] for t in row] for row in rows], den


# -- checks -----------------------------------------------------------------

def check_exact_green(rows: list[list], topology: str, n: int, alpha: str,
                      beta: str) -> str | None:
    """H.G = -I exactly, with H banded (plus the ring corner)."""
    if len(rows) != n or any(len(r) != n for r in rows):
        return "matrix shape"
    g, den = _scaled_rows(rows)
    c = couplings(topology, n, alpha, beta)
    cden = 1
    for v in c:
        cden = cden * v.denominator // math.gcd(cden, v.denominator)
    ci = [v.numerator * (cden // v.denominator) for v in c]
    zero = [0] * n
    target = -den * cden
    for i in range(n):            # 0-based row i is site i+1
        left = g[i - 1] if i > 0 else (g[n - 1] if ci[n] else zero)
        right = g[i + 1] if i + 1 < n else (g[0] if ci[n] else zero)
        cl = ci[i] if i > 0 else ci[n]
        cr = ci[i + 1] if i + 1 < n else ci[n]
        acc = [cl * p + cr * q for p, q in zip(left, right)]
        if acc[i] != target:
            return f"certificate fails on diagonal {i + 1}"
        acc[i] = 0
        if any(acc):
            return f"certificate fails in row {i + 1}"
    return None


def _float_h(topology: str, n: int, alpha: str, beta: str) -> np.ndarray:
    return np.array([[float(x) for x in row]
                     for row in hamiltonian(topology, n, alpha, beta)])


def check_float_green(rows: list[list], topology: str, n: int, alpha: str,
                      beta: str) -> str | None:
    g = np.array(rows, dtype=float)
    if g.shape != (n, n):
        return "matrix shape"
    res = float(np.max(np.abs(_float_h(topology, n, alpha, beta) @ g + np.eye(n))))
    if not res <= FLOAT_TOL:
        return f"residual {res:.3e}"
    return None


def check_hamiltonian(rows: list[list], topology: str, n: int, alpha: str,
                      beta: str) -> str | None:
    if len(rows) != n or any(len(r) != n for r in rows):
        return "matrix shape"
    want = hamiltonian(topology, n, alpha, beta)
    for i, row in enumerate(rows):
        if not all(map(_is_exact_token, row)) or [Fraction(t) for t in row] != want[i]:
            return f"row {i + 1} differs"
    return None


def _scalar(text: str, fmt: str, exact: bool):
    text = text.strip()
    if fmt == "json":
        doc = json.loads(text)
        if doc.get("kind") != "scalar" or doc.get("exact") is not exact:
            raise ValueError(f"scalar document {doc}")
        return doc["value"]
    return text


def _is_exact_token(value) -> bool:
    if isinstance(value, str):
        return not any(ch in value for ch in ".eEn")
    return isinstance(value, int) and not isinstance(value, bool)


def check_entry(value, want: Fraction, exact: bool) -> str | None:
    if exact:
        if not _is_exact_token(value) or Fraction(value) != want:
            return f"entry {value!r} != {want}"
        return None
    got = float(value)
    if not abs(got - float(want)) <= FLOAT_TOL * max(1.0, abs(float(want))):
        return f"entry {got!r} != {float(want)!r}"
    return None


# -- cosine witnesses -------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


@lru_cache(maxsize=None)
def _primitive_roots(m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """For two primes p = 1 (mod m) near 2^61: every primitive m-th root mod p."""
    out = []
    t = (1 << 61) // m
    while len(out) < 2:
        t += 1
        p = t * m + 1
        if not _is_prime(p):
            continue
        for g in range(2, 1000):
            w = pow(g, (p - 1) // m, p)
            if all(pow(w, m // q, p) != 1 for q in _prime_factors(m)):
                break
        roots = tuple(pow(w, j, p) for j in range(1, m) if math.gcd(j, m) == 1)
        out.append((p, roots))
    return tuple(out)


def cosine_sum_vanishes(n: int, ks) -> bool:
    """sum_i cos(k_i pi/n) == 0, exactly.

    2 cos(k pi/n) = z^k + z^-k for z a primitive 2n-th root of unity, so the
    sum vanishes iff P(x) = sum_i x^k_i + x^(2n-k_i) is divisible by the
    2n-th cyclotomic polynomial, i.e. iff P vanishes at every primitive
    2n-th root of unity.  Checked modulo two primes p = 1 (mod 2n), where
    those roots exist; a nonzero remainder would need coefficients
    divisible by both primes (about 2^122).
    """
    m = 2 * n
    exps = [k % m for k in ks] + [(-k) % m for k in ks]
    for p, roots in _primitive_roots(m):
        for w in roots:
            if sum(pow(w, e, p) for e in exps) % p:
                return False
    return True


def _smallest_prime(n: int) -> int:
    return _prime_factors(n)[0]


def lattice_invertible(d: int, n: int) -> bool:
    """Paper's existence rule for the d-dimensional Green's function, n = N+1."""
    if n % 2 == 0 or d % 2 == 0:
        return False
    p = _smallest_prime(n)
    return d < p or p == n


def check_witness(ks, d: int, n: int) -> str | None:
    if not isinstance(ks, list) or len(ks) != d:
        return f"witness {ks!r} has the wrong length"
    if not all(isinstance(k, int) and 1 <= k <= n - 1 for k in ks):
        return f"witness {ks!r} out of range"
    if not cosine_sum_vanishes(n, ks):
        return f"witness {ks!r} does not vanish"
    return None


def check_decision(text: str, d: int, n: int, witness: bool) -> str | None:
    doc = json.loads(text)
    want = lattice_invertible(d, n)
    if doc.get("invertible") is not want:
        return f"invertible={doc.get('invertible')!r}, expected {want}"
    if not witness:
        return None if "witness" not in doc else "unexpected witness field"
    if want:
        return None if doc.get("witness") is None else "witness for invertible case"
    return check_witness(doc.get("witness"), d, n)


# -- verify reports ---------------------------------------------------------

VERIFY_IDS = {
    "open": ("open.closed_vs_usmani", "open.identity", "open.entries_pm1",
             "open.vs_numeric", "open.harmonic_sum", "open.semiseparable"),
    "cyclic": ("cyclic.recurrence_vs_symbol", "cyclic.identity",
               "cyclic.mod4_patterns", "cyclic.symmetric_circulant",
               "cyclic.det_table", "cyclic.kernel"),
    "alternating": ("alternating.open_vs_exact_inverse",
                    "alternating.cyclic_vs_exact_inverse",
                    "alternating.uniform_reduction_open",
                    "alternating.uniform_reduction_cyclic"),
    "lattice": ("lattice.spectrum_vs_numeric", "lattice.d2_zero_count",
                "lattice.green_residual", "lattice.d1_reduction"),
    "numbertheory": ("numbertheory.predicate_vs_search",
                     "numbertheory.witness_soundness",
                     "numbertheory.even_cases_have_witnesses",
                     "numbertheory.prime_symmetric_sums",
                     "numbertheory.matrix_rank_agreement"),
    "trig": ("trig.closed_sums", "trig.sine_ratio", "trig.parity_zero",
             "trig.direct_vs_closed"),
}


def check_report(text: str, fmt: str, suite: str) -> str | None:
    if fmt == "csv":
        lines = [ln.split(",") for ln in text.splitlines()]
        if not lines or lines[-1][:2] != ["all", "pass"]:
            return "report not passed"
        checks = [(ln[0], ln[1] == "pass", float(ln[2])) for ln in lines[:-1]]
    else:
        doc = json.loads(text)
        if doc.get("passed") is not True:
            return "report not passed"
        checks = [(c["id"], c["passed"] is True, float(c["residual"]))
                  for c in doc["checks"]]
    if tuple(c[0] for c in checks) != VERIFY_IDS[suite]:
        return "unexpected check ids"
    if not all(c[1] and math.isfinite(c[2]) for c in checks):
        return "a check failed"
    return None


# -- library results ----------------------------------------------------------

def probe_vector(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(size)


def lattice_apply(y: np.ndarray, d: int, n: int) -> np.ndarray:
    """Open hypercubic adjacency applied to a flat vector (axis 1 slowest)."""
    t = y.reshape((n,) * d)
    out = np.zeros_like(t)
    for axis in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[axis], hi[axis] = slice(0, n - 1), slice(1, n)
        out[tuple(lo)] += t[tuple(hi)]
        out[tuple(hi)] += t[tuple(lo)]
    return out.reshape(-1)


def check_lattice_probe(gx: list[float], d: int, n: int, seed: int) -> str | None:
    x = probe_vector(seed, n ** d)
    y = np.asarray(gx, dtype=float)
    if y.shape != x.shape:
        return "probe shape"
    res = float(np.max(np.abs(lattice_apply(y, d, n) + x)))
    if not res <= FLOAT_TOL * max(1.0, float(np.max(np.abs(y)))):
        return f"lattice residual {res:.3e}"
    return None


def lattice_entry(d: int, n: int, r: list[int], s: list[int]) -> float:
    """-sum over modes of prod_i phi_k(r_i) phi_k(s_i) / lambda_k."""
    k = np.arange(1, n + 1)
    w = math.pi / (n + 1)
    norm = 2.0 / (n + 1)
    weight = np.ones(())
    lam = np.zeros(())
    for ri, si in zip(r, s):
        axis = norm * np.sin(ri * k * w) * np.sin(si * k * w)
        weight = np.multiply.outer(weight, axis)
        lam = np.add.outer(lam, 2.0 * np.cos(k * w))
    return -float(np.sum(weight / lam))


def check_circulant_inverse(column: list[str], inverse: list[str]) -> str | None:
    c = [Fraction(v) for v in column]
    x = [Fraction(v) for v in inverse]
    n = len(c)
    if len(x) != n:
        return "inverse length"
    for i in range(n):
        acc = sum((c[(i - k) % n] * x[k] for k in range(n) if x[k]), Fraction(0))
        if acc != (1 if i == 0 else 0):
            return f"C.x != e_0 in row {i}"
    return None


# -- dispatch ---------------------------------------------------------------

def expected(req: dict) -> dict:
    """The right answer to `req` (exit code, kind, reference), memoized on it."""
    if "expect" not in req:
        req["expect"] = (_expected_call(req["op"], req["params"]) if "op" in req
                         else _expected_cli(req["params"]))
    return req["expect"]


def _expected_cli(p: dict) -> dict:
    cmd = p["cmd"]
    if cmd == "build":
        return {"code": 0, "kind": "hamiltonian"}
    if cmd == "det":
        return {"code": 0, "kind": "det", "value": det_uniform(p["topology"], p["n"])}
    if cmd == "invertible":
        return {"code": 0, "kind": "decision"}
    if cmd == "verify":
        return {"code": 0, "kind": "report"}
    column = solve_column(p["topology"], p["n"], p["alpha"], p["beta"], p["s"] or 1)
    exact = p["method"] in ("closed", "usmani")
    if column is None:
        return {"code": 4}
    if p["r"] is None:
        return {"code": 0, "kind": "exact_matrix" if exact else "float_matrix"}
    value = -column[p["r"] - 1]
    return {"code": 0, "kind": "entry", "exact": exact,
            "value": value * value if p["transmission"] else value}


def _expected_call(op: str, p: dict) -> dict:
    if op == "circulant_inverse_dft":
        return {"code": 0}
    if op == "find_vanishing_witness":
        return {"code": 0, "witness": not lattice_invertible(p["dim"], p["n"])}
    if not lattice_invertible(p["dim"], p["size"] + 1):
        return {"code": 4}
    if op == "lattice_green_entry":
        return {"code": 0, "value": lattice_entry(p["dim"], p["size"], p["r"], p["s"])}
    return {"code": 0}


def check(req: dict, code: int, stdout: str) -> str | None:
    """None when (code, stdout) is the right answer to `req`."""
    want = expected(req)
    if code != want["code"]:
        return f"exit code {code}, expected {want['code']}"
    if code != 0:
        return None if not stdout else "output on a failing request"
    try:
        return _check_output(req, want, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"unparsable output: {type(err).__name__}: {err}"


def _check_output(req: dict, want: dict, stdout: str) -> str | None:
    p = req["params"]
    kind = want["kind"]
    if kind in ("exact_matrix", "float_matrix", "hamiltonian"):
        rows, meta = parse_matrix(stdout, p["format"])
        if meta and (meta.get("kind") != "matrix" or meta.get("n") != p["n"]
                     or meta.get("exact") is not (kind != "float_matrix")
                     or meta.get("topology") != p["topology"]):
            return f"matrix metadata {meta}"
        chain = (p["topology"], p["n"], p["alpha"], p["beta"])
        if kind == "exact_matrix":
            return check_exact_green(rows, *chain)
        if kind == "float_matrix":
            return check_float_green(rows, *chain)
        return check_hamiltonian(rows, *chain)
    if kind == "entry":
        value = _scalar(stdout, p["format"], want["exact"])
        return check_entry(value, Fraction(want["value"]), want["exact"])
    if kind == "det":
        value = _scalar(stdout, p["format"], True)
        return check_entry(value, Fraction(want["value"]), True)
    if kind == "decision":
        return check_decision(stdout, p["d"], p["n_plus_one"], p["witness"])
    if kind == "report":
        return check_report(stdout, p["format"], p["suite"])
    raise KeyError(f"unknown check kind {kind}")


def check_call(req: dict, reply: dict) -> str | None:
    """None when a library worker reply is the right answer to `req`."""
    want = expected(req)
    p = req["params"]
    code = reply.get("code")
    if code != want["code"]:
        return f"code {code}, expected {want['code']} ({reply.get('error')})"
    op = req["op"]
    try:
        if code == 4:
            w = reply.get("witness")
            return None if w is None else check_witness(w, p["dim"], p["size"] + 1)
        if op == "lattice_green_matrix":
            return check_lattice_probe(reply["probe"], p["dim"], p["size"],
                                       p["probe_seed"])
        if op == "lattice_green_entry":
            return check_entry(reply["value"], Fraction(want["value"]), False)
        if op == "find_vanishing_witness":
            if want["witness"]:
                w = reply["witness"]
                return "no witness found" if w is None else check_witness(
                    w, p["dim"], p["n"])
            return None if reply["witness"] is None else "witness for invertible case"
        if op == "circulant_inverse_dft":
            return check_circulant_inverse(p["column"], reply["column"])
    except (ValueError, KeyError, TypeError) as err:
        return f"malformed reply: {type(err).__name__}: {err}"
    raise KeyError(f"unknown op {op}")


# -- checker self-test --------------------------------------------------------

def _bump(token):
    """A different value for one entry: exact stays exact, floats move 1e-3."""
    if isinstance(token, float) or (isinstance(token, str) and "." in token):
        return repr(float(token) + 1e-3) if isinstance(token, str) else token + 1e-3
    value = Fraction(token) + 1
    return str(value) if isinstance(token, str) else (
        value.numerator if value.denominator == 1 else str(value))


def _corrupt_matrix(text: str, fmt: str) -> str:
    rows, _ = parse_matrix(text, fmt)
    i = len(rows) // 2
    j = (i + 1) % len(rows[i])
    if fmt == "csv":
        rows[i][j] = _bump(rows[i][j])
        return "".join(",".join(r) + "\n" for r in rows)
    doc = json.loads(text)
    doc["entries"][i][j] = _bump(doc["entries"][i][j])
    return json.dumps(doc) + "\n"


def _other_witness(ks: list[int], n: int) -> list[int]:
    for k in range(1, n):
        bad = ks[:-1] + [k]
        if not cosine_sum_vanishes(n, bad):
            return bad
    raise AssertionError("no non-vanishing variant")


def _cli_corruptions(req: dict, code: int, stdout: str):
    yield "exit code", (4 if code == 0 else 0), stdout if code == 0 else ""
    if code != 0:
        return
    kind = expected(req)["kind"]
    fmt = req["params"].get("format", "json")
    if kind in ("exact_matrix", "float_matrix", "hamiltonian"):
        yield "flipped entry", code, _corrupt_matrix(stdout, fmt)
    elif kind in ("entry", "det"):
        if fmt == "csv":
            yield "wrong value", code, _bump(stdout.strip()) + "\n"
        else:
            doc = json.loads(stdout)
            doc["value"] = _bump(doc["value"])
            yield "wrong value", code, json.dumps(doc) + "\n"
    elif kind == "decision":
        doc = json.loads(stdout)
        if doc.get("witness"):
            bad = dict(doc, witness=_other_witness(doc["witness"],
                                                   req["params"]["n_plus_one"]))
            yield "non-vanishing witness", code, json.dumps(bad) + "\n"
        yield "flipped decision", code, json.dumps(
            dict(doc, invertible=not doc["invertible"])) + "\n"
    elif kind == "report":
        if fmt == "csv":
            yield "failed check", code, stdout.replace(",pass,", ",fail,", 1)
        else:
            yield "failed check", code, stdout.replace('"passed": true', '"passed": false', 1)


def _call_corruptions(req: dict, reply: dict):
    yield "code", dict(reply, code=4 if reply["code"] == 0 else 0)
    if reply.get("witness"):
        n = req["params"]["n"] if "n" in req["params"] else req["params"]["size"] + 1
        yield "non-vanishing witness", dict(
            reply, witness=_other_witness(reply["witness"], n))
    if "probe" in reply:
        probe = list(reply["probe"])
        probe[len(probe) // 2] += 1e-3
        yield "probe entry", dict(reply, probe=probe)
    if "value" in reply:
        yield "entry", dict(reply, value=reply["value"] + 1e-3)
    if "column" in reply:
        yield "inverse entry", dict(reply, column=[_bump(reply["column"][0])]
                                    + reply["column"][1:])


def self_test(samples: list[tuple[dict, object]]) -> list[str]:
    """Corrupt one correct answer of each kind; every corruption must fail.

    `samples` holds (request, (code, stdout)) for CLI answers and
    (request, reply) for library replies.  Returns the corruptions the
    checker wrongly accepted (empty when the checker is sound).
    """
    accepted = []
    for req, sample in samples:
        if "op" in req:
            for label, bad in _call_corruptions(req, sample):
                if check_call(req, bad) is None:
                    accepted.append(f"{req['id']}: {label}")
        else:
            for label, code, text in _cli_corruptions(req, *sample):
                if check(req, code, text) is None:
                    accepted.append(f"{req['id']}: {label}")
    return accepted
