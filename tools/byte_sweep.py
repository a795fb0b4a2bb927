"""Compare the command-line bytes of two source trees over a fixed grid.

    python tools/byte_sweep.py BASE [HEAD]

BASE and HEAD are checkouts of this repository; HEAD defaults to the one
that holds this script.  Each tree runs every request of the grid in one
worker process of its own, through `hueckel_green.cli.main` with stdout and
stderr captured.  A request that raises ends as `python -m hueckel_green`
would end it: exit 1 with a traceback on stderr.  For every request the
sweep compares the sha256 of stdout, the first line of stderr and the exit
code, prints each difference, and exits 1 if there is any, else 0.

The grid: `green --method usmani|closed|numeric` on open chains with
N = 1-40, 78-84, 290-310 and 394, couplings (beta, alpha) = (1, 1),
(2, 1/3), (-3/2, 5/7), (2/3, 0) and (0, 2/3), CSV and JSON, with and
without `--transmission`; `verify --suite open|all` at `--max-n` 2, 10 and
30; and the domain errors of sizes below one site.  Then the chains that
the float LU refuses although they are exactly invertible: `green --method
numeric` on open chains with N = 12, 20 and 40 and `--alpha=1000`, as a
matrix and as the entry `--r 1 --s 2`; `green --method closed|numeric` on
rings with N = 2-16 and (beta, alpha) = (1, 1), (2, 2), (2, -2), (0, 0)
and (2, 1/3); and `verify` of every suite and of `all` at `--max-n` -1, 0
and, where they differ from those, one below and at the smallest size at
which every check of the suite sees a case.  Then a document of every kind
in CSV and JSON: `build` and `green --method closed|usmani|numeric|spectral`
on open chains and rings with N = 1-24, 60, 147 and 150, couplings (beta,
alpha) = (1, 1), (2, -1/3) and (0, 2/3), as a matrix with and without
`--transmission` and as the `--r/--s` entries (1, N), (2, 1) with
`--transmission` and the out-of-range (N + 1, 1); `det` on both topologies
with N = 1-60; `invertible` with d = 1-4 and n = 2-30, with and without
`--witness`, with `--witness` at d = 5, 7, 9 and odd n = 3-35 and at
(d, n) = (11, 23), and searches that exhaust `--budget 1` and `--budget 3`;
and `verify` of every suite and of `all` at `--max-n` 10 with `--format
json`.  Last, the
numeric shapes of the benchmark: `green --method numeric` entries on open
chains with N = 100, 300 and 394 under the first grid's couplings, at the
corner sites (1, 1), (1, N), (N, 1) and the interior ones (N/2, N/2 + 1),
(N/3, N - 4), with and without `--transmission`; numeric ring matrices
with N = 290-310 and (beta, alpha) = (1, 1) and (2, 1/3); and the spectral
entries, on uniform open chains with N = 100, 128, 129, 130, 300, 396 and
400 and rings with N = 129, 250, 255, 257 and 398, at the sites (1, 1),
(1, N), (N/2, N/2 + 1) and (N/3, N - 4), with and without
`--transmission`; and past the N^2 memory guard, the ring N = 1025 and
the open chain N = 1026 (the open N = 1025 is singular, odd N, first).
Then the spectral matrices on both sides of the 128 sites up to which
they are summed without numpy: `green --method spectral` on uniform open
chains with N = 86-94 and 124-132 and rings with N = 31-39 and 125-131
(the ring sizes 4k exit 4), in CSV and JSON, with and without
`--transmission`.  Then the verify sizes of the benchmark: `--suite
open` at `--max-n` 29-31, `lattice` at 22-26, `trig` at 43-47 and `all`
at 50.  Last of all, exact entries longer than Python's default
int-to-str limit of 4 300 digits: `green --method closed|usmani` on open
chains with N = 10 000 and 12 000 and (beta, alpha) = (1/3, 2), the entry
`--r N --s 1` (3 * 6^(N/2 - 1)), in CSV and JSON, with and without
`--transmission`.  And the couplings with a zero denominator, which
argparse refuses with exit 2: `build` and `green --method closed` on the
open chain N = 4 with `--alpha 1/0`, `--beta=0/0` and `--alpha=-3/0`, in
CSV and JSON.

Then the library rows, calls that no command makes: `circulant_inverse_dft`
on the circulants of the benchmark's `library` workload at seeds 5-7
(`perfbench/mix.py`), on seeded random columns with N = 1-64 and entries
p/q, |p| <= 4, 1 <= q <= 5, and on the singular columns Phi_m(x) b(x) mod
x^N - 1 for every m | N, N = 1-24, b seeded, and last on two seeded
random columns each with N = 128 and 256, entries as above.  At those
sizes a reconstruction tried after every lifting step would succeed two
to four steps before the count that the Hadamard bound fixes, where the
inverse is reconstructed once; the rows show that both give the same
rationals.  A library row compares the sha256 of the entries' `str`,
or the error's type, message, `index` and exit code.

For a `verify` request that differs, the sweep also lists the report rows
(check ids, and `all`) whose text differs, and says whether only their
residual digits moved: the same ids, verdicts, exit code and stderr.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

SIZES = (*range(1, 41), *range(78, 85), *range(290, 311), 394)
COUPLINGS = (("1", "1"), ("2", "1/3"), ("-3/2", "5/7"), ("2/3", "0"),
             ("0", "2/3"))
DOMAIN_ERRORS = (
    "det --topology open --n 0",
    "det --topology open --n -4",
    "det --topology cyclic --n 0",
    "invertible --d 3 --n-plus-one 1",
    "invertible --d 0 --n-plus-one 5",
    "invertible --d 0 --n-plus-one 5 --witness",
    "green --topology open --n 0",
    "green --topology cyclic --n -2 --method usmani",
    "green --topology open --n 0 --r 1 --s 1",
    "build --topology open --n 0",
    "build --topology cyclic --n -1 --format json",
)

ILL_CONDITIONED_SIZES = (12, 20, 40)
RING_COUPLINGS = (("1", "1"), ("2", "2"), ("2", "-2"), ("0", "0"),
                  ("2", "1/3"))
SMALLEST_MAX_N = {"open": 2, "cyclic": 4, "alternating": 6, "lattice": 2,
                  "numbertheory": 9, "trig": 2, "all": 9}

DOCUMENT_SIZES = (*range(1, 25), 60, 147, 150)
NUMERIC_ENTRY_SIZES = (100, 300, 394)
NUMERIC_RING_SIZES = range(290, 311)
SPECTRAL_ENTRY_SIZES = {"open": (100, 128, 129, 130, 300, 396, 400, 1025,
                                 1026),
                        "cyclic": (129, 250, 255, 257, 398, 1025)}
DOCUMENT_COUPLINGS = (("1", "1"), ("2", "-1/3"), ("0", "2/3"))
SPECTRAL_MATRIX_SIZES = {"open": (*range(86, 95), *range(124, 133)),
                         "cyclic": (*range(31, 40), *range(125, 132))}
BENCHMARK_VERIFY_SIZES = {"open": range(29, 32), "lattice": range(22, 27),
                          "trig": range(43, 48), "all": (50,)}
LONG_ENTRY_SIZES = (10_000, 12_000)
ZERO_DENOMINATORS = (("--alpha", "1/0"), ("--beta=0/0",), ("--alpha=-3/0",))
LARGE_CIRCULANT_SIZES = (128, 128, 256, 256)


def grid() -> list[list[str]]:
    requests = []
    for method in ("usmani", "closed", "numeric"):
        for n in SIZES:
            for beta, alpha in COUPLINGS:
                for fmt in ("csv", "json"):
                    for extra in ((), ("--transmission",)):
                        requests.append([
                            "green", "--topology", "open", "--n", str(n),
                            f"--beta={beta}", f"--alpha={alpha}",
                            "--method", method, "--format", fmt, *extra])
    for suite in ("open", "all"):
        for max_n in (2, 10, 30):
            requests.append(["verify", "--suite", suite, "--max-n", str(max_n)])
    requests.extend(line.split() for line in DOMAIN_ERRORS)
    for n in ILL_CONDITIONED_SIZES:
        chain = ["green", "--topology", "open", "--n", str(n), "--alpha=1000",
                 "--method", "numeric"]
        requests.extend([chain, chain + ["--r", "1", "--s", "2"]])
    for method in ("closed", "numeric"):
        for n in range(2, 17):
            for beta, alpha in RING_COUPLINGS:
                requests.append([
                    "green", "--topology", "cyclic", "--n", str(n),
                    f"--beta={beta}", f"--alpha={alpha}", "--method", method])
    for suite, smallest in SMALLEST_MAX_N.items():
        for max_n in sorted({-1, 0, smallest - 1, smallest}):
            requests.append(["verify", "--suite", suite, "--max-n", str(max_n)])
    for topology in ("open", "cyclic"):
        for n in DOCUMENT_SIZES:
            for beta, alpha in DOCUMENT_COUPLINGS:
                for fmt in ("csv", "json"):
                    chain = ["--topology", topology, "--n", str(n),
                             f"--beta={beta}", f"--alpha={alpha}",
                             "--format", fmt]
                    requests.append(["build", *chain])
                    for method in ("closed", "usmani", "numeric", "spectral"):
                        green = ["green", *chain, "--method", method]
                        requests.extend([
                            green, green + ["--transmission"],
                            green + ["--r", "1", "--s", str(n)],
                            green + ["--r", "2", "--s", "1", "--transmission"],
                            green + ["--r", str(n + 1), "--s", "1"]])
    for topology in ("open", "cyclic"):
        for n in range(1, 61):
            for fmt in ("csv", "json"):
                requests.append(["det", "--topology", topology, "--n", str(n),
                                 "--format", fmt])
    for d in range(1, 5):
        for n_plus_one in range(2, 31):
            query = ["invertible", "--d", str(d), "--n-plus-one", str(n_plus_one)]
            requests.extend([query, query + ["--witness"]])
    for d in (5, 7, 9):
        for n_plus_one in range(3, 36, 2):
            requests.append(["invertible", "--d", str(d), "--n-plus-one",
                             str(n_plus_one), "--witness"])
    requests.append("invertible --d 11 --n-plus-one 23 --witness".split())
    for budget in ("1", "3"):
        requests.append(["invertible", "--d", "3", "--n-plus-one", "9",
                         "--witness", "--budget", budget])
    for suite in SMALLEST_MAX_N:
        requests.append(["verify", "--suite", suite, "--max-n", "10",
                         "--format", "json"])
    for n in NUMERIC_ENTRY_SIZES:
        sites = ((1, 1), (1, n), (n, 1), (n // 2, n // 2 + 1), (n // 3, n - 4))
        for beta, alpha in COUPLINGS:
            for r, s in sites:
                entry = ["green", "--topology", "open", "--n", str(n),
                         f"--beta={beta}", f"--alpha={alpha}", "--method",
                         "numeric", "--r", str(r), "--s", str(s)]
                requests.extend([entry, entry + ["--transmission"]])
    for n in NUMERIC_RING_SIZES:
        for beta, alpha in (("1", "1"), ("2", "1/3")):
            requests.append(["green", "--topology", "cyclic", "--n", str(n),
                             f"--beta={beta}", f"--alpha={alpha}",
                             "--method", "numeric"])
    for topology, sizes in SPECTRAL_ENTRY_SIZES.items():
        for n in sizes:
            for r, s in ((1, 1), (1, n), (n // 2, n // 2 + 1), (n // 3, n - 4)):
                entry = ["green", "--topology", topology, "--n", str(n),
                         "--method", "spectral", "--r", str(r), "--s", str(s)]
                requests.extend([entry, entry + ["--transmission"]])
    for topology, sizes in SPECTRAL_MATRIX_SIZES.items():
        for n in sizes:
            for fmt in ("csv", "json"):
                matrix = ["green", "--topology", topology, "--n", str(n),
                          "--method", "spectral", "--format", fmt]
                requests.extend([matrix, matrix + ["--transmission"]])
    for suite, sizes in BENCHMARK_VERIFY_SIZES.items():
        for max_n in sizes:
            requests.append(["verify", "--suite", suite, "--max-n", str(max_n)])
    for n in LONG_ENTRY_SIZES:
        for method in ("closed", "usmani"):
            for fmt in ("csv", "json"):
                entry = ["green", "--topology", "open", "--n", str(n),
                         "--beta=1/3", "--alpha=2", "--method", method,
                         "--r", str(n), "--s", "1", "--format", fmt]
                requests.extend([entry, entry + ["--transmission"]])
    for coupling in ZERO_DENOMINATORS:
        for fmt in ("csv", "json"):
            chain = ["--topology", "open", "--n", "4", *coupling,
                     "--format", fmt]
            requests.extend([["build", *chain],
                             ["green", *chain, "--method", "closed"]])
    return requests + [[CIRCULANT, *map(str, column)]
                       for column in circulant_columns()]


CIRCULANT = "circulant_inverse_dft"


def circulant_columns() -> list[list[Fraction]]:
    """The first columns of the library rows."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import mix

    columns = [list(map(Fraction, request["params"]["column"]))
               for seed in (5, 6, 7) for block in mix.build("library", seed)
               for request in block if request["op"] == CIRCULANT]
    rng = random.Random(64)

    def entries(n: int) -> list[Fraction]:
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                for _ in range(n)]

    columns.extend(entries(n) for n in range(1, 65))
    for n in range(1, 25):
        for m in range(1, n + 1):
            if n % m == 0:
                b = entries(rng.randint(1, n))
                column = [Fraction(0)] * n
                for i, c in enumerate(cyclotomic(m)):
                    for j, y in enumerate(b):
                        column[(i + j) % n] += c * y
                columns.append(column)
    columns.extend(entries(n) for n in LARGE_CIRCULANT_SIZES)
    return columns


def cyclotomic(m: int) -> list[int]:
    """Phi_m, constant term first: x^m - 1 divided by Phi_d for every proper
    divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic(d)
            quotient = [0] * (len(num) - len(den) + 1)
            for i in range(len(quotient) - 1, -1, -1):
                quotient[i] = num[i + len(den) - 1]       # den is monic
                for j, c in enumerate(den):
                    num[i + j] -= quotient[i] * c
            num = quotient
    return num


def run_one(main, argv: list[str]) -> list:
    """[sha256 of stdout, first stderr line, exit code] of one request, and
    for `verify` its stdout too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:                   # uncaught, as the interpreter ends
            traceback.print_exc()
            code = 1
    first = err.getvalue().split("\n", 1)[0]
    text = out.getvalue()
    result = [hashlib.sha256(text.encode()).hexdigest(), first, code]
    return result + [text] if argv[0] == "verify" else result


def run_circulant(column: list[str]) -> list:
    """[sha256 of the inverse's entries, error line, exit code] of one
    library row."""
    from hueckel_green import CirculantSpec, HueckelError, circulant_inverse_dft

    try:
        inverse = circulant_inverse_dft(CirculantSpec(tuple(map(Fraction, column))))
    except HueckelError as err:
        return ["", f"{type(err).__name__}: {err} index="
                f"{getattr(err, 'index', None)}", err.exit_code]
    text = " ".join(map(str, inverse.first_column))
    return [hashlib.sha256(text.encode()).hexdigest(), "", 0]


def report_rows(text: str) -> list[tuple[str, str, str]]:
    """(id, verdict, residual) of each row of a verify report, CSV or JSON,
    the overall verdict last as the row `all`; numbers kept as printed."""
    if not text.startswith("{"):
        return [tuple(line.split(",")) for line in text.splitlines()]
    doc = json.loads(text, parse_float=str)
    rows = [(c["id"], str(c["passed"]), c["residual"]) for c in doc["checks"]]
    return rows + [("all", str(doc["passed"]), "")]


def report_difference(base: list, head: list) -> str:
    """Which rows of two verify reports differ, and whether only residual
    digits moved."""
    b, h = report_rows(base[3]), report_rows(head[3])
    moved = [x[0] for x, y in zip(b, h) if x != y]
    same_verdicts = [x[:2] for x in b] == [y[:2] for y in h]
    only_digits = same_verdicts and base[1:3] == head[1:3]
    rows = ", ".join(moved) if len(b) == len(h) else "row count"
    return (f"  rows {rows}: "
            + ("residual digits only" if only_digits else "not only digits"))


def worker(src: str) -> None:
    sys.path.insert(0, src)
    from hueckel_green.cli import main

    for argv in grid():
        result = (run_circulant(argv[1:]) if argv[0] == CIRCULANT
                  else run_one(main, argv))
        print(json.dumps(result), flush=True)


def sweep(tree: Path) -> list[list]:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree / "src")],
        capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, nargs="?")
    parser.add_argument("head", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0
    if args.base is None:
        parser.error("the base tree is required")
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        base, head = pool.map(sweep, (args.base, args.head))
    requests = grid()
    if not len(base) == len(head) == len(requests):
        print(f"incomplete sweep: {len(base)} base and {len(head)} head "
              f"results for {len(requests)} requests")
        return 1
    differences = 0
    for argv, b, h in zip(requests, base, head):
        if b != h:
            differences += 1
            print(f"DIFF {' '.join(argv)}\n  base {b[:3]}\n  head {h[:3]}")
            if argv[0] == "verify":
                print(report_difference(b, h))
    codes = collections.Counter(h[2] for h in head)
    print(f"{len(requests)} requests, {differences} differences; head exit "
          f"codes {dict(sorted(codes.items()))}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
