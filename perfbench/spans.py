"""Per-layer tracing around the program's own calls.

While a traced run is active (`instrumented`), each public function that
`cli.py` calls, `OutputDocument.write_to`, and a few calls one layer makes
into another inside the program are swapped for a wrapper that records a
span named `<module>.<function>`.  The traced run then calls `cli.main(argv)`
itself, so the spans come from the real code path; nothing under src/
changes.  Spans are kept in memory and written out as JSON lines when the
run ends.  A span's self time is its duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import defaultdict
from pathlib import Path

import check
from worker import Untraced, run_call

# Every span the benchmark reports, in report order.
SPANS = (
    "chains.build_hamiltonian", "chains.spectral_resolvent_entry",
    "closed_form.green_matrix", "closed_form.green_entry", "closed_form.det_open",
    "tridiagonal.usmani_inverse",
    "exact.neg", "exact.to_float", "exact.to_lists",
    "exact.inverse_exact", "exact.det_fraction_free",
    "oracle.lu_inverse",
    "output.matrix_rows", "output.write",
    "circulant.det_cyclic", "circulant.circulant_inverse_dft",
    "vanishing_sums.is_invertible", "vanishing_sums.find_vanishing_witness",
    "lattice.lattice_green_matrix", "lattice.lattice_green_entry",
    "lattice.singular_request",
    "trig.direct_green_matrix",
    "verify.suite_open", "verify.suite_cyclic", "verify.suite_alternating",
    "verify.suite_lattice", "verify.suite_numbertheory", "verify.suite_trig",
)

FIELDS = ("request", "name", "start", "end", "parent", "self_s")


class Tracer:
    """Records spans in memory; spans of one request share `request`."""

    def __init__(self):
        self.request = None
        self.spans: list[tuple] = []     # one tuple of FIELDS per span
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []     # [span index, child time]

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name == "closed_form.green_matrix":
                self.work[name] += result.rows * result.cols
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[frame[0]] = (self.request, name, start, end, parent,
                                    end - start - frame[1])

    def root_seconds(self) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] is None)

    def totals(self) -> dict[str, tuple[float, int]]:
        out = {name: [0.0, 0] for name in SPANS}
        for _, name, _, _, _, self_s in self.spans:
            out[name][0] += self_s
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """One JSON object per span; `parent` is the parent span's line index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def _suite_span(suite, *args, **kwargs) -> str:
    return f"verify.suite_{suite}"


@contextlib.contextmanager
def instrumented(tr: Tracer):
    """Route the program's layer calls through `tr` while the block runs.

    A target's span name is a string, or a function of the call's
    arguments (one span name per verify suite).
    """
    from hueckel_green import cli, exact, lattice, output, trig, verify
    targets = [
        (cli, "build_hamiltonian", "chains.build_hamiltonian"),
        (cli, "spectral_resolvent_entry", "chains.spectral_resolvent_entry"),
        (cli, "green_matrix", "closed_form.green_matrix"),
        (cli, "green_entry", "closed_form.green_entry"),
        (cli, "det_open", "closed_form.det_open"),
        (cli, "usmani_inverse", "tridiagonal.usmani_inverse"),
        (cli, "lu_inverse", "oracle.lu_inverse"),
        (cli, "matrix_rows", "output.matrix_rows"),
        (cli, "det_cyclic", "circulant.det_cyclic"),
        (cli, "is_invertible", "vanishing_sums.is_invertible"),
        (cli, "find_vanishing_witness", "vanishing_sums.find_vanishing_witness"),
        (output.OutputDocument, "write_to", "output.write"),
        (exact.ExactMatrix, "to_lists", "exact.to_lists"),
        (exact.ExactMatrix, "to_float", "exact.to_float"),
        (exact.ExactMatrix, "__neg__", "exact.neg"),
        (verify, "run_suite", _suite_span),
        (verify, "inverse_exact", "exact.inverse_exact"),
        (verify, "det_fraction_free", "exact.det_fraction_free"),
        (verify, "usmani_inverse", "tridiagonal.usmani_inverse"),
        (verify, "green_matrix", "closed_form.green_matrix"),
        (verify, "lu_inverse", "oracle.lu_inverse"),
        (verify, "find_vanishing_witness", "vanishing_sums.find_vanishing_witness"),
        (verify, "lattice_green_matrix", "lattice.lattice_green_matrix"),
        (lattice, "find_vanishing_witness", "vanishing_sums.find_vanishing_witness"),
        (trig, "direct_green_matrix", "trig.direct_green_matrix"),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]

    def wrap(fn, name):
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            return tr.call(span, fn, *args, **kwargs)
        return traced

    try:
        for owner, attr, name in targets:
            setattr(owner, attr, wrap(owner.__dict__[attr], name))
        yield tr
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def cli_main(argv: list[str]) -> tuple[int, str, float]:
    """In-process `cli.main(argv)`: (exit code, stdout, seconds)."""
    from hueckel_green import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def replay_library(req: dict, tr) -> float:
    """One library call in-process, as the worker makes it; returns seconds."""
    from hueckel_green.errors import HueckelError
    singular = check.expected(req)["code"] == 4
    start = time.perf_counter()
    try:
        run_call(req["op"], req["params"], tr, singular=singular)
    except HueckelError:
        pass
    return time.perf_counter() - start


UNTRACED = Untraced()
