"""Library worker: runs public library calls sent as JSON lines on stdin.

Each reply carries the call's own wall and CPU time and the worker's peak
RSS, so those figures belong to the program and not to the checker.  What
the checker needs from a large result (a lattice Green's matrix) is
reduced here, after the timer stops, to the product with a seeded probe
vector.

Run as `PYTHONPATH=src python3 perfbench/worker.py`; the benchmark starts
it and stops it by closing stdin.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction

import check


class Untraced:
    """Tracer stand-in that only makes the call."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def run_call(op: str, p: dict, tr=Untraced(), singular: bool = False):
    """Make one library call the way a user would; returns its raw result.

    A lattice request known to be singular is traced as the span
    `lattice.singular_request` instead of under the function's own name.
    """
    from hueckel_green import (CirculantSpec, InvertibilityQuery, LatticeSpec,
                               MultiIndex, circulant, lattice, vanishing_sums)
    if op == "circulant_inverse_dft":
        spec = CirculantSpec(tuple(Fraction(c) for c in p["column"]))
        return tr.call("circulant.circulant_inverse_dft",
                       circulant.circulant_inverse_dft, spec)
    if op == "find_vanishing_witness":
        query = InvertibilityQuery(p["dim"], p["n"])
        return tr.call("vanishing_sums.find_vanishing_witness",
                       vanishing_sums.find_vanishing_witness, query)
    spec = LatticeSpec(p["dim"], p["size"])
    if op == "lattice_green_matrix":
        name = "lattice.singular_request" if singular else "lattice.lattice_green_matrix"
        return tr.call(name, lattice.lattice_green_matrix, spec)
    if op == "lattice_green_entry":
        name = "lattice.singular_request" if singular else "lattice.lattice_green_entry"
        return tr.call(name, lattice.lattice_green_entry, spec,
                       MultiIndex(tuple(p["r"])), MultiIndex(tuple(p["s"])))
    raise ValueError(f"unknown op {op}")


def reply_for(op: str, p: dict, result) -> dict:
    """The checkable part of a successful result."""
    if op == "lattice_green_matrix":
        x = check.probe_vector(p["probe_seed"], result.shape[0])
        return {"code": 0, "probe": (result @ x).tolist()}
    if op == "lattice_green_entry":
        return {"code": 0, "value": float(result)}
    if op == "find_vanishing_witness":
        return {"code": 0, "witness": list(result.ks) if result else None}
    return {"code": 0, "column": [str(v) for v in result.first_column]}


def serve(stdin, stdout) -> None:
    from hueckel_green import HueckelError
    for line in stdin:
        msg = json.loads(line)
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            result = run_call(msg["op"], msg["params"])
            error = None
        except HueckelError as err:
            result, error = None, err
        wall = time.perf_counter() - wall
        cpu = time.process_time() - cpu
        if error is None:
            reply = reply_for(msg["op"], msg["params"], result)
        else:
            witness = getattr(error, "witness", None)
            reply = {"code": error.exit_code, "error": type(error).__name__,
                     "witness": list(witness) if witness else None}
        reply.update(seconds=wall, cpu=cpu,
                     maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        del result
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
