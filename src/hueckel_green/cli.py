"""Command line front end.

Exit codes are a frozen contract so shell pipelines can branch on
singularity without parsing text:

    0  success (and: every verify check passed)
    1  at least one verify check failed
    2  usage / flag errors
    3  domain errors (bad spec, unsupported method, too large, ...)
    4  singular matrix or lattice
    5  witness search budget exhausted
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import verify
from .chains import (ChainSpec, Topology, build_hamiltonian,
                     spectral_resolvent_entry, spectral_resolvent_matrix)
from .circulant import det_cyclic
from .closed_form import GreenEntryQuery, det_open, green_entry, green_matrix
from .errors import HueckelError, SingularMatrix, UnsupportedCouplings
from .oracle import lu_inverse
from .output import (Format, decision_document, matrix_document, matrix_rows,
                     parse_rational, report_document, scalar_document)
from .tridiagonal import (TridiagonalSpec, require_invertible, usmani_entry,
                          usmani_inverse)
from .vanishing_sums import (DEFAULT_SEARCH_BUDGET, InvertibilityQuery,
                             find_vanishing_witness, invertibility_reason,
                             is_invertible)

METHODS = ("closed", "usmani", "numeric", "spectral")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hueckel",
        description="Tight-binding Hamiltonians, determinants and Green's functions")
    sub = parser.add_subparsers(dest="command", required=True)

    def chain_flags(p):
        p.add_argument("--topology", choices=["open", "cyclic"], required=True)
        p.add_argument("--n", type=int, required=True, help="number of sites")
        p.add_argument("--alpha", type=parse_rational, default=Fraction(1),
                       help="coupling on bonds 2-3, 4-5, ... (exact p/q; "
                            "write a negative one as --alpha=-3/2)")
        p.add_argument("--beta", type=parse_rational, default=Fraction(1),
                       help="coupling on bonds 1-2, 3-4, ... (exact p/q; "
                            "write a negative one as --beta=-3/2)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("build", help="emit the Hamiltonian matrix")
    chain_flags(p)

    p = sub.add_parser("green", help="Green's function matrix or entry")
    chain_flags(p)
    p.add_argument("--method", choices=METHODS, default="closed")
    p.add_argument("--r", type=int, default=None, help="row site (1-based)")
    p.add_argument("--s", type=int, default=None, help="column site (1-based)")
    p.add_argument("--transmission", action="store_true",
                   help="emit |G|^2 instead of G")

    p = sub.add_parser("det", help="exact determinant of the Hamiltonian")
    p.add_argument("--topology", choices=["open", "cyclic"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("invertible",
                       help="does the d-dimensional Green's function exist?")
    p.add_argument("--d", type=int, required=True, help="spatial dimension")
    p.add_argument("--n-plus-one", type=int, required=True, help="n = N+1")
    p.add_argument("--witness", action="store_true",
                   help="search for a vanishing cosine sum")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)

    p = sub.add_parser("verify", help="run the cross-method invariant suites")
    p.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    p.add_argument("--max-n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _chain_spec(args) -> ChainSpec:
    topology = Topology(args.topology)
    return ChainSpec(topology, args.n, coupling_odd=args.beta,
                     coupling_even=args.alpha)


def _cmd_build(args) -> int:
    spec = _chain_spec(args)
    doc = matrix_document(matrix_rows(build_hamiltonian(spec)), exact=True,
                          fmt=Format(args.format), topology=args.topology,
                          n=spec.n_sites)
    doc.write_to(sys.stdout)
    return 0


def _green_by_method(spec: ChainSpec, args):
    """Return (full matrix, exact?) or (entry value, exact?) per the method."""
    single = args.r is not None
    method = args.method
    if method == "closed":
        if single:
            return green_entry(GreenEntryQuery(spec, args.r, args.s)), True
        return green_matrix(spec), True
    if method == "usmani":
        tri = TridiagonalSpec.from_chain(spec)
        if single:
            tables = require_invertible(tri)        # singular before indices
            GreenEntryQuery(spec, args.r, args.s)   # validates the indices
            return -usmani_entry(tri, args.r, args.s, tables), True
        return -usmani_inverse(tri), True
    if method == "numeric":
        g = -lu_inverse(build_hamiltonian(spec).to_float())
        if single:
            GreenEntryQuery(spec, args.r, args.s)
            return float(g[args.r - 1, args.s - 1]), False
        return g, False
    # spectral: evaluate the eigenbasis sum at E = 0
    _raise_if_singular_uniform(spec)
    if single:
        return spectral_resolvent_entry(spec, args.r, args.s, 0.0), False
    return spectral_resolvent_matrix(spec, 0.0), False


def _raise_if_singular_uniform(spec: ChainSpec) -> None:
    if not spec.is_uniform:
        raise UnsupportedCouplings("spectral method needs unit couplings")
    if spec.topology is Topology.OPEN and spec.n_sites % 2:
        raise SingularMatrix("N odd", n=spec.n_sites)
    if spec.topology is Topology.CYCLIC and spec.n_sites % 4 == 0:
        raise SingularMatrix("N=4k", n=spec.n_sites)


def _cmd_green(args) -> int:
    if (args.r is None) != (args.s is None):
        raise HueckelError("--r and --s must be given together")
    spec = _chain_spec(args)
    fmt = Format(args.format)
    result, exact = _green_by_method(spec, args)
    if args.r is not None:
        value = result
        if args.transmission:
            value = value * value
        scalar_document(value, fmt).write_to(sys.stdout)
        return 0
    rows = matrix_rows(result)
    if args.transmission:
        rows = [[v * v for v in row] for row in rows]
    doc = matrix_document(rows, exact=exact, fmt=fmt, topology=args.topology,
                          n=spec.n_sites)
    doc.write_to(sys.stdout)
    return 0


def _cmd_det(args) -> int:
    if args.topology == "open":
        value = det_open(args.n)
    else:
        value = det_cyclic(args.n)
    scalar_document(Fraction(value), Format(args.format)).write_to(sys.stdout)
    return 0


def _cmd_invertible(args) -> int:
    query = InvertibilityQuery(args.d, args.n_plus_one)
    invertible = is_invertible(query)
    reason = invertibility_reason(query)
    if args.witness:
        witness = find_vanishing_witness(query, budget=args.budget)
        doc = decision_document(invertible, reason,
                                witness.ks if witness else None)
    else:
        doc = decision_document(invertible, reason)
    doc.write_to(sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    checks = verify.run_suite(args.suite, args.max_n, args.seed)
    report_document(checks, Format(args.format)).write_to(sys.stdout)
    return 0 if all(c["passed"] for c in checks) else 1


_DISPATCH = {
    "build": _cmd_build,
    "green": _cmd_green,
    "det": _cmd_det,
    "invertible": _cmd_invertible,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except HueckelError as err:
        if err.exit_code == 4:
            print(str(err), file=sys.stderr)
        else:
            print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
