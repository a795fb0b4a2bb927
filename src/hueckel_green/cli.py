"""Command line front end.

Exit codes are a frozen contract so shell pipelines can branch on
singularity without parsing text:

    0  success (and: every verify check passed)
    1  at least one verify check failed
    2  usage / flag errors
    3  domain errors (bad spec, unsupported method, too large, ...)
    4  singular matrix or lattice
    5  witness search budget (table entries plus walked heads) exhausted
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import verify
from .chains import (ChainSpec, Topology, build_hamiltonian, float_rows,
                     spectral_resolvent_entry, spectral_resolvent_matrix)
from .circulant import det_cyclic
from .closed_form import GreenEntryQuery, det_open, green_entry, green_matrix
from .errors import (CycleTooSmall, HueckelError, IllConditioned,
                     NumericallySingular, SingularMatrix, UnsupportedCouplings,
                     ZeroCoupling)
from .exact import guard_dense
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
    rows = matrix_rows(build_hamiltonian(_chain_spec(args)))
    matrix_document(rows, Format(args.format), args.topology).write_to(sys.stdout)
    return 0


def _green_by_method(spec: ChainSpec, args):
    """Return the full matrix or the entry value per the method."""
    single = args.r is not None
    method = args.method
    if method == "closed":
        if single:
            return green_entry(GreenEntryQuery(spec, args.r, args.s))
        return green_matrix(spec)
    if method == "usmani":
        tri = TridiagonalSpec.from_chain(spec)
        if single:
            tables = require_invertible(tri)        # singular before indices
            GreenEntryQuery(spec, args.r, args.s)   # validates the indices
            return -usmani_entry(tri, args.r, args.s, tables)
        return usmani_inverse(-tri)        # G = -H^-1 = (-H)^-1
    if method == "numeric":
        guard_dense(spec.n_sites)             # before the O(N) exact gate
        _raise_if_singular(spec)
        try:
            g = lu_inverse(float_rows(spec, sign=-1))   # G = (-H)^-1
        except NumericallySingular as err:
            raise IllConditioned(err.pivot_index) from None
        if single:
            GreenEntryQuery(spec, args.r, args.s)
            return g[args.r - 1][args.s - 1]
        return g
    # spectral: evaluate the eigenbasis sum at E = 0
    _raise_if_singular_uniform(spec)
    if single:
        return spectral_resolvent_entry(spec, args.r, args.s, 0.0)
    return spectral_resolvent_matrix(spec, 0.0)


def _raise_if_singular(spec: ChainSpec) -> None:
    """Raise SingularMatrix unless H has an inverse, decided exactly in O(N).

    An open chain is decided by theta_N: with a zero diagonal it is
    (-beta^2)^(N/2) for even N and 0 for odd N, so the chain is singular
    iff N is odd or beta = 0.  A ring is decided by the closed-form kernel.
    The kernels refuse two kinds of ring: the 2-site ring, which is the
    single edge beta, and an even ring with a zero coupling, which is a set
    of disjoint dimers.  Either is singular iff beta = 0 and (N = 2 or
    alpha = 0).
    """
    if spec.topology is Topology.OPEN:
        if spec.n_sites % 2 or spec.coupling_odd == 0:
            raise SingularMatrix("theta_N = 0", n=spec.n_sites)
        return
    try:
        green_entry(GreenEntryQuery(spec, 1, 1))
    except (CycleTooSmall, ZeroCoupling):
        if spec.coupling_odd == 0 and (spec.n_sites == 2
                                       or spec.coupling_even == 0):
            raise SingularMatrix("zero couplings", n=spec.n_sites) from None


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
    result = _green_by_method(spec, args)
    if args.r is not None:
        value = result
        if args.transmission:
            value = value * value
        scalar_document(value, fmt).write_to(sys.stdout)
        return 0
    rows = matrix_rows(result)
    if args.transmission:
        rows = [[v * v for v in row] for row in rows]
    matrix_document(rows, fmt, args.topology).write_to(sys.stdout)
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
    # An exact entry can have more digits than Python's int-to-str limit
    # (4 300 by default since 3.10.7), so the command runs without it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _DISPATCH[args.command](args)
    except HueckelError as err:
        if err.exit_code == 4:
            print(str(err), file=sys.stderr)
        else:
            print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return err.exit_code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
