"""Command-line front end.

Subcommands: verify (certify bounds over a lambda grid), report (all
functional values of one member), search (one functional/direction),
expand (series coefficients of a catalog member), conjecture (growth
bound scan for |a_n|).

Exit codes: 0 success, 2 at least one FAIL certificate, 64 usage error
(a bad flag, or any value the library rejects with ValueError), 65
non-member input to report.

This module holds argparse and every output shape: the library returns
values (BoundCertificate, CoefficientReport), and only this module turns
them into table, JSON and CSV text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Sequence

from ucv.model import (
    CATALOG_NAMES,
    CoefficientReport,
    NonMember,
    extremal_catalog,
    f_series,
    functional_by_name,
    inverse_series,
    validate,
)
from ucv.rootcheck import as_rational
from ucv.search import BoundCertificate, SearchConfig, conjecture_scan, optimize, verify_bounds

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_USAGE = 64
EXIT_NONMEMBER = 65


class _CliError(Exception):
    """A usage error the library cannot see (exit 64)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here reserves 2 for
    # bound FAILs, so usage problems are rerouted
    def error(self, message):
        raise _CliError(message)


def _fraction(text: str) -> Fraction:
    # "1/3" and decimal strings, exact, by the package's one input rule
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(tok) for tok in text.split(",")]  # an empty entry is an error


def _config(args) -> SearchConfig:
    return SearchConfig(args.dims, args.step, args.refine)


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step", type=_fraction, default=SearchConfig.grid_step,
                   help="grid step (default %(default)s)")
    p.add_argument("--refine", type=int, default=SearchConfig.refine_rounds,
                   help="0 prints the lattice sweep's point; any N >= 1 runs the one exact vertex + edge pass, "
                        "and the output does not depend on N (default %(default)s)")
    p.add_argument("--dims", type=int, default=SearchConfig.dims,
                   help="searched b-coordinates (default %(default)s)")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")


@functools.cache  # once per process: parsing leaves no state on the parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="ucv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify", help="certify bounds over a lambda grid")
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--lambda", dest="lam", type=_fraction)
    grid.add_argument("--grid", type=_fraction_list, help="comma-separated lambdas")
    _add_search_flags(p)
    _add_format_flag(p)

    p = sub.add_parser("report", help="all functional values of one member")
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    p.add_argument("--b", type=_fraction_list, required=True, help="comma-separated coefficients")
    _add_format_flag(p)

    p = sub.add_parser("search", help="extremize one functional")
    p.add_argument("--functional", required=True)
    p.add_argument("--direction", choices=("max", "min"), required=True)
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    _add_search_flags(p)
    _add_format_flag(p)

    p = sub.add_parser("expand", help="series coefficients of a catalog member")
    p.add_argument("--name", required=True)
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--inverse", action="store_true", help="expand the compositional inverse")
    p.add_argument("--format", choices=("json", "table"), default="table")  # no CSV rendering

    p = sub.add_parser("conjecture", help="scan the coefficient growth bound for |a_n|")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    _add_search_flags(p)
    _add_format_flag(p)

    return parser


# -- output shapes ---------------------------------------------------------

REPORT_FIELDS = (
    "a2", "a3", "a4", "a5",
    "A2", "A3", "A4",
    "gamma1", "gamma2", "gamma3",
    "h2f", "h3f", "h2inv", "h3inv",
    "z23", "z24",
)
CSV_HEADER = "lambda,functional,direction,searched,closed_form,gap,status,argmax"


def decimal_str(q: Fraction) -> str:
    """Shortest exact decimal when the denominator is 2^a 5^b, else p/q."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    two = five = 0
    d = den
    while d % 2 == 0:
        d //= 2
        two += 1
    while d % 5 == 0:
        d //= 5
        five += 1
    if d != 1:
        return str(q)
    shift = max(two, five)
    scaled = abs(num) * 2 ** (shift - two) * 5 ** (shift - five)
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def certificate_to_dict(cert: BoundCertificate) -> dict:
    return {
        "lambda": float(cert.lam),
        "functional": cert.functional,
        "direction": cert.direction,
        "searched": cert.searched_value,
        "closed_form": cert.closed_form,
        "gap": cert.gap,
        "status": cert.status,
        "warn": cert.warn,
        "argmax": [decimal_str(x) for x in cert.argmax],
    }


def certificates_to_csv(certs: Sequence[BoundCertificate]) -> str:
    lines = [CSV_HEADER]
    for c in certs:
        closed, gap = ("" if x is None else repr(x) for x in (c.closed_form, c.gap))
        lines.append(",".join((decimal_str(c.lam), c.functional, c.direction, repr(c.searched_value),
                               closed, gap, c.status, ";".join(map(decimal_str, c.argmax)))))
    return "\n".join(lines) + "\n"


def report_to_dict(report: CoefficientReport) -> dict:
    """Stable JSON shape; every rational renders as a p/q string."""
    return {"lambda": str(report.lam), "b": [str(x) for x in report.b],
            **{field: str(report.value(field)) for field in REPORT_FIELDS}}


def _print_certificates(certs: list[BoundCertificate], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([certificate_to_dict(c) for c in certs], indent=2))
    elif fmt == "csv":
        sys.stdout.write(certificates_to_csv(certs))
    else:
        header = f"{'lambda':>8}  {'functional':<10} {'dir':<3} {'searched':>18} {'closed_form':>18} {'gap':>12} {'status':<14} warn"
        print(header)
        for c in certs:
            closed = "" if c.closed_form is None else f"{c.closed_form:.12g}"
            gap = "" if c.gap is None else f"{c.gap:.3g}"
            warn = "WARN" if c.warn else ""
            print(
                f"{decimal_str(c.lam):>8}  {c.functional:<10} {c.direction:<3} "
                f"{c.searched_value:>18.12g} {closed:>18} {gap:>12} {c.status:<14} {warn}"
            )


def _exit_for(certs: list[BoundCertificate]) -> int:
    return EXIT_FAIL if any(c.status == "FAIL" for c in certs) else EXIT_OK


def _run_verify(args) -> int:
    certs = verify_bounds(args.grid or [args.lam], _config(args))
    _print_certificates(certs, args.format)
    return _exit_for(certs)


def _run_report(args) -> int:
    try:
        member = validate(args.lam, args.b)
    except NonMember as exc:
        print(f"non-member: {exc}", file=sys.stderr)
        return EXIT_NONMEMBER
    report = CoefficientReport.from_member(member)
    if args.format == "json":
        print(json.dumps(report_to_dict(report), indent=2))
    elif args.format == "csv":
        data = report_to_dict(report)
        data["b"] = ";".join(data["b"])
        print(",".join(data))
        print(",".join(data.values()))
    else:
        print(f"lambda = {report.lam}")
        print(f"b      = ({', '.join(decimal_str(x) for x in report.b)})")
        for field in REPORT_FIELDS:
            q = report.value(field)
            print(f"{field:<6} = {str(q):>10}   ({decimal_str(q)})")
    return EXIT_OK


def _run_search(args) -> int:
    try:
        fn = functional_by_name(args.functional)
    except KeyError:
        raise _CliError(f"unknown functional: {args.functional}")
    cert = optimize(fn, args.lam, args.direction, _config(args))
    _print_certificates([cert], args.format)
    return _exit_for([cert])


def _run_expand(args) -> int:
    if args.name not in CATALOG_NAMES:
        raise _CliError(f"unknown extremal name: {args.name}")
    member = extremal_catalog(args.name, args.lam)
    series = {}
    if not args.inverse:
        series["f"] = f_series(member, args.order)
    if args.inverse or args.name == "FLambda":
        series["inverse"] = inverse_series(member, args.order)
    shown = {key: [decimal_str(c) for c in s.coeffs[1:]] for key, s in series.items()}
    if args.format == "json":
        print(json.dumps({"name": args.name, "lambda": str(args.lam), "order": args.order, **shown}, indent=2))
    else:
        for key, values in shown.items():
            print(f"{key + ':':<9}" + ", ".join(values))
    return EXIT_OK


def _run_conjecture(args) -> int:
    cert = conjecture_scan(args.n, args.lam, _config(args))
    _print_certificates([cert], args.format)
    return _exit_for([cert])


_RUNNERS = {
    "verify": _run_verify,
    "report": _run_report,
    "search": _run_search,
    "expand": _run_expand,
    "conjecture": _run_conjecture,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _RUNNERS[args.command](args)
    except (_CliError, ValueError) as exc:  # NonMember outside report is a usage error
        print(f"ucv: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
