"""Command-line front end.

Subcommands: verify (certify bounds over a lambda grid), report (all
functional values of one member), search (one functional/direction),
expand (series coefficients of a catalog member), conjecture (growth
bound scan for |a_n|).

Exit codes: 0 success, 2 at least one FAIL certificate, 64 usage error
(a bad flag, or any value the library rejects with ValueError), 65
non-member input to report.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from ucv.model import (
    CATALOG_NAMES,
    CoefficientReport,
    NonMember,
    REPORT_FIELDS,
    decimal_str,
    extremal_catalog,
    f_series,
    functional_by_name,
    inverse_series,
    report_to_dict,
    validate,
)
from ucv.search import (
    BoundCertificate,
    SearchConfig,
    certificate_to_dict,
    certificates_to_csv,
    conjecture_scan,
    optimize,
    verify_bounds,
)

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
    # accepts "1/3" and decimal strings; decimals parse exactly, never
    # through binary floats
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(tok) for tok in text.split(",") if tok.strip()]


def _config(args) -> SearchConfig:
    kwargs = {}
    if args.step is not None:
        kwargs["grid_step"] = args.step
    if args.refine is not None:
        kwargs["refine_rounds"] = args.refine
    if args.dims is not None:
        kwargs["dims"] = args.dims
    return SearchConfig(**kwargs)


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step", type=_fraction, default=None, help="grid step (default 0.02)")
    p.add_argument("--refine", type=int, default=None, help="refinement rounds (default 3)")
    p.add_argument("--dims", type=int, default=None, help="searched b-coordinates (default 4)")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ucv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify", help="certify bounds over a lambda grid")
    p.add_argument("--lambda", dest="lam", type=_fraction, default=None)
    p.add_argument("--grid", type=_fraction_list, default=None, help="comma-separated lambdas")
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


# -- output rendering ------------------------------------------------------


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
    if args.grid is not None:
        grid = args.grid
    elif args.lam is not None:
        grid = [args.lam]
    else:
        raise _CliError("verify needs --lambda or --grid")
    if not grid:
        raise _CliError("empty lambda grid")
    certs = verify_bounds(grid, _config(args))
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
        keys = ["lambda", "b"] + list(REPORT_FIELDS)
        print(",".join(keys))
        row = [data["lambda"], ";".join(data["b"])] + [data[k] for k in REPORT_FIELDS]
        print(",".join(row))
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
    direct = f_series(member, args.order).coeffs[1:]
    show_inverse = args.inverse or args.name == "FLambda"
    inverse = inverse_series(member, args.order).coeffs[1:] if show_inverse else None
    if args.format == "json":
        payload = {
            "name": args.name,
            "lambda": str(args.lam),
            "order": args.order,
        }
        if not args.inverse:
            payload["f"] = [decimal_str(c) for c in direct]
        if inverse is not None:
            payload["inverse"] = [decimal_str(c) for c in inverse]
        print(json.dumps(payload, indent=2))
    else:
        if not args.inverse:
            print("f:       " + ", ".join(decimal_str(c) for c in direct))
        if inverse is not None:
            print("inverse: " + ", ".join(decimal_str(c) for c in inverse))
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
