#!/usr/bin/env python3
"""Certify the sharp bounds by constrained search, at desk scale.

Runs the verifier on a small lambda grid with a coarse step so the whole
thing finishes in seconds, prints the certificate table, and then zooms
in on the one row whose tabled value the search genuinely beats.
"""

from __future__ import annotations

from fractions import Fraction as F

from ucv.model import functional_by_name, validate
from ucv.search import SearchConfig, optimize, verify_bounds


def main() -> None:
    cfg = SearchConfig(grid_step=F(1, 10), refine_rounds=2)
    certs = verify_bounds([F(1, 2), F(1)], cfg)

    print(f"{'lam':>4s} {'functional':<10s} {'dir':<3s} {'searched':>12s} {'closed':>12s} {'status':<15s}")
    for c in certs:
        closed = "" if c.closed_form is None else f"{c.closed_form:.6f}"
        flag = " <-- beats the table" if c.status == "FAIL" else ""
        print(f"{str(c.lam):>4s} {c.functional:<10s} {c.direction:<3s} "
              f"{c.searched_value:>12.6f} {closed:>12s} {c.status:<15s}{flag}")

    # The H2F max row at lambda = 1: the tabled 1/4 is not the class
    # maximum.  Re-run that single row at a finer step and check the
    # winning argument really is a member.
    print()
    cert = optimize(functional_by_name("H2F"), 1, "max", SearchConfig(grid_step=F(1, 28)))
    print("H2F max at lambda=1, step 1/28:")
    print("  searched =", cert.searched_value)
    print("  argmax   =", tuple(str(x) for x in cert.argmax))
    member = validate(1, cert.argmax)  # raises if infeasible
    b1, b2, b3, _ = member.b
    print("  b1*b3 - b2^2 =", b1 * b3 - b2 * b2, "(exact), tabled value 1/4")


if __name__ == "__main__":
    main()
