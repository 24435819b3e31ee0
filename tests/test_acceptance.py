"""Acceptance gate: seven criteria, one test and one printed PASS/FAIL
line each.

Criteria 2 and 3 are left honestly red.  Two of the tabled sharp values
are refuted by explicit members of the class, found by the search and
re-validated exactly:

  * H2F max: the tabled (1 - lam/2)(lam/2) is not the class maximum for
    lam > 1/2; b = ((11-lam)/14, (2 lam - 1)/7, (5 lam + 1)/14) is a
    member whose b1 b3 - b2^2 equals (1 + 10 lam - 3 lam^2)/28, which is
    larger (2/7 > 1/4 at lam = 1).
  * a5 min at lam = 1: -9/4 is valid but unattained; the class minimum
    is -5/4, reached at b = (sqrt(3/2), 1, 0, 0).
  * H3INV max: lam^3 is not the maximum for lam < 1/9; with
    9 t^2 - 2 t + lam = 0 and t = (1 - sqrt(1 - 9 lam))/9, the member
    (0, t, 0, (lam - t)/3) attains t(lam - t)/3 + t^3 > lam^3.

The affected rows are asserted as stated and fail with messages naming
the refuting member; everything else in those criteria passes.  See
README.md for the mathematics.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracles import hankel2_from, hankel3_from, inside_unit_count, random_member, u_residual
from ucv.cli import CSV_HEADER
from ucv.model import (
    CATALOG_NAMES,
    CoefficientReport,
    extremal_catalog,
    f_series,
    inverse_series,
    log_inverse_halved,
)
from ucv.rootcheck import nonvanishing_in_open_disk
from ucv.search import conjecture_scan, verify_bounds

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"


def _line(n: int, ok: bool, detail: str = "") -> str:
    text = f"ACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        text += f" ({detail})"
    print(text)
    return text


def _rows(certs):
    return {(c.functional, c.direction): c for c in certs}


def _fields(report, *names):
    return tuple(report.value(name) for name in names)


# -- criterion 1: exact identity suite ---------------------------------------


def test_criterion_1_exact_identities():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    for _ in range(10_000):
        m = random_member(rng)
        rep = CoefficientReport.from_member(m)
        fs = f_series(m, 5).coeffs[1:]
        assert _fields(rep, "a2", "a3", "a4", "a5") == tuple(fs[1:])
        inv = inverse_series(m, 5).coeffs[1:]
        assert _fields(rep, "A2", "A3", "A4") == tuple(inv[1:4])
        assert _fields(rep, "gamma1", "gamma2", "gamma3") == log_inverse_halved(m, 3)
        h2f, h3f, h2inv, h3inv = _fields(rep, "h2f", "h3f", "h2inv", "h3inv")
        assert h2f == hankel2_from(fs)
        assert h3f == hankel3_from(fs)
        assert h2inv == hankel2_from(inv)
        assert h3inv == hankel3_from(inv)
        assert h3inv == h3f - (fs[2] - fs[1] ** 2) ** 3
        a2, a3, a4, a5 = _fields(rep, "a2", "a3", "a4", "a5")
        assert _fields(rep, "z23", "z24") == (a2 * a3 - a4, a2 * a4 - a5)
        res = u_residual(m, 5).coeffs
        padded = m.b + (F(0), F(0))
        assert all(res[n] == -(n - 1) * padded[n - 1] for n in range(1, 6))
    elapsed = time.perf_counter() - t0
    line = _line(1, elapsed < 60, f"10000 members, {elapsed:.1f}s")
    assert elapsed < 60, line


# -- criteria 2 and 3: bound certification -----------------------------------

# (functional, direction) -> closed form as a function of lambda; the
# rows certified sharp at every lambda in (0, 1]
GENERAL_SHARP = {
    ("A2", "max"): lambda l: 1 + l,
    ("A2", "min"): lambda l: F(0),
    ("A3", "max"): lambda l: 1 + 3 * l + l * l,
    ("A3", "min"): lambda l: F(0),
    ("A4", "max"): lambda l: (1 + l) * (1 + 5 * l + l * l),
    ("A4", "min"): lambda l: F(0),
    ("G1", "max"): lambda l: (1 + l) / 2,
    ("G1", "min"): lambda l: F(0),
    ("G2", "max"): lambda l: (1 + 4 * l + l * l) / 4,
    ("G2", "min"): lambda l: F(0),
    ("G3", "max"): lambda l: (1 + l) * (1 + 8 * l + l * l) / 6,
    ("G3", "min"): lambda l: F(0),
    ("H2F", "max"): lambda l: (1 - l / 2) * (l / 2),
    ("H2F", "min"): lambda l: -(l * l),
    ("H3F", "max"): lambda l: l * l / 12,
    ("H3F", "min"): lambda l: -(l * l) / 4,
    ("H2INV", "max"): lambda l: l * (1 + l + l * l),
    ("H2INV", "min"): lambda l: -(l * l),
    ("H3INV", "max"): lambda l: l**3,
    ("H3INV", "min"): lambda l: -(l * l) / 4,
    ("Z23", "max"): lambda l: l / 2,
    ("Z23", "min"): lambda l: -(1 + l) * l,
    ("Z24", "max"): lambda l: l + l * l + l**3,
    ("A2C", "max"): lambda l: F(0),
    ("A2C", "min"): lambda l: -(1 + l),
    ("A3C", "max"): lambda l: 1 + l + l * l,
    ("A3C", "min"): lambda l: -l,
    ("A4C", "min"): lambda l: -(1 + l + l * l + l**3),
}

# rows whose closed form exists only at lambda = 1
LAMBDA_ONE_ONLY = {
    ("A4C", "max"): 4 * math.sqrt(6) / 9,
    ("A5C", "max"): 5.0,
    ("A5C", "min"): -2.25,
}

NO_CLOSED_FORM_ROWS = {("Z24", "min")}


def _check_certified_rows(lam, rows, failures):
    for key, formula in GENERAL_SHARP.items():
        cert = rows[key]
        closed = float(formula(lam))
        if cert.closed_form != closed:
            failures.append(f"{key} at lambda={lam}: tabled {cert.closed_form} != {closed}")
            continue
        if cert.status == "FAIL":
            failures.append(
                f"{key[0]} {key[1]} at lambda={lam}: searched {cert.searched_value:.9f} "
                f"beats the tabled {closed:.9f} at member b={tuple(map(str, cert.argmax))}"
            )
        elif abs(cert.gap) > 5e-3:
            failures.append(
                f"{key[0]} {key[1]} at lambda={lam}: sharpness not reproduced, "
                f"gap {cert.gap:.6f} (searched {cert.searched_value:.9f} vs {closed:.9f})"
            )
    for key in NO_CLOSED_FORM_ROWS:
        if rows[key].status != "NO_CLOSED_FORM":
            failures.append(f"{key} at lambda={lam}: expected NO_CLOSED_FORM")
    # |Z24| never exceeds the max-side closed form in either direction
    z24_cap = float(lam + lam * lam + lam**3)
    for direction in ("max", "min"):
        v = rows[("Z24", direction)].searched_value
        if abs(v) > z24_cap + 1e-7:
            failures.append(f"Z24 {direction} at lambda={lam}: |{v}| exceeds {z24_cap}")


def test_criterion_2_bounds_at_lambda_one():
    t0 = time.perf_counter()
    certs = verify_bounds([1])
    elapsed = time.perf_counter() - t0
    rows = _rows(certs)
    failures: list[str] = []
    _check_certified_rows(F(1), rows, failures)
    for key, closed in LAMBDA_ONE_ONLY.items():
        cert = rows[key]
        if cert.closed_form != closed:
            failures.append(f"{key}: tabled {cert.closed_form} != {closed}")
        elif cert.status == "FAIL":
            failures.append(f"{key}: searched {cert.searched_value} beats {closed}")
        elif abs(cert.gap) > 5e-3:
            failures.append(
                f"{key[0]} {key[1]}: sharpness not reproduced, gap {cert.gap:.6f} "
                f"(searched {cert.searched_value:.9f}, bound {closed:.9f})"
            )
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    line = _line(2, not failures, f"{elapsed:.1f}s; " + ("; ".join(failures) or "all rows"))
    assert not failures, line


def test_criterion_3_bounds_across_lambda():
    grid = [F(1, 10), F(1, 4), F(1, 2), F(3, 4)]
    certs = verify_bounds(grid)
    failures: list[str] = []
    for lam in grid:
        rows = _rows([c for c in certs if c.lam == lam])
        _check_certified_rows(lam, rows, failures)
        # no general-lambda closed form away from lambda = 1 for these
        for key in LAMBDA_ONE_ONLY:
            if rows[key].status != "NO_CLOSED_FORM":
                failures.append(f"{key} at lambda={lam}: expected NO_CLOSED_FORM")
    line = _line(3, not failures, "; ".join(failures) or "all rows, 4 lambdas")
    assert not failures, line


# -- criterion 4: exact attainment by the catalog ----------------------------


def test_criterion_4_catalog_attainment():
    failures: list[str] = []
    for lam in (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(1)):
        rep = {name: CoefficientReport.from_member(extremal_catalog(name, lam))
               for name in CATALOG_NAMES}
        want = [
            ("FLambda", "A2", 1 + lam),
            ("FLambda", "A3", 1 + 3 * lam + lam * lam),
            ("FLambda", "A4", (1 + lam) * (1 + 5 * lam + lam * lam)),
            ("FLambda", "gamma1", (1 + lam) / 2),
            ("FLambda", "gamma2", (1 + 4 * lam + lam * lam) / 4),
            ("FLambda", "gamma3", (1 + lam) * (1 + 8 * lam + lam * lam) / 6),
            ("FLambda", "h2inv", lam * (1 + lam + lam * lam)),
            ("FLambda", "h3inv", lam**3),
            ("FLambda", "z24", lam + lam * lam + lam**3),
            ("FLambda", "z23", -(1 + lam) * lam),
            ("FLambda", "a2", -(1 + lam)),
            ("FLambda", "a3", 1 + lam + lam * lam),
            ("FLambda", "a4", -(1 + lam + lam * lam + lam**3)),
            ("Bz2", "h2f", -(lam * lam)),
            ("Bz2", "h2inv", -(lam * lam)),
            ("Bz2", "a3", -lam),
            ("HalfZ3", "z23", lam / 2),
            ("HalfZ3", "h3f", -(lam * lam) / 4),
            ("HalfZ3", "h3inv", -(lam * lam) / 4),
            ("H3LowerMix", "h3f", lam * lam / 12),
            ("H2UpperMix", "h2f", (1 - lam / 2) * (lam / 2)),
            ("Bz2", "h3inv", lam**3),
            ("Bz4over3", "A2", F(0)),
            ("Bz4over3", "A4", F(0)),
            ("Bz4over3", "gamma3", F(0)),
            ("Bz4over3", "a2", F(0)),
        ]
        if lam == 1:
            want.append(("FLambda", "a5", F(5)))
        for name, field, value in want:
            got = rep[name].value(field)
            if got != value:  # exact rational equality, no tolerance
                failures.append(f"{name}.{field} at lambda={lam}: {got} != {value}")
    line = _line(4, not failures, "; ".join(failures) or "exact at 5 lambdas")
    assert not failures, line


# -- criterion 5: conjecture scan ---------------------------------------------


def test_criterion_5_conjecture_scan():
    t0 = time.perf_counter()
    failures: list[str] = []
    for n in range(2, 7):
        for lam in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            cert = conjecture_scan(n, lam)
            if cert.status == "FAIL":
                failures.append(
                    f"counterexample candidate n={n} lambda={lam}: "
                    f"{cert.searched_value} > {cert.closed_form}"
                )
            elif n <= 4 and cert.gap > 1e-2:
                failures.append(f"n={n} lambda={lam}: gap {cert.gap:.4f} > 1e-2")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.0f}s >= 600s")
    line = _line(5, not failures, f"n=2..6 x 4 lambdas, {elapsed:.1f}s")
    assert not failures, line


# -- criterion 6: root gate vs exact zero count -------------------------------


def test_criterion_6_root_gate_oracle():
    rng = random.Random(6)
    failures: list[str] = []
    checked = 0
    while checked < 1000:
        deg = rng.randrange(1, 7)
        tail = [F(rng.randrange(-16, 17), rng.randrange(1, 9)) for _ in range(deg)]
        coeffs = [F(1)] + tail
        desc = [float(c) for c in reversed(coeffs)]
        while len(desc) > 1 and desc[0] == 0.0:
            desc.pop(0)
        if len(desc) == 1:
            continue
        moduli = np.abs(np.roots(desc))
        if np.any(np.abs(moduli - 1.0) <= 1e-6):
            continue  # the count oracle needs a circle-free polynomial
        checked += 1
        want = inside_unit_count(coeffs) == 0
        got = nonvanishing_in_open_disk(coeffs)
        if got != want:
            failures.append(f"disagreement on {coeffs}: gate={got} oracle={want}")
    for coeffs in ([1, 2, 1],) + tuple(
        [1, 1 + lam, lam] for lam in (F(1, 4), F(1, 2), F(1))
    ):
        if not nonvanishing_in_open_disk(coeffs):
            failures.append(f"boundary polynomial rejected: {coeffs}")
    line = _line(6, not failures, "; ".join(failures) or "1000 random + boundary cases")
    assert not failures, line


# -- criterion 7: worker-count determinism ------------------------------------


def test_criterion_7_csv_determinism():
    # verify runs in one process and no longer reads UCV_THREADS; the two
    # runs check that its CSV does not depend on that variable
    cmd = [sys.executable, "-m", "ucv.cli", "verify", "--grid", "0.25,1.0", "--format", "csv"]
    # the subprocesses must import this checkout's ucv whether or not it is
    # installed; otherwise both fail alike and compare equal
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    outs = []
    codes = []
    for workers in ("1", "8"):
        env = {**os.environ, "UCV_THREADS": workers, "PYTHONPATH": pythonpath}
        proc = subprocess.run(cmd, capture_output=True, env=env)
        outs.append(proc.stdout)
        codes.append(proc.returncode)
    # exit code 2 is expected here: the lambda=1 grid contains the H2F row
    # whose tabled value the search legitimately beats; 2 lambdas x 16
    # functionals x 2 directions rows under the header
    lines = outs[0].decode().splitlines()
    ran = codes == [2, 2] and len(lines) == 65 and lines[0] == CSV_HEADER
    same = outs[0] == outs[1]
    line = _line(7, ran and same, f"{len(outs[0])} bytes, {len(lines)} lines, exits {codes}")
    assert ran and same, line
