"""The four benchmark workloads: what one pass runs and how its output is
checked.  Imports ucv, so the caller pins the BLAS thread count and puts
src/ on sys.path first.

Every call into the program goes through a module attribute
(`ucv.cli.main`, `ucv.model.validate`, ...), so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import ucv.cli
import ucv.model as model
from ucv.search import SearchConfig

from members import make_cases

HERE = Path(__file__).resolve().parent
CSV_HEADER = "lambda,functional,direction,searched,closed_form,gap,status,argmax"
EXACT_TOL = 1e-12

# search name of each certified row -> CoefficientReport field
REPORT_FIELD = {
    "A2": "A2", "A3": "A3", "A4": "A4",
    "G1": "gamma1", "G2": "gamma2", "G3": "gamma3",
    "H2F": "h2f", "H3F": "h3f", "H2INV": "h2inv", "H3INV": "h3inv",
    "Z23": "z23", "Z24": "z24",
    "A2C": "a2", "A3C": "a3", "A4C": "a4", "A5C": "a5",
}


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    items: int
    outcome: object
    op_s: list[float] = field(default_factory=list)
    failed: int = 0
    reference_s: float = 0.0  # mean reference-loop time around and during the pass
    reference_samples: int = 0  # of those, the samples taken during the pass


def cpu_now() -> float:
    """User+sys time of this process and of every child it has waited for
    (pool workers are joined when their executor shuts down)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def lattice_points(grid: list[Fraction], dims: int) -> int:
    """Points the sweep visits: b1 over [0, 1 + lambda] times the integer
    tails k2..k_dims with sum (j-1) k_j <= lambda / step."""
    cfg = SearchConfig(dims=dims)
    total = 0
    for lam in grid:
        budget = int(lam / cfg.grid_step)
        ways = [1] + [0] * budget  # ways[u]: tails using exactly u units
        for weight in range(1, dims):
            for u in range(weight, budget + 1):
                ways[u] += ways[u - weight]
        total += (int(cfg.b1_cap(lam) / cfg.grid_step) + 1) * sum(ways)
    return total


def run_cli(argv: list[str], threads: int) -> tuple[int, str]:
    os.environ["UCV_THREADS"] = str(threads)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ucv.cli.main(argv)
    return code, buf.getvalue()


def _row_ok(row: list[str]) -> bool:
    """The argmax is a member and the searched value is the functional's
    exact value there, to EXACT_TOL."""
    lam, name, _direction, searched, *_rest, argmax = row
    try:
        member = model.validate(Fraction(lam), [Fraction(x) for x in argmax.split(";")])
    except model.NonMember:
        return False
    exact = model.CoefficientReport.from_member(member).value(REPORT_FIELD[name])
    return abs(float(searched) - float(exact)) <= EXACT_TOL


class Workload:
    """A workload runs passes of `items` items each.  `detail` collects
    reported facts that are not metrics; `lattice` is the number of
    lattice points one pass sweeps."""

    items: int
    lattice = 0

    def __init__(self):
        self.detail: dict = {}

    def finish(self, passes: list[PassResult]) -> int:
        """Checks that need the whole run; returns extra failed items."""
        return 0


class CliWorkload(Workload):
    """One `ucv.cli.main` call per pass; items are certificates (verify)
    or swept lattice points (conjecture)."""

    def __init__(self, argv: list[str], threads: int, items: int, lattice: int):
        super().__init__()
        self.argv = argv
        self.threads = threads
        self.items = items
        self.lattice = lattice

    def warm_up(self) -> None:
        run_cli(["verify", "--lambda", "1", "--step", "1/5", "--refine", "1", "--format", "csv"], 1)

    def run_pass(self, threads: int | None = None, extra: tuple[str, ...] = ()) -> PassResult:
        c0, t0 = cpu_now(), time.perf_counter()
        outcome = run_cli(self.argv + list(extra), threads or self.threads)
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        return PassResult(wall, cpu, self.items, outcome, [wall])

    def check(self, result: PassResult) -> None:
        """Set result.failed from the pass's (exit code, stdout)."""
        result.failed = self.check_output(*result.outcome)

    def check_output(self, code: int, out: str) -> int:
        raise NotImplementedError


class Verify(CliWorkload):
    """`ucv verify` over a lambda grid; 32 certificates per lambda."""

    def __init__(self, grid: str, threads: int, fails: set, seed_csv: str | None = None):
        lams = [Fraction(x) for x in grid.split(",")]
        super().__init__(["verify", "--grid", grid, "--format", "csv"], threads, 32 * len(lams),
                         lattice_points(lams, 4))
        self.fails = fails
        self.seed_csv = seed_csv

    def check_output(self, code, out):
        """Failed certificates in one CSV; a wrong exit code, shape or FAIL
        set fails every row."""
        if self.seed_csv is not None:
            self.detail["csv_matches_seed"] = out == self.seed_csv
        lines = out.splitlines()
        body = [line.split(",") for line in lines[1:]]
        if code != 2 or lines[:1] != [CSV_HEADER] or len(body) != self.items:
            return self.items
        if {tuple(r[:3]) for r in body if r[6] == "FAIL"} != self.fails:
            return self.items
        return sum(not _row_ok(r) for r in body)

    def finish(self, passes):
        """With a pool, every pass must print the 1-worker CSV byte for byte."""
        if self.threads == 1:
            return 0
        ref = self.run_pass(threads=1)
        self.check(ref)
        same = [p.outcome[1] == ref.outcome[1] for p in passes]
        self.detail["csv_matches_1_worker"] = all(same)
        return ref.failed + sum(p.items for p, ok in zip(passes, same) if not ok)


class Conjecture(CliWorkload):
    N = 6

    def __init__(self):
        lattice = lattice_points([Fraction(1)], self.N - 1)
        super().__init__(["conjecture", "--n", str(self.N), "--lambda", "1", "--format", "json"], 1,
                         lattice, lattice)

    def check_output(self, code, out):
        """Exit 0, PASS, |a_6| <= 6, and the argmax is a member whose exact
        a_6 is the searched value."""
        try:
            (cert,) = json.loads(out)
            member = model.validate(1, [Fraction(x) for x in cert["argmax"]])
        except (ValueError, KeyError, TypeError, model.NonMember):
            return self.items
        exact = abs(model.f_series(member, self.N).coeffs[self.N])
        ok = (code == 0 and cert["status"] == "PASS" and cert["searched"] <= self.N
              and abs(cert["searched"] - float(exact)) <= EXACT_TOL)
        return 0 if ok else self.items


def _series_values(a, A, gam) -> dict:
    """All sixteen report values from the series route: the coefficients
    of f and of its inverse through z^5 and gamma_1..gamma_3."""

    def hankel3(c):
        return c[3] * (c[2] * c[4] - c[3] ** 2) - c[4] * (c[4] - c[2] * c[3]) + c[5] * (c[3] - c[2] ** 2)

    return {
        "a2": a[2], "a3": a[3], "a4": a[4], "a5": a[5],
        "A2": A[2], "A3": A[3], "A4": A[4],
        "gamma1": gam[0], "gamma2": gam[1], "gamma3": gam[2],
        "h2f": a[2] * a[4] - a[3] ** 2, "h3f": hankel3(a),
        "h2inv": A[2] * A[4] - A[3] ** 2, "h3inv": hankel3(A),
        "z23": a[2] * a[3] - a[4], "z24": a[2] * a[4] - a[5],
    }


class ExactRoute(Workload):
    """The paper's exact route on seeded members, no search: validate,
    closed-form report, then the series route it must equal exactly.
    Items are cases (members and expected rejections)."""

    BATCH = 1000

    def __init__(self, seed: int):
        super().__init__()
        self.cases = make_cases(seed, self.BATCH)
        self.items = len(self.cases)

    @staticmethod
    def _op(case):
        try:
            member = model.validate(case.lam, case.b)
        except model.NonMember as exc:
            return exc.reason
        report = model.CoefficientReport.from_member(member)
        return (report, model.f_series(member, 5).coeffs, model.inverse_series(member, 5).coeffs,
                model.log_inverse_halved(member, 3))

    def warm_up(self) -> None:
        for case in self.cases[:50]:
            self._op(case)

    def run_pass(self) -> PassResult:
        clock = time.perf_counter
        op_s, outcomes = [], []
        c0, t0 = cpu_now(), clock()
        for case in self.cases:
            s = clock()
            outcomes.append(self._op(case))
            op_s.append(clock() - s)
        wall, cpu = clock() - t0, cpu_now() - c0
        return PassResult(wall, cpu, self.items, outcomes, op_s)

    def check(self, result: PassResult) -> None:
        """A member must be accepted with every closed form equal to its
        series value; a non-member must be rejected for its reason."""
        failed = rejected = 0
        for case, got in zip(self.cases, result.outcome):
            if isinstance(got, str):
                rejected += 1
                failed += got != case.reason
            else:
                report, *series = got
                failed += case.reason is not None or any(
                    report.value(k) != v for k, v in _series_values(*series).items())
        # accept and reject counts must repeat on every pass of the batch
        first = self.detail.setdefault("rejected", rejected)
        self.detail["accepted"] = self.items - first
        result.failed = failed if rejected == first else self.items
        # checked, so not kept: peak_rss_mb must not grow with the pass count
        result.outcome = None


def make(name: str, seed: int) -> Workload:
    if name == "verify-grid":
        fails = {("0.1", "H3INV", "max"), ("0.75", "H2F", "max"), ("1", "H2F", "max")}
        return Verify("0.1,0.25,0.5,0.75,1", 1, fails, (HERE / "expected" / "verify_grid.csv").read_text())
    if name == "verify-pair-2w":
        return Verify("0.25,1", 2, {("1", "H2F", "max")})
    if name == "conjecture-n6":
        return Conjecture()
    return ExactRoute(seed)
