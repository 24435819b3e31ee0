"""Command-line contract: exit codes, golden outputs, format switches."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ucv.cli import CSV_HEADER, EXIT_FAIL, EXIT_NONMEMBER, EXIT_OK, EXIT_USAGE, _build_parser, main
from ucv.model import functional_by_name
from ucv.rootcheck import as_rational
from ucv.search import SearchConfig

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- usage errors (exit 64) --------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["verify"],
        ["verify", "--grid", "1.5"],
        ["verify", "--grid", ""],
        ["verify", "--lambda", "abc"],
        ["verify", "--lambda", "0"],
        ["search", "--functional", "B9", "--direction", "max", "--lambda", "1"],
        ["search", "--functional", "A2", "--direction", "up", "--lambda", "1"],
        ["expand", "--name", "Nope", "--lambda", "1"],
        ["expand", "--name", "FLambda", "--lambda", "1", "--order", "0"],
        ["conjecture", "--n", "12", "--lambda", "1"],
        ["search", "--functional", "A2", "--direction", "max", "--lambda", "0"],
        ["expand", "--name", "FLambda", "--lambda", "2"],
        ["conjecture", "--n", "4", "--lambda", "-1"],
        ["expand", "--name", "FLambda", "--lambda", "1", "--format", "csv"],  # expand has no CSV
    ],
)
def test_usage_exit_codes(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error" in err.lower()
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--grid", "1/4,1.5"], "lambda out of range: lambda=3/2"),
        (["search", "--functional", "A2", "--direction", "max", "--lambda", "0"], "lambda out of range: lambda=0"),
        (["expand", "--name", "FLambda", "--lambda", "1", "--order", "0"], "order must be >= 1"),
        (["search", "--functional", "AN(12)", "--direction", "max", "--lambda", "1"], "n must be in [2, 8], got 12"),
        (["conjecture", "--n", "12", "--lambda", "1"], "n must be in [2, 8], got 12"),
        (["search", "--functional", "AN(x)", "--direction", "max", "--lambda", "1"], "unknown functional: AN(x)"),
        # n is ASCII digits only: an Arabic-Indic three or a superscript is no n
        (["search", "--functional", "AN(\u0663)", "--direction", "max", "--lambda", "1"],
         "unknown functional: AN(\u0663)"),
        (["search", "--functional", "AN(\u00b3)", "--direction", "max", "--lambda", "1"],
         "unknown functional: AN(\u00b3)"),
        # nor a zero-padded one, which would print a name the caller did not pass
        (["search", "--functional", "AN(08)", "--direction", "max", "--lambda", "1"], "unknown functional: AN(08)"),
        # an empty list entry is no coordinate, and verify takes one of --lambda and --grid
        (["report", "--lambda", "1/2", "--b", ",0.5"], "argument --b: not a rational: ''"),
        (["report", "--lambda", "1/2", "--b", "0.5,,0.1"], "argument --b: not a rational: ''"),
        (["verify", "--grid", "1,"], "argument --grid: not a rational: ''"),
        (["verify", "--lambda", "1/2", "--grid", "1/4"], "argument --grid: not allowed with argument --lambda"),
        (["verify"], "one of the arguments --lambda --grid is required"),
    ],
)
def test_usage_errors_are_one_pinned_line(capsys, argv, message):
    # main maps the library's ValueError to exit 64 and prints its message
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"ucv: error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--lambda", "1", "--step", "0"],
        ["verify", "--lambda", "1", "--refine", "-1"],
        ["search", "--functional", "A2", "--direction", "max", "--lambda", "1", "--dims", "0"],
        ["report", "--lambda", "1", "--b", ","],
    ],
    ids=["step-0", "refine-negative", "dims-0", "empty-b"],
)
def test_invalid_values_exit_usage_without_traceback(capsys, argv):
    # values argparse accepts but SearchConfig rejects, and a --b of empty entries
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("ucv: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--lambda", "1"],
        ["search", "--functional", "A2", "--direction", "max", "--lambda", "1"],
        ["conjecture", "--n", "3", "--lambda", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_search_flag_defaults_are_the_config_defaults(argv):
    args = _build_parser().parse_args(argv)
    cfg = SearchConfig()
    assert (args.dims, args.step, args.refine) == (cfg.dims, cfg.grid_step, cfg.refine_rounds)


def test_main_builds_one_parser_per_process(capsys):
    # the parser is built by the first call and reused: a usage error leaves no state on it, so the next call runs
    _build_parser.cache_clear()
    assert run(capsys, "report", "--lambda", "1")[0] == EXIT_USAGE  # --b is required
    code, out, _ = run(capsys, "report", "--lambda", "1", "--b", "2,1", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["a2"] == "-2"
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# -- report ------------------------------------------------------------------


def test_report_json_golden(capsys):
    code, out, _ = run(capsys, "report", "--lambda", "1", "--b", "2,1,0,0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "lambda": "1",
        "b": ["2", "1", "0", "0"],
        "a2": "-2", "a3": "3", "a4": "-4", "a5": "5",
        "A2": "2", "A3": "5", "A4": "14",
        "gamma1": "1", "gamma2": "3/2", "gamma3": "10/3",
        "h2f": "-1", "h3f": "0", "h2inv": "3", "h3inv": "1",
        "z23": "-2", "z24": "3",
    }


def test_report_table(capsys):
    code, out, _ = run(capsys, "report", "--lambda", "1", "--b", "2,1,0,0")
    assert code == EXIT_OK
    assert "lambda = 1" in out
    assert "b      = (2, 1, 0, 0)" in out
    assert "gamma3 =       10/3   (10/3)" in out


def test_report_csv(capsys):
    code, out, _ = run(capsys, "report", "--lambda", "1/2", "--b", "3/2,1/2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("lambda,b,a2,")
    assert lines[1].startswith("1/2,3/2;1/2;0;0,-3/2,")


def test_report_all_zero_member(capsys):
    code, out, _ = run(capsys, "report", "--lambda", "1", "--b", "0,0,0,0", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert all(data[k] == "0" for k in ("a2", "a3", "a4", "a5", "h2f", "z24"))


def test_report_nonmember_exit(capsys):
    code, _, err = run(capsys, "report", "--lambda", "0.5", "--b", "1.5,0.25,0,0")
    assert code == EXIT_NONMEMBER
    assert "zero in disk" in err


@pytest.mark.parametrize(
    "lam,b,message",
    [
        ("1", "1/3,-1/8", "non-member: negative coefficient: b2=-1/8\n"),
        ("1/3", "1,1/2,0,1/9", "non-member: lemma-sum exceeded: sum=5/6 > lambda=1/3\n"),
        ("0.2", "0.1,0.3,0.1", "non-member: lemma-sum exceeded: sum=1/2 > lambda=1/5\n"),
        ("1/2", "3/2,1/4", "non-member: zero in disk\n"),
    ],
)
def test_report_nonmember_messages_are_pinned(capsys, lam, b, message):
    code, out, err = run(capsys, "report", "--lambda", lam, "--b", b)
    assert (code, out, err) == (EXIT_NONMEMBER, "", message)


def test_report_lambda_out_of_range_is_nonmember(capsys):
    code, _, err = run(capsys, "report", "--lambda", "1.5", "--b", "0")
    assert code == EXIT_NONMEMBER
    assert "lambda out of range" in err


def test_report_lambda_zero_is_nonmember(capsys):
    code, out, err = run(capsys, "report", "--lambda", "0", "--b", "0")
    assert (code, out, err) == (EXIT_NONMEMBER, "", "non-member: lambda out of range: lambda=0\n")


def test_report_accepts_mixed_fraction_styles(capsys):
    code, out, _ = run(capsys, "report", "--lambda", "1/2", "--b", "0.25,1/4", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["b"] == ["1/4", "1/4", "0", "0"]


# -- expand ------------------------------------------------------------------


def test_expand_two_factor_golden(capsys):
    code, out, _ = run(capsys, "expand", "--name", "FLambda", "--lambda", "0.5", "--order", "4")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "f:       1, -1.5, 1.75, -1.875",
        "inverse: 1, 1.5, 2.75, 5.625",
    ]


def test_expand_inverse_only(capsys):
    code, out, _ = run(capsys, "expand", "--name", "FLambda", "--lambda", "1",
                       "--order", "4", "--inverse")
    assert code == EXIT_OK
    assert out.splitlines() == ["inverse: 1, 2, 5, 14"]


def test_expand_plain_member(capsys):
    code, out, _ = run(capsys, "expand", "--name", "HalfZ3", "--lambda", "1", "--order", "4")
    assert code == EXIT_OK
    assert out.splitlines() == ["f:       1, 0, 0, -0.5"]


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--name", "FLambda", "--lambda", "1",
                       "--order", "3", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {
        "name": "FLambda",
        "lambda": "1",
        "order": 3,
        "f": ["1", "-2", "3"],
        "inverse": ["1", "2", "5"],
    }


# -- search ------------------------------------------------------------------


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--functional", "H3F", "--direction", "min",
                       "--lambda", "1", "--step", "1/10", "--refine", "1", "--format", "json")
    assert code == EXIT_OK
    (cert,) = json.loads(out)
    assert cert["functional"] == "H3F"
    assert cert["direction"] == "min"
    assert cert["status"] == "PASS"
    assert cert["searched"] == pytest.approx(-0.25, abs=1e-9)
    assert cert["closed_form"] == -0.25


def test_search_csv_single_row(capsys):
    code, out, _ = run(capsys, "search", "--functional", "A2", "--direction", "max",
                       "--lambda", "1/2", "--step", "1/10", "--refine", "1", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("0.5,A2,max,1.5,1.5,0.0,PASS,")


def test_search_table_golden_float_closed_form(capsys):
    # A4C's maximum at lambda = 1 is (4/3)sqrt(2/3), a float closed form; the edge pass prints a rational point
    # within 1e-12 of the irrational argmax, whose value rounds to the closed form's float
    code, out, _ = run(capsys, "search", "--functional", "A4C", "--direction", "max",
                       "--lambda", "1", "--step", "1/10")
    assert code == EXIT_OK
    assert out == "\n".join([
        "  lambda  functional dir           searched        closed_form          gap status         warn",
        "       1  A4C        max       1.0886621079       1.0886621079            0 PASS           ",
    ]) + "\n"


# -- verify ------------------------------------------------------------------


def test_verify_clean_lambda_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "1/2", "--step", "1/10",
                       "--refine", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 16
    assert not any(",FAIL," in line for line in lines)


def test_verify_lambda_one_reports_the_violation(capsys):
    # the H2F maximum genuinely exceeds its tabled value at lambda = 1,
    # so the run must exit 2 and say FAIL on that row
    code, out, _ = run(capsys, "verify", "--lambda", "1", "--step", "1/10",
                       "--refine", "1", "--format", "csv")
    assert code == EXIT_FAIL
    fails = [line for line in out.strip().split("\n") if ",FAIL," in line]
    assert fails and all(line.split(",")[1] == "H2F" for line in fails)


@pytest.mark.parametrize("step", ["2e17", "1e19", "1e400"])
def test_verify_at_a_step_past_every_coordinate(capsys, step):
    # a lattice of the origin alone, its step past int64 (2e17, 1e19) or past the float range (1e400): the vertex +
    # edge pass does not read the step, and each row is valued at its argmax
    code, out, err = run(capsys, "verify", "--lambda", "1", "--step", step, "--format", "csv")
    assert code in (EXIT_OK, EXIT_FAIL) and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 32
    for _, name, _, searched, *_, argmax in rows:
        exact = functional_by_name(name).evaluate(tuple(as_rational(x) for x in argmax.split(";")))
        assert float(searched) == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


def test_verify_json_is_valid_and_ordered(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "0.25,0.5", "--step", "1/8",
                       "--refine", "1", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert len(rows) == 2 * 2 * 16
    assert rows[0]["lambda"] == 0.25
    assert rows[-1]["lambda"] == 0.5
    assert set(rows[0]) == {
        "lambda", "functional", "direction", "searched",
        "closed_form", "gap", "status", "warn", "argmax",
    }


GRID_CSV = Path(__file__).resolve().parent / "expected" / "verify_grid.csv"
# the rows of the five-lambda grid CSV that differ from the benchmark's pinned file
# (perfbench/expected/verify_grid.csv, from before the vertex start and the edge pass):
# the vertex start's two (A5C min at 0.1 and 0.25), then the edge pass's
# exact rows: 15 whose argmax moved onto an edge, and 15 at the same argmax
# whose value is now the correctly rounded exact one, 1 or 2 ulps away
CHANGED_GRID_ROWS = {
    ("0.1", "A5C", "min"), ("0.25", "A5C", "min"),
    ("0.1", "H3F", "max"), ("0.1", "H3INV", "max"), ("0.1", "A4C", "max"), ("0.25", "H3F", "max"),
    ("0.25", "A4C", "max"), ("0.5", "H3F", "max"), ("0.5", "A4C", "max"), ("0.5", "A5C", "min"),
    ("0.75", "H2F", "max"), ("0.75", "A4C", "max"), ("0.75", "A5C", "min"), ("1", "H2F", "max"),
    ("1", "H3F", "max"), ("1", "A4C", "max"), ("1", "A5C", "min"),
    ("0.1", "A3", "max"), ("0.1", "A4", "max"), ("0.1", "G2", "max"), ("0.1", "G3", "max"), ("0.1", "H2F", "min"),
    ("0.1", "H3F", "min"), ("0.1", "H2INV", "max"), ("0.1", "H2INV", "min"), ("0.1", "H3INV", "min"),
    ("0.1", "Z23", "min"), ("0.1", "Z24", "max"), ("0.1", "A4C", "min"), ("0.1", "A5C", "max"),
    ("0.25", "G3", "max"), ("1", "G3", "max"),
}


def test_verify_grid_csv_golden(capsys):
    # the five-lambda grid at the defaults, byte for byte, and every --refine from 1 on runs the same one vertex +
    # edge pass: --refine 6 prints the same bytes
    outs = []
    for refine in ((), ("--refine", "6")):
        code, out, _ = run(capsys, "verify", "--grid", "0.1,0.25,0.5,0.75,1", *refine, "--format", "csv")
        assert code == EXIT_FAIL
        outs.append(out)
    assert outs == [GRID_CSV.read_text()] * 2


def test_verify_grid_csv_matches_benchmark_expected():
    # the program's CSV against the benchmark's pinned file: the same rows, differing in exactly CHANGED_GRID_ROWS
    expected = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "verify_grid.csv"
    bench, ours = (path.read_text().splitlines() for path in (expected, GRID_CSV))
    assert len(bench) == len(ours) == 161 and bench[0] == ours[0]
    assert [line.split(",")[:3] for line in bench] == [line.split(",")[:3] for line in ours]
    assert {tuple(a.split(",")[:3]) for a, b in zip(bench, ours) if a != b} == CHANGED_GRID_ROWS


def test_verify_grid_statuses_follow_the_exact_values():
    # each row's status from its exact value at its argmax against the exact bound, and the FAIL set: the table's
    # one irrational bound, 4 sqrt(6)/9 for A4C max at lambda = 1, by squares, 81 v^2 against 96 for v >= 0
    fails = set()
    for line in GRID_CSV.read_text().splitlines()[1:]:
        lam, name, direction, searched, closed, _, status, argmax = line.split(",")
        fn, lam = functional_by_name(name), as_rational(lam)
        value = fn.evaluate(tuple(as_rational(x) for x in argmax.split(";")))
        assert float(searched) == float(value)
        bound = fn.bounds(lam)[direction == "min"]
        if bound is None:
            assert status == "NO_CLOSED_FORM" and closed == ""
            continue
        if isinstance(bound, float):
            assert (name, direction, lam) == ("A4C", "max", 1)
            beats = value > 0 and 81 * value**2 > 96
        else:
            beats = value > bound if direction == "max" else value < bound
        assert status == ("FAIL" if beats else "PASS"), line
        fails |= {(lam, name, direction)} if beats else set()
    assert fails == {(F(1, 10), "H3INV", "max"), (F(3, 4), "H2F", "max"), (F(1), "H2F", "max")}


def test_verify_table_renders(capsys):
    code, out, _ = run(capsys, "verify", "--lambda", "1/3", "--step", "1/10",
                       "--refine", "1")
    assert code == EXIT_OK
    assert "functional" in out.splitlines()[0]
    assert "NO_CLOSED_FORM" in out


def test_verify_table_golden(capsys):
    # every table column byte for byte, with NO_CLOSED_FORM and WARN rows; 1/3 is off the lattice, and 29 rows end at
    # a vertex of the class polytope and three on an edge, each at its exact value or, for A4C max and A5C min, within
    # 1e-12 of an irrational argmax (test_search.py::test_one_third_table_rows_end_at_a_vertex_or_on_an_edge)
    code, out, _ = run(capsys, "verify", "--lambda", "1/3", "--step", "1/10", "--refine", "1")
    assert code == EXIT_OK
    assert out == "\n".join([
        "  lambda  functional dir           searched        closed_form          gap status         warn",
        "     1/3  A2         max      1.33333333333      1.33333333333            0 PASS           ",
        "     1/3  A2         min                  0                  0            0 PASS           ",
        "     1/3  A3         max      2.11111111111      2.11111111111            0 PASS           ",
        "     1/3  A3         min                  0                  0            0 PASS           ",
        "     1/3  A4         max       3.7037037037       3.7037037037            0 PASS           ",
        "     1/3  A4         min                  0                  0            0 PASS           ",
        "     1/3  G1         max     0.666666666667     0.666666666667            0 PASS           ",
        "     1/3  G1         min                  0                  0            0 PASS           ",
        "     1/3  G2         max     0.611111111111     0.611111111111            0 PASS           ",
        "     1/3  G2         min                  0                  0            0 PASS           ",
        "     1/3  G3         max      0.83950617284      0.83950617284            0 PASS           ",
        "     1/3  G3         min                  0                  0            0 PASS           ",
        "     1/3  H2F        max     0.138888888889     0.138888888889            0 PASS           ",
        "     1/3  H2F        min    -0.111111111111    -0.111111111111            0 PASS           ",
        "     1/3  H3F        max   0.00925925925926   0.00925925925926            0 PASS           ",
        "     1/3  H3F        min   -0.0277777777778   -0.0277777777778            0 PASS           ",
        "     1/3  H2INV      max     0.481481481481     0.481481481481            0 PASS           ",
        "     1/3  H2INV      min    -0.111111111111    -0.111111111111            0 PASS           ",
        "     1/3  H3INV      max     0.037037037037     0.037037037037            0 PASS           ",
        "     1/3  H3INV      min   -0.0277777777778   -0.0277777777778            0 PASS           ",
        "     1/3  Z23        max     0.166666666667     0.166666666667            0 PASS           ",
        "     1/3  Z23        min    -0.444444444444    -0.444444444444            0 PASS           ",
        "     1/3  Z24        max     0.481481481481     0.481481481481            0 PASS           ",
        "     1/3  Z24        min    -0.138888888889                                 NO_CLOSED_FORM ",
        "     1/3  A2C        max                  0                  0            0 PASS           ",
        "     1/3  A2C        min     -1.33333333333     -1.33333333333            0 PASS           ",
        "     1/3  A3C        max      1.44444444444      1.44444444444            0 PASS           ",
        "     1/3  A3C        min    -0.333333333333    -0.333333333333            0 PASS           ",
        "     1/3  A4C        max     0.209513120352                                 NO_CLOSED_FORM ",
        "     1/3  A4C        min     -1.48148148148     -1.48148148148            0 PASS           ",
        "     1/3  A5C        max      1.49382716049                                 NO_CLOSED_FORM ",
        "     1/3  A5C        min    -0.138888888889                                 NO_CLOSED_FORM ",
    ]) + "\n"


# -- conjecture --------------------------------------------------------------


def test_conjecture_json_matches_pinned_outputs(capsys):
    """`conjecture --format json` for n = 2..8 at lambda 1/2, then at
    lambda 1 (default step, dims and refinement), concatenated, equals
    tests/expected/conjecture_n2-8.txt byte for byte, and every run exits 0.

    The rule for changing that file: a change that alters any row (exact
    scoring's 1-ulp fixes, for one) regenerates it and names every changed
    row, with the reason, in CHANGES.md.
    """
    expected = Path(__file__).resolve().parent / "expected" / "conjecture_n2-8.txt"
    outs = []
    for lam in ("1/2", "1"):
        for n in range(2, 9):
            code, out, _ = run(capsys, "conjecture", "--n", str(n), "--lambda", lam, "--format", "json")
            assert code == EXIT_OK, (n, lam)
            outs.append(out)
    assert "".join(outs).encode() == expected.read_bytes()


def test_conjecture_at_step_1_80_stays_under_100_mb():
    # the n = 8 scan at step 1/80 sweeps 1,080,266 tails (96,095,347 lattice
    # points).  The child reads VmHWM, the peak resident set of its own
    # address space: its ru_maxrss would keep the peak of the pytest process
    # it was started from (Linux carries the high-water mark of the address
    # space that exec replaces), and RUSAGE_CHILDREN that of any earlier child
    code = ("import contextlib, io, ucv.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ucv.cli.main(['conjecture', '--n', '8', '--lambda', '1', '--step', '1/80'])\n"
            "print(code, next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')).split()[1])\n")
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    exit_code, peak_kib = map(int, proc.stdout.split())
    assert exit_code == EXIT_OK
    assert peak_kib < 100 * 1024


def test_conjecture_cli(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "3", "--lambda", "0.5",
                       "--step", "1/10", "--refine", "2")
    assert code == EXIT_OK
    assert "AN(3)" in out
    assert "PASS" in out
