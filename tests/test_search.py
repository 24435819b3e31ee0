"""Extremal search: the vectorized sweep against a scalar reference,
frozen bound values, certificate plumbing, refinement behavior, and the
conjecture scan."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucv.search
from oracles import (
    an_coefficient_by_recursion,
    an_extremes_by_fractions,
    enumerate_feasible,
    random_member,
    refine_by_fractions,
)
from ucv.cli import CSV_HEADER, certificate_to_dict, certificates_to_csv
from ucv.model import (
    AN_MAX,
    FUNCTIONAL_NAMES,
    Functional,
    _an_coefficient,
    _Polynomial,
    an_functional,
    f_series,
    functional_by_name,
    validate,
)
from ucv.rootcheck import UnitPolynomial
from ucv.search import (
    BoundCertificate,
    SearchConfig,
    _certificate,
    _delta_table,
    _grid_values,
    _move_directions,
    _refine,
    _sweep,
    _tail_units,
    closed_form_bound,
    conjecture_scan,
    optimize,
    verify_bounds,
)

F = Fraction


# -- scalar reference for the vectorized sweep ------------------------------


def brute_force_sweep(lam, cfg, names):
    """Literal loop over enumerate_feasible with the same float conversion
    the fast path uses; any disagreement at all is a bug."""

    def better(value, arg, cur_value, cur_arg, sign):
        # strict improvement, or an exact tie broken toward the smaller point
        if cur_arg is None:
            return True
        if sign * (value - cur_value) > 0:
            return True
        return value == cur_value and arg < cur_arg

    fns = [functional_by_name(n) for n in names]
    best = {(n, d): (-math.inf if d == "max" else math.inf, None) for n in names for d in ("max", "min")}
    for b in enumerate_feasible(lam, cfg):
        bf = tuple(float(x) for x in b)
        for fn in fns:
            v = fn.evaluate(bf) + 0.0
            cur = best[(fn.name, "max")]
            if better(v, b, cur[0], cur[1], +1):
                best[(fn.name, "max")] = (v, b)
            cur = best[(fn.name, "min")]
            if better(v, b, cur[0], cur[1], -1):
                best[(fn.name, "min")] = (v, b)
    return best


SWEEP_GRIDS = [
    (F(1), SearchConfig(grid_step=F(1, 10))),
    (F(3, 4), SearchConfig(grid_step=F(1, 7))),
    (F(1, 2), SearchConfig(grid_step=F(1, 9), dims=5)),
    (F(1, 4), SearchConfig(grid_step=F(1, 8), dims=3)),
    (F(1), SearchConfig(grid_step=F(1, 6), dims=2)),
    (F(1, 3), SearchConfig(grid_step=F(1, 5), dims=1)),
    # 1/step not an integer: the p(-1) >= 0 test compares against floor(1/step)
    (F(1), SearchConfig(grid_step=F(3, 20), dims=5)),
    # degree 7, the sweep of conjecture --n 8
    (F(1), SearchConfig(grid_step=F(1, 4), dims=7)),
]


SWEEP_NAMES = tuple(FUNCTIONAL_NAMES) + ("AN(5)",)

GRID5 = [F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(1)]


@functools.cache
def sweep_reference(lam, cfg):
    return brute_force_sweep(lam, cfg, SWEEP_NAMES)


def assert_sweep_matches_brute_force(lam, cfg):
    got = _sweep(lam, cfg, [functional_by_name(n) for n in SWEEP_NAMES])
    for key, (wv, wa) in sweep_reference(lam, cfg).items():
        gv, ga = got[key]
        assert gv == wv, (key, gv, wv)  # exact float equality, no tolerance
        assert ga == wa, (key, ga, wa)


def sweep_shape(lam, cfg):
    """(number of tail rows, number of b1 slices) of the sweep's lattice:
    b1 runs to floor(1/step) + budget."""
    budget = int(lam / cfg.grid_step)
    return len(_tail_units(budget, tuple(range(1, cfg.dims)))), int(1 / cfg.grid_step) + budget + 1


def sweep_blocks(lam, cfg):
    """(b1, points) of each b1 slice of each block the sweep scores, in
    order: a recording functional logs every evaluate, and the last two
    re-score the winning slices."""
    log = []

    def record(b):
        b1 = np.broadcast_to(b[0], np.broadcast(*b).shape)
        log.append(list(zip(*(a.tolist() for a in np.unique(b1, return_counts=True)))))  # b1 rises with the slice
        return b[0] + b[1]

    _sweep(lam, cfg, [Functional("REC", None, record, lambda lam: (None, None))])
    return log[:-2]


@functools.cache
def feasible_count(lam, cfg):
    return sum(1 for _ in enumerate_feasible(lam, cfg))


# floor(1/step) = 1 at step 2/3: the sweep's b1 stops at 2, the oracle's cap at 3
@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS + [(F(1), SearchConfig(grid_step=F(2, 3)))], ids=lambda v: str(v))
def test_sweep_matches_brute_force_bit_for_bit(lam, cfg):
    assert_sweep_matches_brute_force(lam, cfg)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_class_conditions_imply_the_b1_cap(data):
    # the search sets no b1 cap because b >= 0, the budget and p(-1) >= 0
    # imply b1 <= 1 + lambda; over one denominator D, drawn past 2**53:
    # every tail within floor(lambda D), then every x_1 with D p(-1) >= 0
    q = data.draw(st.integers(1, 10**6))
    lam = F(data.draw(st.integers(1, q)), q)
    D = data.draw(st.integers(1, 10**17))
    units = lam.numerator * D // lam.denominator
    tail = []
    for weight in range(1, data.draw(st.integers(1, 8))):  # x_2..x_width, weights 1, 2, ...
        tail.append(data.draw(st.integers(0, units // weight)))
        units -= weight * tail[-1]
    x1 = data.draw(st.integers(0, D + sum(c if i % 2 == 0 else -c for i, c in enumerate(tail))))
    assert x1 <= (lam.denominator + lam.numerator) * D // lam.denominator
    assert validate(lam, [F(c, D) for c in (x1, *tail)]).b[0] <= 1 + lam


@pytest.mark.parametrize("per_block", ["one slice", "uneven"])
@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS, ids=lambda v: str(v))
def test_sweep_ties_across_block_boundaries(monkeypatch, lam, cfg, per_block):
    # the tie rule must hold at every block boundary: one b1 slice per
    # block, or blocks of several slices that hold at most a third of the
    # feasible points (plus one); the last block may be one slice
    block = 1 if per_block == "one slice" else feasible_count(lam, cfg) // 3 + 1
    monkeypatch.setattr(ucv.search, "_SWEEP_BLOCK", block)
    slices = [len(cut) for cut in sweep_blocks(lam, cfg)]
    assert len(slices) >= 2
    assert all(s == 1 for s in slices) if per_block == "one slice" else all(s >= 2 for s in slices[:-1])
    assert_sweep_matches_brute_force(lam, cfg)


@pytest.mark.parametrize("block", [None, 1, 7, 40, 150], ids=["default", "1", "7", "40", "150"])
@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS, ids=lambda v: str(v))
def test_sweep_blocks_fill_with_feasible_points(monkeypatch, lam, cfg, block):
    # a block takes the most slices that fit in _SWEEP_BLOCK feasible
    # points, so a block of whole slices could not also take the first
    # slice of the next; a larger slice is cut into ranges of _SWEEP_BLOCK
    # rows, the last holding the rest.  No block holds more than
    # _SWEEP_BLOCK points, and together they hold every feasible point once
    if block:
        monkeypatch.setattr(ucv.search, "_SWEEP_BLOCK", block)
    size = ucv.search._SWEEP_BLOCK
    cut = sweep_blocks(lam, cfg)
    slices, pieces = collections.Counter(), collections.Counter()  # points and blocks per b1
    for sl in cut:
        slices.update(dict(sl))
        pieces.update(b1 for b1, _ in sl)
    assert all(sum(c for _, c in sl) <= size for sl in cut)
    assert all(pieces[b1] == max(1, -(-slices[b1] // size)) for b1 in slices)
    for sl, nxt in zip(cut, cut[1:]):
        points = sum(c for _, c in sl)
        if nxt[0][0] == sl[-1][0]:  # a range of a larger slice, with another after it
            assert len(sl) == len(nxt) == 1 and points == size
        elif slices[sl[-1][0]] <= size:  # whole slices
            assert points + slices[nxt[0][0]] > size
    assert sum(slices.values()) == feasible_count(lam, cfg)
    assert_sweep_matches_brute_force(lam, cfg)


@pytest.mark.parametrize("block", [None, 1, 3 * 41], ids=["default", "one slice", "uneven"])
def test_sweep_tie_along_a_segment_goes_to_the_least_point(monkeypatch, block):
    # -|b1 + b2 - 1| peaks at 0 on a segment across many b1 slices (exact
    # in floats at step 1/8); the least point (0, 1, 0, 0) must win, where
    # a tail-major order within a block would pick (1, 0, 0, 0)
    line = Functional("LINE", None, lambda b: -abs(b[0] + b[1] - 1), lambda lam: (None, None))
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 8))
    if block:
        monkeypatch.setattr(ucv.search, "_SWEEP_BLOCK", block)
    assert sweep_shape(lam, cfg) == (41, 17)  # at 123 points a block: blocks of 3, 3, 3 and 8 slices
    assert _sweep(lam, cfg, [line])[("LINE", "max")] == (0.0, (F(0), F(1), F(0), F(0)))


@pytest.mark.parametrize("block", [None, 1, 3 * 41], ids=["default", "one slice", "uneven"])
@pytest.mark.parametrize("lam,cfg", [(F(1), SearchConfig(grid_step=F(1, 8))),
                                     (F(1, 2), SearchConfig(grid_step=F(1, 10), dims=5))], ids=str)
def test_sweep_tie_in_slack_order_goes_to_the_least_tail(monkeypatch, lam, cfg, block):
    # b1 and b3 both reach their minimum 0 on the whole b1 = 0 slice (b3:
    # wherever b3 = 0), and that slice lists the tails with more p(-1)
    # slack, such as (b2, b3, b4) = (lambda, 0, 0), ahead of the zero tail;
    # the least point, the zero tail, must win all the same
    if block:
        monkeypatch.setattr(ucv.search, "_SWEEP_BLOCK", block)
    fns = [Functional("B1", None, lambda b: b[0], lambda lam: (None, None)),
           Functional("B3", None, lambda b: b[2], lambda lam: (None, None))]
    got = _sweep(lam, cfg, fns)
    zero = (F(0),) * max(4, cfg.dims)
    assert got[("B1", "min")] == got[("B3", "min")] == (0.0, zero)


def test_sweep_spans_several_default_blocks():
    # 34,126 feasible points in slices of at most 151: three blocks at the
    # default block size
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 150), dims=2)
    cut = sweep_blocks(lam, cfg)
    assert len(cut) >= 3
    assert all(sum(c for _, c in sl) <= ucv.search._SWEEP_BLOCK for sl in cut)
    assert_sweep_matches_brute_force(lam, cfg)


@pytest.mark.parametrize("step", [F(1, 50), F(3, 20), F(1, 7), F(7, 3)], ids=str)
def test_grid_values_are_correctly_rounded(step):
    got = _grid_values(step, 2000)
    assert got.tolist() == [float(k * step) for k in range(2000)]
    # the float product is an ulp off somewhere, so the table is not it
    assert got.tolist() != [k * float(step) for k in range(2000)]


# -- the exact AN(n) sweep ---------------------------------------------------


# every SWEEP_GRIDS grid at each n it covers (dims >= n - 1), step 3/20 and
# dims 7 among them; and a grid where two tails of one slice tie exactly at
# the maximum, 243/1024 at b1 = 3/4 with b2 = 0 and b2 = 3/4, the larger
# tail first in slack order
AN_GRIDS = [(lam, cfg, n) for lam, cfg in SWEEP_GRIDS for n in range(2, min(cfg.dims + 1, AN_MAX) + 1)]
AN_TIE = (F(1), SearchConfig(grid_step=F(3, 4), dims=5), 6)
# and one where a tail ties with itself: 16/27 at b1 = 2/3, inside the
# tail (b2, b3) = (2/3, 0), and at its end b1 = 4/3, the best end; a run
# that starts at the inner tie is bounded by exactly the best score
AN_RUN_TIE = (F(1), SearchConfig(grid_step=F(2, 3), dims=3), 4)
DIRECTIONS = [("max",), ("min",), ("max", "min")]
# the default chunk, table and run sizes; a few tails per chunk and tables
# of a few cells, which cut a tail's runs into several tables and hold
# fewer cells than a run of the default size; runs of one k1 and of three
AN_SIZES = {"default sizes": (None, None, None), "chunks of 7, tables of 5": (7, 5, None),
            "tables of 40": (None, 40, None), "runs of 1": (None, None, 1), "runs of 3": (None, None, 3)}


@functools.cache
def an_reference(lam, cfg, ns):
    return an_extremes_by_fractions(lam, cfg, ns)


def assert_an_sweep_is_exact(lam, cfg, n, directions):
    """The sweep's AN(n) winners in the directions asked for against the
    exact brute force: the least exact argmax and argmin, each valued by
    one float evaluate."""
    fn = an_functional(n)
    got = _sweep(lam, cfg, [fn], directions)
    assert list(got) == [(fn.name, d) for d in directions]
    hi, arg_hi, lo, arg_lo = an_reference(lam, cfg, tuple(range(2, min(cfg.dims + 1, AN_MAX) + 1)))[n]
    for direction, exact, arg in (("max", hi, arg_hi), ("min", lo, arg_lo)):
        if direction not in directions:
            continue
        value, point = got[(fn.name, direction)]
        assert point == arg, (direction, point, arg)
        assert value == fn.evaluate(tuple(float(x) for x in arg)) + 0.0
        assert math.copysign(1.0, value) == 1.0  # cleared of -0.0
        assert value == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


def set_an_sizes(monkeypatch, sizes):
    for name, size in zip(("_AN_CHUNK", "_SWEEP_BLOCK", "_RUN"), AN_SIZES[sizes]):
        if size:
            monkeypatch.setattr(ucv.search, name, size)


def spy_an_build(monkeypatch, force_object=False):
    """Record the exact AN build: the expansions that _an_coefficient runs
    over polynomials with Python-int coefficients, and the dtypes of the
    tail columns that _an_columns multiplies per chunk.  The int64/object
    bound is _an_coefficient on Python ints; with force_object it reads
    2**63, which puts any grid on Python ints."""
    coefficient, columns = ucv.search._an_coefficient, ucv.search._an_columns
    build = {"expansions": 0, "dtypes": set()}

    def spy_coefficient(b, n):
        if all(type(x) is int for x in b):
            return 2**63 if force_object else coefficient(b, n)
        assert all(type(c) is int for p in b for c in p.values())
        build["expansions"] += 1
        return coefficient(b, n)

    def spy_columns(part, steps, sums):
        build["dtypes"].update(part[:, v].dtype for v in range(part.shape[1]))
        return columns(part, steps, sums)

    monkeypatch.setattr(ucv.search, "_an_coefficient", spy_coefficient)
    monkeypatch.setattr(ucv.search, "_an_columns", spy_columns)
    return build


def spy_an_scoring(monkeypatch):
    """Record what _an_sweep scores point by point: the (k1 rows, tails)
    of each Horner table, and the tails of each re-scan at one k1; and the
    (run ends, tails) of each table of run bounds."""
    horner, parts = ucv.search._horner, ucv.search._parts
    scored, bounding = {"tables": [], "rescans": [], "bounds": []}, []

    def spy_horner(cols, x, lead):
        if not bounding and np.ndim(x) != 1:  # not a bound
            scored["tables" if np.ndim(x) else "rescans"].append((*np.shape(x)[:1], cols.shape[1]))
        return horner(cols, x, lead)

    def spy_parts(cols, x, lead):
        if np.ndim(x) == 2:  # not the per-tail parts at m
            scored["bounds"].append(np.shape(x))
        bounding.append(True)
        try:
            return parts(cols, x, lead)
        finally:
            bounding.pop()

    monkeypatch.setattr(ucv.search, "_horner", spy_horner)
    monkeypatch.setattr(ucv.search, "_parts", spy_parts)
    return scored


@pytest.mark.parametrize("directions", DIRECTIONS, ids="+".join)
@pytest.mark.parametrize("sizes", AN_SIZES)
@pytest.mark.parametrize("lam,cfg,n", AN_GRIDS + [AN_TIE, AN_RUN_TIE], ids=str)
def test_an_sweep_matches_exact_brute_force(monkeypatch, lam, cfg, n, sizes, directions):
    set_an_sizes(monkeypatch, sizes)
    build = spy_an_build(monkeypatch)
    assert_an_sweep_is_exact(lam, cfg, n, directions)
    assert build["expansions"] == 1
    assert build["dtypes"] == ({np.dtype(np.int64)} if cfg.dims > 1 else set())  # no tail column at dims 1


@pytest.mark.parametrize("directions", DIRECTIONS, ids="+".join)
@pytest.mark.parametrize("sizes", ["default sizes", "chunks of 7, tables of 5", "runs of 1", "runs of 3"])
@pytest.mark.parametrize("lam,cfg,n", AN_GRIDS + [AN_TIE, AN_RUN_TIE], ids=str)
def test_an_sweep_forced_onto_python_ints(monkeypatch, lam, cfg, n, sizes, directions):
    set_an_sizes(monkeypatch, sizes)
    build = spy_an_build(monkeypatch, force_object=True)
    assert_an_sweep_is_exact(lam, cfg, n, directions)
    assert build["expansions"] == 1
    assert build["dtypes"] == ({np.dtype(object)} if cfg.dims > 1 else set())  # no tail column at dims 1


def test_an_sweep_past_int64_runs_on_python_ints(monkeypatch):
    # den^7 = 5000^7 is about 7.8e25, so the bound passes 2**63 by itself;
    # about 10k points
    build = spy_an_build(monkeypatch)
    assert_an_sweep_is_exact(F(1, 5000), SearchConfig(grid_step=F(1, 5000), dims=7), 8, ("max", "min"))
    assert build == {"expansions": 1, "dtypes": {np.dtype(object)}}


def test_an_tie_grid_ties_across_tails():
    lam, cfg, n = AN_TIE
    hi = max(abs(an_coefficient_by_recursion(b, n)) for b in enumerate_feasible(lam, cfg))
    ties = [b for b in enumerate_feasible(lam, cfg) if abs(an_coefficient_by_recursion(b, n)) == hi]
    assert hi == F(243, 1024)
    assert ties == [(F(3, 4),) + (F(0),) * 4, (F(3, 4), F(3, 4)) + (F(0),) * 3]
    # slack order puts b2 = 3/4 (key -1) ahead of the zero tail (key 0)
    assert _sweep(lam, cfg, [an_functional(n)], ("max",))[("AN(6)", "max")][1] == ties[0]


def test_an_run_tie_grid_ties_inside_a_tail():
    lam, cfg, n = AN_RUN_TIE
    hi = max(abs(an_coefficient_by_recursion(b, n)) for b in enumerate_feasible(lam, cfg))
    ties = [b for b in enumerate_feasible(lam, cfg) if abs(an_coefficient_by_recursion(b, n)) == hi]
    assert hi == F(16, 27)
    assert ties == [(F(2, 3), F(2, 3), F(0), F(0)), (F(4, 3), F(2, 3), F(0), F(0))]
    assert _sweep(lam, cfg, [an_functional(n)], ("max",))[("AN(4)", "max")][1] == ties[0]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_enclosure_holds_at_every_k1(data):
    # P = lead x^r + C_(r-1) x^(r-1) + ... + C_0 per tail, a column of
    # cols, with its own m: P and P- at 0 are C_0 and its negative part, as
    # _an_sweep reads them, and at m exact; from them P+(0) - P-(m) <=
    # P(k1) <= P+(m) - P-(0) at every k1 in [0, m], on Python ints past
    # 2**63 and on int64 below it.  Inside the tail |P| stays strictly
    # within the bounds this gives on |P|, but for a zero of P: _an_sweep
    # drops a tail whose bound only ties
    r, tails = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 4))
    big = data.draw(st.sampled_from([2**10, 2**40, 2**80]))
    cols = [[data.draw(st.integers(-big, big)) for _ in range(tails)] for _ in range(r)]
    lead, m = data.draw(st.integers(1, big)), [data.draw(st.integers(0, 12)) for _ in range(tails)]

    def part(t, x, sign):  # the part of tail t's P whose coefficients have this sign, at x
        return sum(c[t] * x**i for i, c in enumerate(cols + [[lead] * tails]) if sign * c[t] > 0)

    # int64 holds every coefficient and partial sum when, as _an_sweep's caps do, x = max(m, 1) keeps this below 2**63
    size = max(sum(abs(c[t]) * max(m[t], 1) ** i for i, c in enumerate(cols + [[lead] * tails])) for t in range(tails))
    for dtype in [object] + [np.int64] * (size < 2**63):
        columns = np.array(cols, dtype=dtype)
        at, neg = ucv.search._parts(columns, np.array([[0] * tails, m], dtype=dtype), lead)
        assert at[0].tolist() == cols[0] and neg[0].tolist() == [max(-c, 0) for c in cols[0]]
        lower, upper = ucv.search._enclosure(at, neg)
        at, lower, upper = at.tolist(), lower.tolist(), upper.tolist()
        for t in range(tails):
            values = [part(t, x, 1) + part(t, x, -1) for x in range(m[t] + 1)]
            assert lower[0][t] <= min(values) and max(values) <= upper[0][t]
            least = max(lower[0][t], -upper[0][t], 0)
            assert all(least < abs(v) < max(upper[0][t], -lower[0][t]) or v == least == 0 for v in values[1:-1])
            assert (lower[0][t], upper[0][t]) == (part(t, 0, 1) + part(t, m[t], -1), part(t, m[t], 1) + part(t, 0, -1))
            assert (at[0][t], at[1][t]) == (cols[0][t], values[-1])


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_enclosure_holds_on_every_run(data):
    # the bound of each run [a, b] of k1 between two neighbouring points,
    # per tail, the points rising from 0 or more: P+(a) - P-(b) <= P(k1) <=
    # P+(b) - P-(a) at every k1 in [a, b], and P exact at the points, on
    # Python ints past 2**63 and on int64 below it.  Strictly inside the
    # run |P| stays strictly within the bounds this gives on |P|, but for a
    # zero of P: a run's bound is reached only at a or b, which is why
    # _an_sweep compares (bound, -a) with the best (score, -k1)
    r, tails = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 4))
    big = data.draw(st.sampled_from([2**10, 2**40, 2**80]))
    cols = [[data.draw(st.integers(-big, big)) for _ in range(tails)] for _ in range(r)]
    lead = data.draw(st.integers(1, big))
    points = [[data.draw(st.integers(0, 12)) for _ in range(tails)]]
    for _ in range(data.draw(st.integers(1, 3))):
        points.append([x + data.draw(st.integers(0, 12)) for x in points[-1]])
    terms = cols + [[lead] * tails]

    def part(t, x, sign):  # the part of tail t's P whose coefficients have this sign, at x
        return sum(c[t] * x**i for i, c in enumerate(terms) if sign * c[t] > 0)

    size = max(sum(abs(c[t]) * max(points[-1][t], 1) ** i for i, c in enumerate(terms)) for t in range(tails))
    for dtype in [object] + [np.int64] * (size < 2**63):
        at, neg = ucv.search._parts(np.array(cols, dtype=dtype), np.array(points, dtype=dtype), lead)
        lower, upper = (x.tolist() for x in ucv.search._enclosure(at, neg))
        at = at.tolist()
        for (i, a), t in itertools.product(enumerate(points[:-1]), range(tails)):
            b = points[i + 1][t]
            values = [part(t, x, 1) + part(t, x, -1) for x in range(a[t], b + 1)]
            assert lower[i][t] <= min(values) and max(values) <= upper[i][t]
            least = max(lower[i][t], -upper[i][t], 0)
            assert all(least < abs(v) < max(upper[i][t], -lower[i][t]) or v == least == 0 for v in values[1:-1])
            assert lower[i][t] == part(t, a[t], 1) + part(t, b, -1)
            assert upper[i][t] == part(t, b, 1) + part(t, a[t], -1)
            assert (at[i][t], at[i + 1][t]) == (values[0], values[-1])


@pytest.mark.parametrize("sizes", AN_SIZES)
@pytest.mark.parametrize("lam,cfg,n", [AN_GRIDS[-1], AN_TIE, (F(1), SearchConfig(grid_step=F(1, 20), dims=5), 6)],
                         ids=str)
def test_an_tables_hold_at_most_a_block(monkeypatch, lam, cfg, n, sizes):
    set_an_sizes(monkeypatch, sizes)
    scored = spy_an_scoring(monkeypatch)
    _sweep(lam, cfg, [an_functional(n)], ("max",))
    # a run of one k1 is bounded by its value, so it is scored only where it beats the best end
    assert scored["bounds"] and (scored["tables"] or ucv.search._RUN == 1)
    assert all(rows * tails <= ucv.search._SWEEP_BLOCK for rows, tails in scored["tables"] + scored["bounds"])


def test_an_conjecture_sweep_scores_under_a_quarter_of_its_points(monkeypatch):
    # the sweep of conjecture --n 6: the bound drops the tails that cannot
    # reach the maximum, so the run bounds, the tables and the re-scan at
    # the winning b1 score at most a quarter of the lattice's feasible
    # points; the run bounds leave the tables under one point in a hundred
    lam, cfg = F(1), SearchConfig(dims=5)
    tails = _tail_units(50, (1, 2, 3, 4))
    points = int(np.maximum(51 - tails.astype(int) @ np.array([-1, 1, -1, 1]), 0).sum())
    assert points == 941_438
    scored = spy_an_scoring(monkeypatch)
    assert _sweep(lam, cfg, [an_functional(6)], ("max",))[("AN(6)", "max")][0] == 6.0
    cells = {key: sum(math.prod(shape) for shape in shapes) for key, shapes in scored.items()}
    assert 0 < sum(cells.values()) <= points / 4
    assert 0 < cells["tables"] <= points / 100
    assert all(rows * tails <= ucv.search._SWEEP_BLOCK for rows, tails in scored["tables"] + scored["bounds"])


def test_an_sweep_runs_no_recursion_per_point(monkeypatch):
    # _an_coefficient runs once per sweep on polynomials in (b1, b2..b_dims),
    # once on the Python-int caps (the bound) and once per winner on floats,
    # one per direction asked for: never on the points' arrays; each chunk of
    # _AN_CHUNK tails reads its columns off the one expansion
    calls = collections.Counter()

    def counting(real):
        def spy(b, n):
            kind = ("build" if isinstance(b[0], _Polynomial) else "bound" if all(type(x) is int for x in b)
                    else "scalar" if all(type(x) is float for x in b) else "array")
            calls[kind] += 1
            return real(b, n)
        return spy

    def columns(part, steps, sums):
        calls["chunk"] += 1
        return real_columns(part, steps, sums)

    real_columns = ucv.search._an_columns
    monkeypatch.setattr(ucv.model, "_an_coefficient", counting(ucv.model._an_coefficient))
    monkeypatch.setattr(ucv.search, "_an_coefficient", counting(ucv.search._an_coefficient))
    monkeypatch.setattr(ucv.search, "_an_columns", columns)
    lam, cfg = F(1), SearchConfig(dims=5)  # the sweep of conjecture --n 6
    tails = len(_tail_units(50, (1, 2, 3, 4)))  # every tail has a feasible b1 here
    assert tails > 3 * ucv.search._AN_CHUNK
    _sweep(lam, cfg, [an_functional(6)], ("max",))
    assert calls == {"build": 1, "chunk": -(-tails // ucv.search._AN_CHUNK), "bound": 1, "scalar": 1}


# -- feasible enumeration ----------------------------------------------------


def test_enumerate_unit_step_dims1():
    pts = list(enumerate_feasible(1, SearchConfig(dims=1, grid_step=F(1))))
    # b1 = 2 alone is rejected: 1 + 2z vanishes at -1/2
    assert pts == [(F(0),) * 4, (F(1), F(0), F(0), F(0))]


def test_enumerate_unit_step_dims2_reaches_corner():
    pts = list(enumerate_feasible(1, SearchConfig(dims=2, grid_step=F(1))))
    assert (F(2), F(1), F(0), F(0)) in pts
    for b in pts:
        validate(1, b)  # every yielded point is a member


def test_enumerate_zero_cap_large_step():
    # at step 2 the cap 1 + lambda = 3/2 leaves b1 = 0 only
    cfg = SearchConfig(grid_step=F(2))
    assert list(enumerate_feasible(F(1, 2), cfg)) == [(F(0),) * 4]


def test_enumerate_is_lexicographic():
    pts = list(enumerate_feasible(F(1, 2), SearchConfig(grid_step=F(1, 4))))
    assert pts == sorted(pts)


# -- closed-form bound table -------------------------------------------------


def test_closed_form_examples():
    assert closed_form_bound("A4", F(1, 2), "max") == F(45, 8)
    assert closed_form_bound("G2", 1, "max") == F(3, 2)
    assert closed_form_bound("H3INV", F(3, 10), "min") == F(-9, 400)
    assert closed_form_bound("A2", F(1, 3), "max") == F(4, 3)
    assert closed_form_bound("AN(5)", F(1, 2), "max") == F(31, 16)


def test_closed_form_absences():
    assert closed_form_bound("Z24", 1, "min") is None
    assert closed_form_bound("A4C", F(1, 2), "max") is None
    assert closed_form_bound("A4C", 1, "max") == pytest.approx(4 * math.sqrt(6) / 9)
    assert closed_form_bound("A5C", F(1, 2), "max") is None
    assert closed_form_bound("A5C", F(1, 2), "min") is None
    assert closed_form_bound("A5C", 1, "min") == F(-9, 4)
    assert closed_form_bound("AN(6)", 1, "min") is None


def test_closed_form_rejections():
    with pytest.raises(ValueError):
        closed_form_bound("A2", 1, "both")
    with pytest.raises(KeyError):
        closed_form_bound("NOPE", 1, "max")


def test_max_bounds_nondecreasing_in_lambda():
    # every max-side closed form is monotone on a step-0.05 lambda grid
    grid = [F(k, 20) for k in range(1, 21)]
    for name in list(FUNCTIONAL_NAMES) + [f"AN({n})" for n in range(2, 7)]:
        values = [closed_form_bound(name, lam, "max") for lam in grid]
        known = [float(v) for v in values if v is not None]
        assert known == sorted(known), name


def test_functional_lookup():
    assert functional_by_name("H3INV").field == "h3inv"
    assert functional_by_name("AN(4)").name == "AN(4)"
    with pytest.raises(KeyError):
        functional_by_name("B7")
    with pytest.raises(ValueError):
        an_functional(1)
    with pytest.raises(ValueError):
        an_functional(9)
    assert len(FUNCTIONAL_NAMES) == 16


def test_an_functional_matches_f_series():
    # the coefficient recursion against the series reciprocal, exactly
    rng = random.Random(23)
    for _ in range(30):
        m = random_member(rng)
        fs = f_series(m, 7).coeffs
        for n in range(2, 8):
            assert an_functional(n).evaluate(m.b) == abs(fs[n]), n


def _an_columns(rng, width, size):
    """Seeded float64 columns: uniform on [-2, 2], about 30% of entries on
    the step-1/50 lattice and about 30% zeros of either sign."""
    cols = []
    for _ in range(width):
        x = rng.uniform(-2.0, 2.0, size)
        on_lattice = rng.random(size) < 0.3
        x[on_lattice] = rng.integers(0, 101, int(on_lattice.sum())) / 50
        zero = rng.random(size) < 0.3
        x[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
        cols.append(x)
    return cols


@pytest.mark.parametrize("n", range(2, 9))
def test_an_coefficient_keeps_the_bits_of_the_unfolded_recursion(n):
    # the sign-folded recursion against the plain one: float rounding is
    # sign-symmetric, so |a_n| keeps its bits and abs removes a zero's sign
    rng = np.random.default_rng(2400 + n)

    def bits(x):
        return np.asarray(abs(x) + 0.0, dtype=np.float64).view(np.int64)

    def wide(x):  # one column; a functional of a scalar b1 alone is a scalar
        return np.broadcast_to(np.asarray(x, dtype=np.float64), (4000,)).copy()

    for width in (max(4, n - 1), 7, 3):
        b = _an_columns(rng, width, 4000)
        assert np.array_equal(bits(_an_coefficient(b, n)), bits(an_coefficient_by_recursion(b, n)))
        for x in (0.0, -0.0, *b[0][:8]):  # a one-slice block of the sweep: b1 a numpy scalar
            scalar, column = (np.float64(x), *b[1:]), (np.full(4000, x), *b[1:])
            got = wide(_an_coefficient(scalar, n))
            assert np.array_equal(got.view(np.int64), wide(_an_coefficient(column, n)).view(np.int64))
            assert np.array_equal(bits(got), bits(wide(an_coefficient_by_recursion(scalar, n))))
        for row in list(zip(*b))[:300]:  # the same values as Python float scalars
            row = tuple(float(x) for x in row)
            assert bits(_an_coefficient(row, n)) == bits(an_coefficient_by_recursion(row, n))
    for _ in range(200):  # and exactly over Fraction, sign included
        b = tuple(F(int(rng.integers(-60, 61)), int(rng.integers(1, 60))) for _ in range(7))
        assert _an_coefficient(b, n) == (-1) ** (n - 1) * an_coefficient_by_recursion(b, n)


# -- configuration -----------------------------------------------------------


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(grid_step=0)
    with pytest.raises(ValueError):
        SearchConfig(dims=0)
    with pytest.raises(ValueError):
        SearchConfig(refine_rounds=-1)
    cfg = SearchConfig(grid_step=0.02)
    assert cfg.grid_step == F(1, 50)  # decimal, not binary-float, intent
    assert cfg.b1_cap(F(1, 2)) == F(3, 2)


def test_search_config_integer_fields_are_checked_when_built():
    with pytest.raises(TypeError):
        SearchConfig(dims=4.5)
    with pytest.raises(TypeError):
        SearchConfig(refine_rounds=4.5)
    cfg = SearchConfig(dims=np.int64(5), refine_rounds=np.int64(2))
    assert (cfg.dims, cfg.refine_rounds) == (5, 2)
    assert type(cfg.dims) is type(cfg.refine_rounds) is int


def test_float_inputs_mean_their_decimal_text():
    cfg = SearchConfig(grid_step=F(1, 10), refine_rounds=0)
    assert validate(0.1, (0,)).lam == optimize("A2", 0.1, "max", cfg).lam == F(1, 10)
    assert validate(1, (0.1,)).b[0] == F(1, 10)
    assert UnitPolynomial.from_coeffs((1, 0.1)).coeffs == (F(1), F(1, 10))
    assert [closed_form_bound("A2", x, "max") for x in (0.1, "0.1")] == [F(11, 10)] * 2


def test_optimize_input_validation():
    with pytest.raises(ValueError):
        optimize("A2", 0, "max")
    with pytest.raises(ValueError):
        optimize("A2", F(3, 2), "max")
    with pytest.raises(ValueError):
        optimize("A2", 1, "sideways")


# -- certificates against the lambda=1 sweep ---------------------------------


@pytest.fixture(scope="module")
def certs_lam1():
    return verify_bounds([1])


def row(certs, name, direction):
    for c in certs:
        if c.functional == name and c.direction == direction:
            return c
    raise KeyError((name, direction))


def test_verify_row_order(certs_lam1):
    keys = [(c.functional, c.direction) for c in certs_lam1]
    assert keys == [(n, d) for n in FUNCTIONAL_NAMES for d in ("max", "min")]


def test_a3_max_attained_exactly(certs_lam1):
    c = row(certs_lam1, "A3", "max")
    assert c.status == "PASS" and not c.warn
    assert c.searched_value == 5.0
    assert c.argmax == (F(2), F(1), F(0), F(0))


def test_h2f_min_attained(certs_lam1):
    c = row(certs_lam1, "H2F", "min")
    assert c.status == "PASS" and not c.warn
    assert c.searched_value == -1.0
    assert c.argmax == (F(0), F(1), F(0), F(0))


def test_h3f_min_attained(certs_lam1):
    c = row(certs_lam1, "H3F", "min")
    assert c.status == "PASS" and not c.warn
    assert c.searched_value == -0.25
    assert c.argmax == (F(0), F(0), F(1, 2), F(0))


def test_z24_min_has_no_closed_form(certs_lam1):
    c = row(certs_lam1, "Z24", "min")
    assert c.status == "NO_CLOSED_FORM"
    assert c.closed_form is None and c.gap is None
    # the two-sided |Z24| <= 3 claim still holds at the searched minimum
    assert c.searched_value >= -3.0 - 1e-7


def test_h2f_max_exceeds_the_tabled_value(certs_lam1):
    # the quarter-circle-style value (1 - lam/2)(lam/2) is NOT the class
    # maximum at lam = 1: b = (5/7, 1/7, 3/7) is a member with
    # h2f = 2/7 > 1/4, and the search finds it
    c = row(certs_lam1, "H2F", "max")
    assert c.status == "FAIL"
    assert c.closed_form == 0.25
    assert c.searched_value == pytest.approx(2 / 7, abs=1e-8)
    validate(1, c.argmax)  # the refuting point really is a member


def test_a5c_min_bound_is_not_sharp(certs_lam1):
    # -9/4 is a valid lower bound for a5 but unattained on this class;
    # the true minimum is -5/4 at b = (sqrt(3/2), 1, 0, 0)
    c = row(certs_lam1, "A5C", "min")
    assert c.status == "PASS"
    assert c.warn  # sharpness miss is flagged, not hidden
    assert c.searched_value == pytest.approx(-1.25, abs=1e-6)


def test_soundness_argmax_validates(certs_lam1):
    for c in certs_lam1:
        validate(c.lam, c.argmax)


def test_never_exceed_all_rows(certs_lam1):
    for c in certs_lam1:
        if c.closed_form is None or c.status == "FAIL":
            continue
        if c.direction == "max":
            assert c.searched_value <= c.closed_form + 1e-7
        else:
            assert c.searched_value >= c.closed_form - 1e-7


# -- single optimize runs ----------------------------------------------------


def test_optimize_h2f_max_on_formula_below_half():
    c = optimize("H2F", F(1, 2), "max")
    assert c.status == "PASS" and not c.warn
    assert c.closed_form == pytest.approx(3 / 16)
    assert c.searched_value == pytest.approx(3 / 16, abs=1e-9)


def test_optimize_h3inv_max_small_lambda_exceeds():
    # for lam < 1/9 the maximum of b2 b4 - b3^2 + b2^3 moves off the
    # b2 = lam slice: with 9t^2 - 2t + lam = 0, t = (1 - sqrt(1-9 lam))/9,
    # the point (0, t, 0, (lam-t)/3) gives t(lam-t)/3 + t^3 > lam^3
    lam = F(1, 10)
    t = (1 - math.sqrt(1 - 9 * float(lam))) / 9
    g = t * (float(lam) - t) / 3 + t**3
    c = optimize("H3INV", lam, "max")
    assert c.status == "FAIL"
    assert c.closed_form == pytest.approx(1e-3)
    assert c.searched_value == pytest.approx(g, abs=1e-8)
    validate(lam, c.argmax)


def test_optimize_deterministic():
    a = optimize("Z23", F(2, 5), "max", SearchConfig(grid_step=F(1, 20)))
    b = optimize("Z23", F(2, 5), "max", SearchConfig(grid_step=F(1, 20)))
    assert a == b


def test_refinement_history_monotone():
    cfg = SearchConfig(grid_step=F(1, 20))
    a4, h2f = functional_by_name("A4"), functional_by_name("H2F")
    coarse, arg = _sweep(F(37, 100), cfg, [a4])[("A4", "max")]
    up = _refine(F(37, 100), cfg, a4, "max", arg, coarse)[2]
    assert up[0] == coarse
    assert up == sorted(up)
    coarse, arg = _sweep(F(61, 100), cfg, [h2f])[("H2F", "min")]
    down = _refine(F(61, 100), cfg, h2f, "min", arg, coarse)[2]
    assert down == sorted(down, reverse=True)
    # a history that stands still is sorted too, so each must also move
    assert up[-1] > up[0]
    assert down[-1] < down[0]


REFINE_CASES = [
    ("H2F", "max", F(1), SearchConfig(grid_step=F(1, 20), dims=4, refine_rounds=3)),
    # a step numerator other than 1, with a point that stays and one that moves
    ("Z24", "min", F(3, 4), SearchConfig(grid_step=F(3, 20))),
    ("H3F", "min", F(3, 4), SearchConfig(grid_step=F(3, 20))),
    # lambda's denominator does not divide D: the budget cross-multiplies
    ("A4C", "max", F(1, 3), SearchConfig(grid_step=F(1, 7))),
    # no rounds: the coarse point comes back unchanged
    ("H3INV", "max", F(1, 10), SearchConfig(refine_rounds=0)),
    ("AN(6)", "max", F(1), SearchConfig(grid_step=F(1, 4), dims=5, refine_rounds=2)),
    ("H2F", "max", F(1), SearchConfig(grid_step=F(1, 4), dims=5, refine_rounds=2)),
    # functionals that ignore coordinates, so many moves tie: A2 and G1 read
    # b1 only (a tie toward a larger point must be refused), H3INV ignores
    # b1 (its min moves only by ties toward the smaller point)
    ("A2", "max", F(1, 2), SearchConfig(grid_step=F(1, 20))),
    ("G1", "min", F(3, 4), SearchConfig(grid_step=F(3, 20))),
    ("H3INV", "min", F(1, 4), SearchConfig(grid_step=F(1, 20))),
    # D passes 2**53 mid-refinement: the pass moves from int64 to Python ints
    ("A3", "max", F(1, 2), SearchConfig(refine_rounds=15)),
    ("H2F", "max", F(1), SearchConfig(grid_step=F(1, 10), refine_rounds=15)),
    # the 7-row gate table (width 5) on Python ints; the point nears 2/7 with b4 > 0
    ("H2F", "max", F(1), SearchConfig(grid_step=F(1, 10), dims=5, refine_rounds=15)),
]


@pytest.mark.parametrize("name,direction,lam,cfg", REFINE_CASES, ids=lambda v: str(v))
def test_refine_matches_fraction_reference(name, direction, lam, cfg):
    fn = functional_by_name(name)
    value, arg = _sweep(lam, cfg, [fn])[(fn.name, direction)]
    got = _refine(lam, cfg, fn, direction, arg, value)
    want = refine_by_fractions(lam, cfg, fn, direction, arg, value)
    assert got == want
    if cfg.refine_rounds == 0:
        assert got == (arg, value, [value])


def test_refine_exact_past_float_precision():
    # fifteen rounds take the denominator to 50 * 10**15 > 2**53, where
    # int64 or float64 coordinates would no longer be exact
    cfg = SearchConfig(refine_rounds=15)
    D = cfg.grid_step.denominator * 10**15
    assert D > 2**53
    c = optimize("A3", "1/2", "max", cfg)
    assert all(D % x.denominator == 0 for x in c.argmax)
    validate(F(1, 2), c.argmax)
    fn = functional_by_name("A3")
    assert c.searched_value == fn.evaluate(tuple(float(x) for x in c.argmax)) + 0.0


def assert_no_negative_zero(*values):
    for v in values:
        if v == 0:  # -0.0 == 0.0, so only the sign bit tells them apart
            assert math.copysign(1.0, v) == 1.0, values


@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS + [(lam, SearchConfig()) for lam in GRID5], ids=lambda v: str(v))
def test_no_negative_zero_escapes(lam, cfg):
    fns = [functional_by_name(n) for n in SWEEP_NAMES]
    incumbents = _sweep(lam, cfg, fns)
    for fn in fns:
        for direction in ("max", "min"):
            value, arg = incumbents[(fn.name, direction)]
            point, refined, history = _refine(lam, cfg, fn, direction, arg, value)
            cert = _certificate(fn, lam, direction, refined, point)
            assert_no_negative_zero(value, refined, *history, cert.searched_value)
            if cert.gap is not None:
                assert_no_negative_zero(cert.gap)
    # the winner is b1 = 0, where A2C = -b1 evaluates to -0.0
    cert = optimize("A2C", lam, "max", cfg)
    assert cert.searched_value == 0 and cert.argmax[0] == 0
    assert_no_negative_zero(cert.searched_value, cert.gap)


def test_refine_tie_walk_at_zero_keeps_positive_zero():
    # every accepted move ties A2C = -b1 = 0 at a smaller point and evaluates to -0.0
    fn = functional_by_name("A2C")
    point, value, history = _refine(F(1, 2), SearchConfig(), fn, "max", (F(0), F(1, 50), F(0), F(0)), 0.0)
    assert point == (0, 0, 0, 0) and len(history) == 4
    assert_no_negative_zero(value, *history)


@pytest.mark.parametrize("dims", range(1, 6))
def test_tail_units_lexicographic_lattice(dims):
    weights = tuple(range(1, dims))
    for budget in (0, 1, 5, 12, 50):
        want = [ks for ks in itertools.product(*(range(budget // w + 1) for w in weights))
                if sum(w * k for w, k in zip(weights, ks)) <= budget]
        got = _tail_units(budget, weights)
        assert got.dtype == (np.int16 if budget < 2**15 else np.int64) and got.shape == (len(want), dims - 1)
        assert got.tolist() == [list(ks) for ks in want]


@pytest.mark.parametrize("budget, dtype", [(2**15 - 1, np.int16), (2**15, np.int64)])
def test_tail_units_dtype_boundary(budget, dtype):
    rows = _tail_units(budget, (1,))
    assert rows.dtype == dtype and rows.shape == (budget + 1, 1)
    assert rows[:, 0].tolist() == list(range(budget + 1))


def test_tail_units_row_count_at_dims_7():
    # the tail lattice of conjecture --n 8 at step 1/80: 13 MB of int16
    # rows, built in place with a traced peak of 25.3 MB, where stacking
    # the rows weight by weight peaked at 48.8 MB
    weights = tuple(range(1, 7))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rows = _tail_units(80, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (1_080_266, 6)
    assert int((rows @ np.array(weights)).max()) == 80
    assert peak < 32 * 2**20


def test_move_directions_shape():
    moves = _move_directions(4)
    assert len(moves) == 44
    assert all(len(m) == 4 for m in moves)
    for m in moves:
        assert any(x != 0 for x in m)
        assert tuple(-x for x in m) in moves
    # budget-preserving pair and its facet-preserving triple
    assert (0, 3, 0, -1) in moves
    assert (2, 3, 0, -1) in moves
    assert (0, 0, -3, 2) in moves
    assert list(moves) == sorted(moves)


@pytest.mark.parametrize("num", (1, 3))
@pytest.mark.parametrize("dims", range(1, 7))
def test_delta_table_layout(dims, num):
    gates, lowers = _delta_table(dims, num)
    width, moves = max(4, dims), _move_directions(dims)
    assert gates.flags.c_contiguous
    assert gates.shape == (width + 2, 12 * len(moves)) and lowers.shape == (gates.shape[1],)
    columns = [[c * k * num for c in m] + [0] * (width - dims) for m in moves for k in range(1, 13)]
    for i, d in enumerate(columns):
        budget = sum(j * c for j, c in enumerate(d))
        alt = sum(c if j % 2 else -c for j, c in enumerate(d))  # -d_1 + d_2 - d_3 + ...
        assert gates[:, i].tolist() == [-c for c in d] + [budget, -alt]
        assert lowers[i] == (next(c for c in d if c) < 0)


# -- verify plumbing ---------------------------------------------------------


def test_verify_empty_grid():
    assert verify_bounds([]) == []


def test_verify_rejects_bad_lambda(monkeypatch):
    swept = []
    sweep = ucv.search._sweep

    def recording(lam, cfg, fns, directions):
        swept.append(lam)
        return sweep(lam, cfg, fns, directions)

    monkeypatch.setattr(ucv.search, "_sweep", recording)
    # a bad lambda anywhere in the grid stops the run before any lambda is swept
    for grid in ([F(3, 2)], [F(1, 2), F(3, 2)], [0, F(1, 2)], [F(1, 4), F(1, 2), -1]):
        with pytest.raises(ValueError):
            verify_bounds(grid)
    assert swept == []
    verify_bounds([F(1, 2)], SearchConfig(grid_step=F(1, 10), refine_rounds=0))
    assert swept == [F(1, 2)]


def test_verify_certificate_order():
    # grid order (not sorted), then functional order, then max before min
    certs = verify_bounds(["1/4", 1, 0.5], SearchConfig(grid_step=F(1, 10), refine_rounds=1))
    order = [(n, d) for n in FUNCTIONAL_NAMES for d in ("max", "min")]
    assert [(c.lam, c.functional, c.direction) for c in certs] == [
        (lam, n, d) for lam in (F(1, 4), F(1), F(1, 2)) for n, d in order]


def test_verify_lambda_rows_independent_of_grid():
    # one loop serves the whole grid: a lambda's 32 rows must not depend on
    # the lambdas swept before or after it
    cfg = SearchConfig(grid_step=F(1, 10), refine_rounds=1)
    grid = [F(1), F(1, 4), F(1, 2)]
    assert verify_bounds(grid, cfg) == [c for lam in grid for c in verify_bounds([lam], cfg)]


def test_verify_deterministic_small():
    cfg = SearchConfig(grid_step=F(1, 20), refine_rounds=2)
    assert verify_bounds([F(1, 2)], cfg) == verify_bounds([F(1, 2)], cfg)


# -- serialization -----------------------------------------------------------


def test_csv_shape():
    cert = BoundCertificate(
        lam=F(1, 2), functional="A3", direction="max",
        searched_value=2.75, argmax=(F(3, 2), F(1, 2), F(0), F(0)),
        closed_form=2.75, gap=0.0, status="PASS", warn=False,
    )
    assert CSV_HEADER == "lambda,functional,direction,searched,closed_form,gap,status,argmax"
    text = certificates_to_csv([cert])
    assert text.split("\n")[1] == "0.5,A3,max,2.75,2.75,0.0,PASS,1.5;0.5;0;0"
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")


def test_csv_empty_fields_for_missing_closed_form():
    cert = BoundCertificate(
        lam=F(1), functional="Z24", direction="min",
        searched_value=-2.0, argmax=(F(0), F(1), F(0), F(0)),
        closed_form=None, gap=None, status="NO_CLOSED_FORM", warn=False,
    )
    assert certificates_to_csv([cert]).split("\n")[1] == "1,Z24,min,-2.0,,,NO_CLOSED_FORM,0;1;0;0"


def test_certificate_dict_keys():
    cert = BoundCertificate(
        lam=F(1), functional="A2", direction="max",
        searched_value=2.0, argmax=(F(2), F(1), F(0), F(0)),
        closed_form=2.0, gap=0.0, status="PASS", warn=False,
    )
    d = certificate_to_dict(cert)
    assert d == {
        "lambda": 1.0, "functional": "A2", "direction": "max",
        "searched": 2.0, "closed_form": 2.0, "gap": 0.0,
        "status": "PASS", "warn": False, "argmax": ["2", "1", "0", "0"],
    }


# -- conjecture scan ---------------------------------------------------------


def test_conjecture_n2():
    c = conjecture_scan(2, F(1, 2))
    assert c.functional == "AN(2)"
    assert c.status == "PASS"
    assert c.closed_form == 1.5
    assert c.searched_value == pytest.approx(1.5, abs=1e-9)


def test_conjecture_n3_attains_on_grid():
    c = conjecture_scan(3, F(1, 2))
    assert c.status == "PASS"
    assert c.closed_form == 1.75
    assert c.searched_value == pytest.approx(1.75, abs=1e-9)
    assert c.argmax[:2] == (F(3, 2), F(1, 2))


def test_conjecture_n4_at_one():
    c = conjecture_scan(4, 1)
    assert c.status == "PASS"
    assert c.closed_form == 4.0
    assert c.searched_value == pytest.approx(4.0, abs=1e-9)


def test_conjecture_rejects_bad_n():
    with pytest.raises(ValueError):
        conjecture_scan(1, F(1, 2))
    with pytest.raises(ValueError):
        conjecture_scan(9, F(1, 2))
