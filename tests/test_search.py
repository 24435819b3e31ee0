"""Extremal search: the exact sweep against an exact brute force, frozen
bound values, certificate plumbing, refinement behavior, and the
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

import ucv.model
import ucv.search
from oracles import (
    an_coefficient_by_recursion,
    enumerate_feasible,
    extremes_by_fractions,
    random_member,
    refine_by_fractions,
)
from ucv.cli import CSV_HEADER, certificate_to_dict, certificates_to_csv
from ucv.model import (
    AN_MAX,
    FUNCTIONAL_NAMES,
    FUNCTIONALS,
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


# -- the sweep against an exact brute force ---------------------------------


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
# three steps at every dims from 2 to 7, 1/step off the integers at 2/15
DIMS_GRIDS = [(lam, SearchConfig(grid_step=step, dims=dims))
              for lam, step in ((F(1), F(1, 6)), (F(3, 4), F(1, 7)), (F(1), F(2, 15))) for dims in range(2, 8)]


SWEEP_NAMES = tuple(FUNCTIONAL_NAMES) + ("AN(5)",)

GRID5 = [F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(1)]


@functools.cache
def sweep_reference(lam, cfg):
    return extremes_by_fractions(lam, cfg, [functional_by_name(n) for n in SWEEP_NAMES])


def assert_sweep_matches_brute_force(lam, cfg):
    """The sweep's winners against the exact brute force: the least and the
    greatest point of each exact extremum, and as its value one float
    evaluate at the least, cleared of -0.0."""
    fns = [functional_by_name(n) for n in SWEEP_NAMES]
    got = _sweep(lam, cfg, fns)
    for fn in fns:
        for direction in ("max", "min"):
            exact, arg, far = sweep_reference(lam, cfg)[fn.name, direction]
            value, point, last = got[fn.name, direction]
            assert (point, last) == (arg, far), (fn.name, direction, point, last, arg, far)
            assert value == fn.evaluate(tuple(float(x) for x in arg)) + 0.0
            assert value or math.copysign(1.0, value) == 1.0
            assert value == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


@functools.cache
def feasible_count(lam, cfg):
    return sum(1 for _ in enumerate_feasible(lam, cfg))


# floor(1/step) = 1 at step 2/3: the sweep's b1 stops at 2, the oracle's cap at 3
@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS + [(F(1), SearchConfig(grid_step=F(2, 3)))] + DIMS_GRIDS,
                         ids=lambda v: str(v))
def test_sweep_matches_exact_brute_force(lam, cfg):
    assert_sweep_matches_brute_force(lam, cfg)


@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS, ids=lambda v: str(v))
def test_sweep_forced_onto_python_ints_matches_exact_brute_force(monkeypatch, lam, cfg):
    # a magnitude bound of 2**63 puts every functional's columns on Python ints
    monkeypatch.setattr(ucv.search, "_bound", lambda table, monomials, caps: 2**63)
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


@pytest.mark.parametrize("block", ["one cell", "7 cells", "40 cells", "150 cells", "a third", "one tail a chunk"])
@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS, ids=lambda v: str(v))
def test_sweep_ties_across_block_boundaries(monkeypatch, lam, cfg, block):
    # the tie rule must hold across table boundaries: tables of one cell
    # (a bound table then holds one run's two ends), of 7, 40 or 150 cells,
    # or of a third of the feasible points plus one; and across chunks and
    # batches of one tail, each kept tail scored as soon as it is kept
    sizes = {"one cell": 1, "7 cells": 7, "40 cells": 40, "150 cells": 150}
    size = sizes.get(block, feasible_count(lam, cfg) // 3 + 1)
    if block == "one tail a chunk":
        monkeypatch.setattr(ucv.search, "_CHUNK", 1)
        monkeypatch.setattr(ucv.search, "_BATCH", 1)
        size = ucv.search._SWEEP_BLOCK
    monkeypatch.setattr(ucv.search, "_SWEEP_BLOCK", size)
    scored = spy_scoring(monkeypatch)
    assert_sweep_matches_brute_force(lam, cfg)
    assert all(rows * tails <= max(size, 2) for rows, tails in scored["bounds"])
    assert all(rows * tails <= size for rows, tails in scored["tables"])


@pytest.mark.parametrize("block", [None, 1, 5], ids=["default", "one cell", "five cells"])
def test_sweep_tie_along_a_segment_goes_to_the_least_point(monkeypatch, block):
    # (b2 + 2 b3) - (b1 - b2/2 - 2 b3)^2 is at most lambda = 1, reached on
    # the budget facet where b1 = b2/2 + 2 b3: at step 1/8 and dims 3 on
    # four points, each inside its tail's range of b1 and in its own slice;
    # the least point must win, where the least tail of the four would give
    # (7/8, 1/4, 3/8, 0)
    def evaluate(b):
        off = b[0] - b[1] / 2 - 2 * b[2]
        return b[1] + 2 * b[2] - off * off

    segment = Functional("SEGMENT", None, evaluate, lambda lam: (None, None))
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 8), dims=3)
    if block:
        monkeypatch.setattr(ucv.search, "_SWEEP_BLOCK", block)
    ties = [b for b in enumerate_feasible(lam, cfg) if segment.evaluate(b) == 1]
    assert ties == [(F(1, 2) + F(j, 8), 1 - F(j, 4), F(j, 8), F(0)) for j in range(4)]
    assert _sweep(lam, cfg, [segment])[("SEGMENT", "max")] == (1.0, ties[0], ties[-1])


@pytest.mark.parametrize("block", [None, 1, 3 * 41], ids=["default", "one cell", "123 cells"])
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
    assert got[("B1", "min")][:2] == got[("B3", "min")][:2] == (0.0, zero)


# exact ties whose floats differ by an ulp, so that a float score would
# break them by rounding; the first point is the least: H2F max at
# lambda = 1/2, step 1/7, H3F max at lambda = 3/4, step 1/20, dims 5 (it
# ignores b1, so every b1 ties too) and Z24 min at lambda = 1/3, step 1/10
EXACT_TIES = [
    ("H2F", "max", F(1, 2), SearchConfig(grid_step=F(1, 7)), F(6, 49),
     [(F(6, 7), F(0), F(1, 7), F(0)), (F(1), F(1, 7), F(1, 7), F(0))]),
    ("H3F", "max", F(3, 4), SearchConfig(grid_step=F(1, 20), dims=5), F(9, 200),
     [(F(0), F(3, 10), F(0), F(3, 20), F(0)), (F(0), F(9, 20), F(0), F(1, 10), F(0))]),
    ("Z24", "min", F(1, 3), SearchConfig(grid_step=F(1, 10)), F(-9, 100),
     [(F(0), F(3, 10), F(0), F(0)), (F(9, 10), F(0), F(1, 10), F(0))]),
]


@pytest.mark.parametrize("name,direction,lam,cfg,value,points", EXACT_TIES, ids=lambda v: str(v))
def test_sweep_takes_the_least_of_an_exact_tie(name, direction, lam, cfg, value, points):
    fn = functional_by_name(name)
    values = {b: fn.evaluate(b) for b in enumerate_feasible(lam, cfg)}
    assert value == (max if direction == "max" else min)(values.values())
    assert [values[b] for b in points] == [value] * 2 and min(b for b in values if values[b] == value) == points[0]
    floats = [fn.evaluate(tuple(float(x) for x in b)) for b in points]
    assert floats[0] != floats[1]
    far = max(b for b in values if values[b] == value)
    assert _sweep(lam, cfg, [fn], (direction,))[(name, direction)] == (floats[0] + 0.0, points[0], far)


def test_refine_polishes_the_far_end_of_an_exact_tie():
    # Z24 min at lambda = 1/3, step 1/10 ties at (0, 3/10, 0, 0) and
    # (9/10, 0, 1/10, 0): the polish from the least point stops on the b2
    # axis, from the greatest it follows b1 b3 down, and its value wins
    fn, lam, cfg = functional_by_name("Z24"), F(1, 3), SearchConfig(grid_step=F(1, 10), refine_rounds=1)
    value, arg, far = _sweep(lam, cfg, [fn], ("min",))[("Z24", "min")]
    assert [arg, far] == EXACT_TIES[2][-1]
    assert _refine(lam, cfg, fn, "min", arg, value)[:2] == ((F(0), F(33, 100), F(0), F(0)), -0.10890000000000001)
    assert _refine(lam, cfg, fn, "min", arg, value, far)[:2] == ((F(21, 25), F(0), F(4, 25), F(0)), -0.1344)
    assert optimize(fn, lam, "min", cfg).searched_value == -0.1344


def spy_scoring(monkeypatch):
    """Record what the sweep scores point by point: the (k1 rows, tails) of
    each Horner table, and the (run ends, tails) of each table of run
    bounds."""
    horner, parts = ucv.search._horner, ucv.search._parts
    scored, bounding = {"tables": [], "bounds": []}, []

    def spy_horner(cols, x):
        if not bounding:  # not a bound
            assert np.ndim(x) == 2  # a table: the sweep scores no point alone
            scored["tables"].append((*np.shape(x)[:1], cols.shape[1]))
        return horner(cols, x)

    def spy_parts(cols, x):
        if np.ndim(x) == 2:  # not the per-tail parts at m
            scored["bounds"].append(np.shape(x))
        bounding.append(True)
        try:
            return parts(cols, x)
        finally:
            bounding.pop()

    monkeypatch.setattr(ucv.search, "_horner", spy_horner)
    monkeypatch.setattr(ucv.search, "_parts", spy_parts)
    return scored


def test_registry_sweep_scores_a_small_share_of_its_points(monkeypatch):
    # the registry sweep at lambda = 1, step 1/200, dims 4: the whole-tail
    # bound leaves only A4C and A5C tails to the runs, whose bounds take
    # 5,343,250 ends, and the tables score 87,504 cells; with the tail
    # filter off the run bounds would take twice as many ends as there are
    # points
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 200))
    tails = _tail_units(200, (1, 2, 3))
    points = int(np.maximum(201 - tails.astype(int) @ np.array([-1, 1, -1]), 0).sum())
    assert points == 56_855_021
    scored = spy_scoring(monkeypatch)
    got = _sweep(lam, cfg, FUNCTIONALS)
    assert got[("A3", "max")][:2] == (5.0, (F(2), F(1), F(0), F(0)))
    cells = {key: sum(math.prod(shape) for shape in shapes) for key, shapes in scored.items()}
    assert 0 < cells["bounds"] <= points / 8
    assert 0 < cells["tables"] <= points / 200
    assert all(rows * tails <= ucv.search._SWEEP_BLOCK for rows, tails in scored["tables"] + scored["bounds"])


# -- the AN(n) sweep ---------------------------------------------------------


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
# the default chunk, batch, table and run sizes; chunks of 21 cells (one
# to ten tails), batches of 3 kept tails and tables of a few cells, which
# cut a tail's runs into several tables and hold fewer cells than a run of
# the default size; runs of one k1 and of three
AN_SIZES = {"default sizes": (None, None, None, None), "small chunks, tables of 5": (21, 3, 5, None),
            "tables of 40": (None, None, 40, None), "runs of 1": (None, None, None, 1),
            "runs of 3": (None, None, None, 3)}


@functools.cache
def an_reference(lam, cfg, n):
    return extremes_by_fractions(lam, cfg, [an_functional(n)])


def assert_an_sweep_is_exact(lam, cfg, n, directions):
    """The sweep's AN(n) winners in the directions asked for against the
    exact brute force: the least and the greatest exact argmax and argmin,
    each valued by one float evaluate at the least."""
    fn = an_functional(n)
    got = _sweep(lam, cfg, [fn], directions)
    assert list(got) == [(fn.name, d) for d in directions]
    for direction in directions:
        exact, arg, far = an_reference(lam, cfg, n)[fn.name, direction]
        value, point, last = got[(fn.name, direction)]
        assert (point, last) == (arg, far), (direction, point, last, arg, far)
        assert value == fn.evaluate(tuple(float(x) for x in arg)) + 0.0
        assert math.copysign(1.0, value) == 1.0  # cleared of -0.0
        assert value == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


def set_an_sizes(monkeypatch, sizes):
    for name, size in zip(("_CHUNK", "_BATCH", "_SWEEP_BLOCK", "_RUN"), AN_SIZES[sizes]):
        if size:
            monkeypatch.setattr(ucv.search, name, size)


def spy_an_build(monkeypatch, force_object=False):
    """Record the exact AN build: the expansions that _an_coefficient runs
    over polynomials with Python-int coefficients (_integer_monomials),
    and the dtypes of the tail columns that _columns multiplies per chunk.
    With force_object the magnitude bound reads 2**63, which puts any grid
    on Python ints."""
    coefficient, columns = ucv.model._an_coefficient, ucv.search._columns
    build = {"expansions": 0, "dtypes": set()}

    def spy_coefficient(b, n):
        if isinstance(b[0], _Polynomial):  # not the value of a winner
            assert all(type(c) is int for p in b for c in p.values())
            build["expansions"] += 1
        return coefficient(b, n)

    def spy_columns(part, steps, table):
        build["dtypes"].update(part[:, v].dtype for v in range(part.shape[1]))
        return columns(part, steps, table)

    monkeypatch.setattr(ucv.model, "_an_coefficient", spy_coefficient)
    monkeypatch.setattr(ucv.search, "_columns", spy_columns)
    if force_object:
        monkeypatch.setattr(ucv.search, "_bound", lambda table, monomials, caps: 2**63)
    return build


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
@pytest.mark.parametrize("sizes", ["default sizes", "small chunks, tables of 5", "runs of 1", "runs of 3"])
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


def draw_columns(data):
    """(cols, lead, terms) of P = lead x^r + cols[r-1] x^(r-1) + ... per
    tail, the lead nonzero of either sign, so that P is not constant."""
    r, tails = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 4))
    big = data.draw(st.sampled_from([2**10, 2**40, 2**80]))
    cols = [[data.draw(st.integers(-big, big)) for _ in range(tails)] for _ in range(r)]
    lead = [data.draw(st.integers(1, big)) * data.draw(st.sampled_from([1, -1])) for _ in range(tails)]
    return cols, lead, cols + [lead]


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_enclosure_holds_at_every_k1(data):
    # P = cols[r] x^r + ... + cols[0] per tail, with its own m: P and N at
    # 0 are C_0 and its negative part, as the sweep reads them, and at m
    # exact; from them P+(0) + N(m) <= P(k1) <= P+(m) + N(0) at every k1 in
    # [0, m], on Python ints past 2**63 and on int64 below it.  Inside the
    # tail the score s P, or s |P|, stays strictly within the bound this
    # gives on it, but for a zero of P: the sweep drops a tail whose bound
    # only ties
    cols, lead, terms = draw_columns(data)
    tails = len(lead)
    m = [data.draw(st.integers(0, 12)) for _ in range(tails)]

    def part(t, x, sign):  # the sum of tail t's terms of this sign, at x
        return sum(c[t] * x**i for i, c in enumerate(terms) if sign * c[t] > 0)

    # int64 holds every coefficient and partial sum when, as the sweep's _bound does, x = max(m, 1) keeps this
    # below 2**63
    size = max(sum(abs(c[t]) * max(m[t], 1) ** i for i, c in enumerate(terms)) for t in range(tails))
    for dtype in [object] + [np.int64] * (size < 2**63):
        at, neg = ucv.search._parts(np.array(terms, dtype=dtype), np.array([[0] * tails, m], dtype=dtype))
        assert at[0].tolist() == cols[0] and neg[0].tolist() == [min(c, 0) for c in cols[0]]
        lower, upper = ucv.search._enclosure(at, neg)
        at, lower, upper = at.tolist(), lower.tolist(), upper.tolist()
        for t in range(tails):
            values = [part(t, x, 1) + part(t, x, -1) for x in range(m[t] + 1)]
            assert lower[0][t] <= min(values) and max(values) <= upper[0][t]
            assert all(lower[0][t] < v < upper[0][t] for v in values[1:-1])
            least = max(lower[0][t], -upper[0][t], 0)
            assert all(least < abs(v) < max(upper[0][t], -lower[0][t]) or v == least == 0 for v in values[1:-1])
            assert (lower[0][t], upper[0][t]) == (part(t, 0, 1) + part(t, m[t], -1), part(t, m[t], 1) + part(t, 0, -1))
            assert (at[0][t], at[1][t]) == (cols[0][t], values[-1])


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_enclosure_holds_on_every_run(data):
    # the bound of each run [a, b] of k1 between two neighbouring points,
    # per tail, the points rising from 0 or more: P+(a) + N(b) <= P(k1) <=
    # P+(b) + N(a) at every k1 in [a, b], and P exact at the points, on
    # Python ints past 2**63 and on int64 below it.  Strictly inside the
    # run the score stays strictly within the bound this gives on it, but
    # for a zero of P: a run's bound is reached only at a or b, which is
    # why the sweep compares (bound, -a) with the best (score, -k1)
    cols, lead, terms = draw_columns(data)
    tails = len(lead)
    points = [[data.draw(st.integers(0, 12)) for _ in range(tails)]]
    for _ in range(data.draw(st.integers(1, 3))):
        points.append([x + data.draw(st.integers(0, 12)) for x in points[-1]])

    def part(t, x, sign):  # the sum of tail t's terms of this sign, at x
        return sum(c[t] * x**i for i, c in enumerate(terms) if sign * c[t] > 0)

    size = max(sum(abs(c[t]) * max(points[-1][t], 1) ** i for i, c in enumerate(terms)) for t in range(tails))
    for dtype in [object] + [np.int64] * (size < 2**63):
        at, neg = ucv.search._parts(np.array(terms, dtype=dtype), np.array(points, dtype=dtype))
        lower, upper = (x.tolist() for x in ucv.search._enclosure(at, neg))
        at = at.tolist()
        for (i, a), t in itertools.product(enumerate(points[:-1]), range(tails)):
            b = points[i + 1][t]
            values = [part(t, x, 1) + part(t, x, -1) for x in range(a[t], b + 1)]
            assert lower[i][t] <= min(values) and max(values) <= upper[i][t]
            assert all(lower[i][t] < v < upper[i][t] for v in values[1:-1])
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
    scored = spy_scoring(monkeypatch)
    _sweep(lam, cfg, [an_functional(n)], ("max",))
    # a run of one k1 is bounded by its value, so it is scored only where it beats the best end
    assert scored["bounds"] and (scored["tables"] or ucv.search._RUN == 1)
    assert all(rows * tails <= ucv.search._SWEEP_BLOCK for rows, tails in scored["tables"] + scored["bounds"])


def test_an_conjecture_sweep_scores_under_a_quarter_of_its_points(monkeypatch):
    # the sweep of conjecture --n 6: the bound drops the tails that cannot
    # reach the maximum, so the run bounds and the tables score at most a
    # quarter of the lattice's feasible points; the run bounds leave the
    # tables under one point in a hundred
    lam, cfg = F(1), SearchConfig(dims=5)
    tails = _tail_units(50, (1, 2, 3, 4))
    points = int(np.maximum(51 - tails.astype(int) @ np.array([-1, 1, -1, 1]), 0).sum())
    assert points == 941_438
    scored = spy_scoring(monkeypatch)
    assert _sweep(lam, cfg, [an_functional(6)], ("max",))[("AN(6)", "max")][0] == 6.0
    cells = {key: sum(math.prod(shape) for shape in shapes) for key, shapes in scored.items()}
    assert 0 < sum(cells.values()) <= points / 4
    assert 0 < cells["tables"] <= points / 100
    assert all(rows * tails <= ucv.search._SWEEP_BLOCK for rows, tails in scored["tables"] + scored["bounds"])


def test_an_sweep_runs_no_recursion_per_point(monkeypatch):
    # _an_coefficient runs once per sweep on polynomials in (b1, b2..b_dims)
    # and once per winner on floats, one per direction asked for: never on
    # the points' arrays; each chunk of tails (six coefficients each, in at
    # most _CHUNK cells, and at most _BATCH tails) reads its columns off the
    # one expansion
    calls = collections.Counter()

    def counting(real):
        def spy(b, n):
            kind = ("build" if isinstance(b[0], _Polynomial) else "scalar" if all(type(x) is float for x in b)
                    else "other")
            calls[kind] += 1
            return real(b, n)
        return spy

    def columns(part, steps, table):
        calls["chunk"] += 1
        return real_columns(part, steps, table)

    real_columns = ucv.search._columns
    monkeypatch.setattr(ucv.model, "_an_coefficient", counting(ucv.model._an_coefficient))
    monkeypatch.setattr(ucv.search, "_columns", columns)
    lam, cfg = F(1), SearchConfig(dims=5)  # the sweep of conjecture --n 6
    tails = len(_tail_units(50, (1, 2, 3, 4)))  # every tail has a feasible b1 here
    size = min(ucv.search._CHUNK // 6, ucv.search._BATCH)
    assert tails > 2 * size
    _sweep(lam, cfg, [an_functional(6)], ("max",))
    assert calls == {"build": 1, "chunk": -(-tails // size), "scalar": 1}


def test_an_sweep_holds_no_column_past_its_batch():
    # the sweep of conjecture --n 8 at step 1/80: 1,080,266 tails, 156,889
    # of them kept past the whole-tail bound, with eight columns each.  Its
    # traced peak, 41.1 MB, is the tail lattice and its slack order; holding
    # every kept column until one join took it to 53.1 MB
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 80), dims=7)
    tracemalloc.start()
    try:
        got = _sweep(lam, cfg, [an_functional(8)], ("max",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arg = (F(2), F(1)) + (F(0),) * 5
    assert got == {("AN(8)", "max"): (8.0, arg, arg)}
    assert peak < 46 * 10**6


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
    coarse, arg, _ = _sweep(F(37, 100), cfg, [a4])[("A4", "max")]
    up = _refine(F(37, 100), cfg, a4, "max", arg, coarse)[2]
    assert up[0] == coarse
    assert up == sorted(up)
    coarse, arg, _ = _sweep(F(61, 100), cfg, [h2f])[("H2F", "min")]
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
    # an exact tie whose far end polishes to a better value than its least point
    ("Z24", "min", F(1, 3), SearchConfig(grid_step=F(1, 10))),
    # D passes 2**53 mid-refinement: the pass moves from int64 to Python ints
    ("A3", "max", F(1, 2), SearchConfig(refine_rounds=15)),
    ("H2F", "max", F(1), SearchConfig(grid_step=F(1, 10), refine_rounds=15)),
    # the 7-row gate table (width 5) on Python ints; the point nears 2/7 with b4 > 0
    ("H2F", "max", F(1), SearchConfig(grid_step=F(1, 10), dims=5, refine_rounds=15)),
]


@pytest.mark.parametrize("name,direction,lam,cfg", REFINE_CASES, ids=lambda v: str(v))
def test_refine_matches_fraction_reference(name, direction, lam, cfg):
    fn = functional_by_name(name)
    value, arg, far = _sweep(lam, cfg, [fn])[(fn.name, direction)]
    got = _refine(lam, cfg, fn, direction, arg, value, far)
    want = refine_by_fractions(lam, cfg, fn, direction, arg, value, far)
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
            value, arg, far = incumbents[(fn.name, direction)]
            point, refined, history = _refine(lam, cfg, fn, direction, arg, value, far)
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
