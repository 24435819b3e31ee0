"""Extremal search: the exact sweep against an exact brute force, the
vertex + edge pass against oracles over Fraction, frozen bound values,
certificate plumbing, and the conjecture scan."""

from __future__ import annotations

import collections
import dataclasses
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
    EXPANSIONS,
    an_coefficient_by_recursion,
    edge_polynomial_by_fractions,
    edges_by_fractions,
    enumerate_feasible,
    exact_value,
    extremes_by_fractions,
    random_member,
    vertices_by_fractions,
)
from ucv.cli import CSV_HEADER, certificate_to_dict, certificates_to_csv
from ucv.model import (
    AN_MAX,
    FUNCTIONAL_NAMES,
    FUNCTIONALS,
    Functional,
    _Polynomial,
    _reciprocal,
    an_functional,
    f_series,
    functional_by_name,
    validate,
)
from ucv.rootcheck import UnitPolynomial
from ucv.search import (
    BoundCertificate,
    SearchConfig,
    _edge_columns,
    _edges,
    _polytope_best,
    _roots,
    _sweep,
    _tail_units,
    _vertices,
    _wins,
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


@functools.cache
def oracle_vertices(lam, dims):
    return vertices_by_fractions(lam, dims)


def as_fractions(point):
    """A search point (d, N), the point N / d, as Fractions."""
    return tuple(F(c, point[0]) for c in point[1])


def swept(got, fn, direction):
    """A row of _sweep's result as (its exact value, its point as Fractions)."""
    value, point = got[fn.name, direction]
    return value, as_fractions(point)


def lattice(cfg):
    """cfg without the vertex + edge pass: _sweep then returns the lattice winner."""
    return dataclasses.replace(cfg, refine_rounds=0)


def vertex_points(lam, dims):
    d, vertices = _vertices(lam, dims)
    return [tuple(F(c, d) for c in v) for v in vertices]


def assert_pass_is_no_worse(lam, dims, fn, direction, got, exact, arg):
    """The pass's winner (value, point) against the lattice's exact extremum
    (exact, at its least point arg) and every oracle vertex: a member whose
    exact value is got's, no worse than any of them, and no larger than any
    of them that ties it."""
    value, point = got
    sign = 1 if direction == "max" else -1
    validate(lam, point)
    assert exact_value(fn, point) == value
    rivals = [(exact_value(fn, v), v) for v in oracle_vertices(lam, dims)] + [(exact, arg)]
    assert all(sign * value >= sign * v for v, _ in rivals), (fn.name, direction, value)
    assert all(point <= b for v, b in rivals if v == value), (fn.name, direction, point)


def assert_sweep_matches_brute_force(lam, cfg):
    """The sweep's winners against the exact brute force: the least point
    of each exact extremum, with its exact value; then the vertex + edge
    pass on the same sweep is no worse than it or any vertex."""
    fns = [functional_by_name(n) for n in SWEEP_NAMES]
    got, passed = _sweep(lam, lattice(cfg), fns), _sweep(lam, cfg, fns)
    for fn in fns:
        for direction in ("max", "min"):
            exact, arg = sweep_reference(lam, cfg)[fn.name, direction]
            assert swept(got, fn, direction) == (exact, arg), (fn.name, direction)
            assert_pass_is_no_worse(lam, cfg.dims, fn, direction, swept(passed, fn, direction), exact, arg)


@functools.cache
def feasible_count(lam, cfg):
    return sum(1 for _ in enumerate_feasible(lam, cfg))


# floor(1/step) = 1 at step 2/3: the sweep's b1 stops at 2, the oracle's cap at 3
@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS + [(F(1), SearchConfig(grid_step=F(2, 3)))] + DIMS_GRIDS,
                         ids=lambda v: str(v))
def test_sweep_matches_exact_brute_force(lam, cfg):
    assert_sweep_matches_brute_force(lam, cfg)


def spy_tiers(monkeypatch):
    """Record the dtype of the tail columns of each chunk that _columns builds."""
    columns, tiers = ucv.search._columns, []

    def spy(part, steps, table):
        tiers.append(part.dtype)
        return columns(part, steps, table)

    monkeypatch.setattr(ucv.search, "_columns", spy)
    return tiers


# every grid here takes int32 by its own bound; a forced bound of 2**31 puts it on int64, and 2**63 on Python ints
@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS, ids=lambda v: str(v))
def test_sweep_forced_onto_int64_matches_exact_brute_force(monkeypatch, lam, cfg):
    monkeypatch.setattr(ucv.search, "_bound", lambda table, monomials, caps: 2**31)
    tiers = spy_tiers(monkeypatch)
    assert_sweep_matches_brute_force(lam, cfg)
    assert set(tiers) == {np.dtype(np.int64)}


@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS, ids=lambda v: str(v))
def test_sweep_forced_onto_python_ints_matches_exact_brute_force(monkeypatch, lam, cfg):
    monkeypatch.setattr(ucv.search, "_bound", lambda table, monomials, caps: 2**63)
    tiers = spy_tiers(monkeypatch)
    assert_sweep_matches_brute_force(lam, cfg)
    assert set(tiers) == {np.dtype(object)}


@pytest.mark.parametrize("bound,tier", [(2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64),
                                        (2**63, object)], ids=str)
def test_sweep_tier_flips_at_the_bound(monkeypatch, bound, tier):
    # step 1/10 keeps big^2 far below 2**31, so the bound alone picks the tier; at 2**31 - 1 and 2**63 - 1 the floor
    # below every score, -bound - 1, is the tier's least value
    monkeypatch.setattr(ucv.search, "_bound", lambda table, monomials, caps: bound)
    tiers = spy_tiers(monkeypatch)
    assert_sweep_matches_brute_force(*SWEEP_GRIDS[0])
    assert set(tiers) == {np.dtype(tier)}


@pytest.mark.parametrize("past,tier", [(0, np.int32), (1, np.int64)])
def test_sweep_tier_flips_at_big_squared(monkeypatch, past, tier):
    # dims 1 at step 1/30000: one tail, k1 up to 30000 + budget, so big = 30000 + budget + _RUN + 1 is 46340, whose
    # square is below 2**31, or 46341, whose square is past it; A2 = b1 keeps _bound below 2**16
    assert 46340**2 < 2**31 < 46341**2
    budget = 46340 - 30001 - ucv.search._RUN + past
    lam, cfg, fn = F(budget, 30000), SearchConfig(dims=1, grid_step=F(1, 30000)), functional_by_name("A2")
    tiers = spy_tiers(monkeypatch)
    got = _sweep(lam, cfg, [fn])
    assert set(tiers) == {np.dtype(tier)}
    assert [swept(got, fn, d) for d in ("max", "min")] == [(1, (F(1),) + (F(0),) * 3), (0, (F(0),) * 4)]


def test_default_grid_sweeps_in_int32_and_step_one_hundredth_in_int64(monkeypatch):
    # on the five-lambda grid _bound is 24 to 28 bits; at step 1/100 it is 32 bits at lambda = 1, 31 at 3/4
    tiers = spy_tiers(monkeypatch)
    verify_bounds(GRID5)
    assert set(tiers) == {np.dtype(np.int32)}
    for lam, tier in ((F(3, 4), np.int32), (F(1), np.int64)):
        tiers.clear()
        verify_bounds([lam], SearchConfig(grid_step=F(1, 100)))
        assert set(tiers) == {np.dtype(tier)}


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
    # the tie rule must hold across table boundaries: bound tables of one
    # cell (each then holds one tail), of 7, 40 or 150 cells, or of a third
    # of the feasible points plus one; and across chunks of one tail
    sizes = {"one cell": 1, "7 cells": 7, "40 cells": 40, "150 cells": 150}
    size = sizes.get(block, feasible_count(lam, cfg) // 3 + 1)
    if block == "one tail a chunk":
        monkeypatch.setattr(ucv.search, "_CHUNK_BYTES", 1)
        size = ucv.search._SWEEP_BLOCK
    monkeypatch.setattr(ucv.search, "_SWEEP_BLOCK", size)
    scored = spy_scoring(monkeypatch)
    assert_sweep_matches_brute_force(lam, cfg)
    assert_table_sizes(scored)


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

    segment = Functional("SEGMENT", None, lambda c: evaluate(c.b), lambda lam: (None, None))
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 8), dims=3)
    if block:
        monkeypatch.setattr(ucv.search, "_SWEEP_BLOCK", block)
    ties = [b for b in enumerate_feasible(lam, cfg) if segment.evaluate(b) == 1]
    assert ties == [(F(1, 2) + F(j, 8), 1 - F(j, 4), F(j, 8), F(0)) for j in range(4)]
    assert swept(_sweep(lam, lattice(cfg), [segment]), segment, "max") == (1, ties[0])


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
    fns = [Functional("B1", None, lambda c: c.b[0], lambda lam: (None, None)),
           Functional("B3", None, lambda c: c.b[2], lambda lam: (None, None))]
    got = _sweep(lam, lattice(cfg), fns)
    zero = (F(0),) * max(4, cfg.dims)
    assert swept(got, fns[0], "min") == swept(got, fns[1], "min") == (0, zero)


# exact ties whose floats differ by an ulp in the hand expansion
# (EXPANSIONS), so that a float score would break them by rounding; the
# first point is the least: H2F max at
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
    floats = [EXPANSIONS[name](tuple(float(x) for x in b)) for b in points]
    assert floats[0] != floats[1]
    assert swept(_sweep(lam, lattice(cfg), [fn], (direction,)), fn, direction) == (value, points[0])


def test_a_vertex_beats_an_exact_tie_on_the_lattice():
    # Z24 min at lambda = 1/3, step 1/10 ties at (0, 3/10, 0, 0) and
    # (9/10, 0, 1/10, 0), -9/100; the vertex (1 - lambda/2, 0, lambda/2, 0)
    # reaches -5/36, and no edge beats it
    fn, lam, cfg = functional_by_name("Z24"), F(1, 3), SearchConfig(grid_step=F(1, 10), refine_rounds=1)
    assert swept(_sweep(lam, lattice(cfg), [fn], ("min",)), fn, "min") == (F(-9, 100), EXACT_TIES[2][-1][0])
    vertex = (F(5, 6), F(0), F(1, 6), F(0))
    assert swept(_sweep(lam, cfg, [fn], ("min",)), fn, "min") == (F(-5, 36), vertex)
    c = optimize(fn, lam, "min", cfg)
    assert c.argmax == vertex and c.searched_value == float(F(-5, 36))


def test_one_third_table_rows_end_at_a_vertex_or_on_an_edge():
    # the rows of verify --lambda 1/3 --step 1/10 --refine 1 (the table
    # golden): 1/3 is off the lattice, and every row but H3F max, A4C max and
    # A5C min ends at a vertex of the class polytope, with its exact value
    # there, the closed form where there is one.  H3F max ends inside the
    # edge {b1 = b3 = 0, budget} at its closed form lambda^2/12, exactly; A4C
    # max and A5C min inside the edge {b3 = b4 = 0, b2 = lambda} at a rational
    # point within 1e-12 of the irrational optimum b1 = sqrt(2 lambda/3) and
    # sqrt(3 lambda/2), (4 lambda/3) sqrt(2 lambda/3) and -5 lambda^2/4
    lam, cfg = F(1, 3), SearchConfig(grid_step=F(1, 10), refine_rounds=1)
    open_rows = {("Z24", "min"): F(-5, 36), ("A5C", "max"): F(121, 81)}
    certs = verify_bounds([lam], cfg)
    at = [c for c in certs if c.argmax in vertex_points(lam, cfg.dims)]
    inside = {(c.functional, c.direction): c for c in certs if c not in at}
    assert list(inside) == [("H3F", "max"), ("A4C", "max"), ("A5C", "min")]
    for c in at:
        fn = functional_by_name(c.functional)
        exact = open_rows.get((c.functional, c.direction), closed_form_bound(fn, lam, c.direction))
        assert fn.evaluate(c.argmax) == exact, c
        assert c.searched_value == float(exact)
    assert inside["H3F", "max"].argmax == (0, lam / 2, 0, lam / 6)
    assert inside["H3F", "max"].searched_value == float(lam**2 / 12)
    for (name, direction), root, value in [(("A4C", "max"), math.sqrt(2 / 9), 4 / 9 * math.sqrt(2 / 9)),
                                           (("A5C", "min"), math.sqrt(1 / 2), -5 / 36)]:
        c = inside[name, direction]
        assert c.argmax[1:] == (lam, 0, 0) and abs(c.argmax[0] - F(root)) < 1e-12
        assert c.searched_value == float(functional_by_name(name).evaluate(c.argmax))
        assert c.searched_value == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("lam", [F(k, 12) for k in range(1, 13)] + [F(1, 10)], ids=str)
@pytest.mark.parametrize("dims", range(1, 8))
def test_vertices_match_the_oracle(dims, lam):
    # the closed list against every choice of dims tight constraints out of
    # dims + 2, solved over Fraction: 2 dims vertices, 2 at dims 1
    d, got = _vertices(lam, dims)
    assert d == lam.denominator * math.lcm(*range(1, dims)) and got == sorted(set(got))
    assert vertex_points(lam, dims) == oracle_vertices(lam, dims)
    assert len(got) == max(2 * dims, 2)


@pytest.mark.parametrize("lam", [F(1, 10**13), F(1, 10), F(1, 3), F(3, 4), F(1)], ids=str)
@pytest.mark.parametrize("dims", range(1, 8))
def test_edges_match_the_oracle(dims, lam):
    # one pair of index arrays per dims, read off at lambda = 1, against the
    # rank test over Fraction at each lambda: dims^2 edges
    i, j = _edges(dims)
    points = vertex_points(lam, dims)
    got = {(points[a], points[b]) for a, b in zip(i.tolist(), j.tolist())}
    assert len(got) == len(i) == dims**2 and all(a < b for a, b in zip(i, j))
    assert got == edges_by_fractions(lam, dims)


# a sample of functionals, lambdas and dims for the edge polynomials: the registry rows of degree 3 and 4 in b,
# whose derivatives along an edge are quadratic or cubic, and AN(n) of degree up to 7; lambda = 1/10**13 and AN(8)
# at lambda = 1/2 put the columns on Python ints
EDGE_SAMPLE = [(name, lam, dims) for name in ("A4C", "A5C", "H3INV", "Z24", "H2F")
               for lam, dims in ((F(1, 10), 4), (F(1, 3), 5), (F(3, 4), 4), (F(1), 4))]
EDGE_SAMPLE += [("AN(5)", F(1, 2), 4), ("AN(6)", F(1), 5), ("AN(8)", F(1), 7), ("AN(8)", F(1, 2), 7),
                ("A5C", F(1, 10**13), 4)]


@pytest.mark.parametrize("name,lam,dims", EDGE_SAMPLE, ids=str)
def test_edge_candidates_match_fractions(name, lam, dims):
    # each edge's integer polynomial P in t is L dv^deg times the functional
    # along the edge, interpolated over Fraction; the candidates of _roots for
    # P' are the points where the exact derivative vanishes, or brackets of
    # 2**-44 across which it changes sign, and they hold every sign change
    # that the derivative shows at t = k/256
    fn = functional_by_name(name)
    monomials = [ucv.model._integer_monomials(fn, max(4, dims))]
    # P of AN(n) is a_n, whose modulus exact_value reads, so a_n by the reference recursion is interpolated
    signed = dataclasses.replace(fn, an=None, definition=lambda c: an_coefficient_by_recursion(c.b, fn.an)) \
        if fn.an else fn
    lcm, deg, _ = monomials[0]
    dv, vertices = _vertices(lam, dims)
    i, j = _edges(dims)
    cols = _edge_columns(monomials, dv, vertices, (i, j))
    assert cols.dtype == (object if lam.denominator > 10**6 or (name, lam) == ("AN(8)", F(1, 2)) else np.int64)
    points = vertex_points(lam, dims)
    for e, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        want = edge_polynomial_by_fractions(signed, points[a], points[b])
        got = [F(c, lcm * dv**deg) for c in cols[:, 0, e].tolist()]
        assert got == want + [0] * (len(got) - len(want)), (e, got, want)
        slope = [k * c for k, c in enumerate(want)][1:] or [F(0)]

        def at(t):
            return sum(c * t**k for k, c in enumerate(slope))

        marks = [F(p, q) for p, q in _roots([k * c for k, c in enumerate(cols[:, 0, e].tolist())][1:])]
        assert marks == sorted(marks) and all(0 <= t <= 1 for t in marks)
        for t in marks:
            assert at(t) == 0 or any(abs(t - u) <= F(1, 2**43) and at(t) * at(u) < 0 for u in marks)
        grid = [F(k, 256) for k in range(257)]
        for lo, hi in zip(grid, grid[1:]):
            if at(lo) * at(hi) < 0:
                assert any(lo <= t <= hi for t in marks), (e, lo)


@pytest.mark.parametrize("n", [7, 8])
def test_edge_columns_of_high_an_stay_int64(n):
    # AN(7) and AN(8) at lambda = 1: the built coefficients take 42 and 49 bits, and their Bernstein products and
    # vertex values times 2^m C(m, k) stay below 2**63, so the columns are int64, equal to the Python-int build that a
    # companion row with a coefficient of 2**63 forces; the pass then gives the same best on both
    lam, dims = F(1), n - 1
    monomials = [ucv.model._integer_monomials(an_functional(n), max(4, dims))]
    forcing = monomials + [(1, 1, ((2**63, (1,) + (0,) * max(4, dims)),))]  # 2**63 d
    dv, vertices = _vertices(lam, dims)
    cols, wide = (_edge_columns(m, dv, vertices, _edges(dims)) for m in (monomials, forcing))
    assert (cols.dtype, wide.dtype) == (np.int64, object)
    assert cols.tolist() == wide[:, :1].tolist()
    signs = {"max": 1, "min": -1}
    best, forced = (_polytope_best(m, True, signs, dv, vertices, dims) for m in (monomials, forcing))
    assert all(best[0, d] == forced[0, d] for d in signs)


@pytest.mark.parametrize("coeffs", [
    [-1, 3], [1, -3], [0, 0, 1], [2, -6, 3], [1, -4, 4], [-2, 0, 9], [1, -7, 6],  # rational, irrational, double roots
    [0, 1, -3, 2], [-1, 11, -36, 36], [1, -6, 12, -8], [0, 0, 0, 0, 1], [3, -30, 89, -100, 36],
    [1, 0, -5, 0, 4], [-10**40, 3 * 10**40, 0, 0, 0, 1]], ids=str)
def test_roots_bracket_every_sign_change(coeffs):
    # _roots on integer polynomials with roots in (0, 1) that are rational, irrational, double (no sign change),
    # triple (a sign change) and at 0, against the sign changes of the polynomial over Fraction at t = k/4096 and at
    # the marks themselves
    marks = [F(p, q) for p, q in _roots(coeffs)]

    def at(t):
        return sum(c * t**k for k, c in enumerate(coeffs))

    assert marks == sorted(marks) and all(0 <= t <= 1 for t in marks)
    for t in marks:
        assert at(t) == 0 or any(abs(t - u) <= F(1, 2**43) and at(t) * at(u) < 0 for u in marks), t
    grid = [F(k, 4096) for k in range(4097)]
    for lo, hi in zip(grid, grid[1:]):
        if at(lo) * at(hi) < 0 or (at(lo) == 0 < lo and at(lo - F(1, 10**6)) * at(lo + F(1, 10**6)) < 0):
            assert any(lo <= t <= hi for t in marks), lo


SAMPLE_LAMBDAS = [F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1)]
SAMPLE_STEPS = [F(1, 50), F(1, 7), F(1, 10), F(3, 20)]


def pass_or_lattice(lam, cfg, fns, grid):
    """The rows of an unseeded search: the lattice's winner grid (_sweep at
    refine_rounds = 0) and the vertex + edge pass's alone (_polytope_best),
    the better of the two by _wins, a tie to the least point."""
    (dv, vertices), found = _vertices(lam, cfg.dims), {}
    signs = {"max": 1, "min": -1}
    for group in ([fn for fn in fns if not fn.an], [fn for fn in fns if fn.an]):
        monomials = [ucv.model._integer_monomials(fn, max(4, cfg.dims)) for fn in group]
        best = _polytope_best(monomials, bool(group[0].an), signs, dv, vertices, cfg.dims) if group else {}
        for f, (fn, (lcm, _, _)) in enumerate(zip(group, monomials)):
            for direction, s in signs.items():
                value, point = grid[fn.name, direction]
                num, den, at = best[f, direction]
                wins = _wins(s, (num, lcm * den, at), (value.numerator, value.denominator, point))
                found[fn.name, direction] = (F(num, lcm * den), at) if wins else (value, point)
    return found


@pytest.mark.parametrize("step", SAMPLE_STEPS, ids=str)
@pytest.mark.parametrize("dims", [3, 4, 5])
@pytest.mark.parametrize("lam", SAMPLE_LAMBDAS, ids=str)
def test_pass_is_no_worse_than_the_lattice_or_any_vertex(lam, dims, step):
    # every row of the pass, the registry's and AN(5)'s, is a member whose
    # exact value is no worse than the lattice's winner or any vertex of the
    # class polytope, and no larger a point than a rival it ties.  The pass
    # seeds the sweep, which then scores only what ties or beats it: every
    # row, value and point (d, N) alike, is the unseeded search's
    cfg, fns = SearchConfig(dims=dims, grid_step=step), [functional_by_name(n) for n in SWEEP_NAMES]
    grid, passed = _sweep(lam, lattice(cfg), fns), _sweep(lam, cfg, fns)
    assert passed == pass_or_lattice(lam, cfg, fns, grid)
    for fn in fns:
        for direction in ("max", "min"):
            exact, arg = swept(grid, fn, direction)
            assert_pass_is_no_worse(lam, dims, fn, direction, swept(passed, fn, direction), exact, arg)


def bump(b, lam):
    """b1 - b1^2 + (lam/2) b2 - b2^2 = 1/4 + lam^2/16 - (b1 - 1/2)^2 - (b2 -
    lam/4)^2, with no constant term, as the definitions are written: it
    ignores b3, and its least argmax, (1/2, lam/4, 0, ...), is inside a
    2-face of the class polytope, on no edge."""
    return b[0] - b[0] * b[0] + b[1] * (lam / 2) - b[1] * b[1]


def test_the_lattice_beats_the_seed_at_an_interior_maximum():
    # the pass's best, on an edge, is below the maximum 5/16; the seed is its score rounded up to the lattice's
    # units, and the lattice's 5/16 at (1/2, 1/4, 0, 0) beats it
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 8), dims=3)
    fn = Functional("BUMP", None, lambda c: bump(c.b, lam), lambda lam: (None, None))
    monomials = [ucv.model._integer_monomials(fn, 4)]
    num, den, _ = _polytope_best(monomials, False, {"max": 1}, *_vertices(lam, 3), 3)[0, "max"]
    assert F(num, monomials[0][0] * den) < F(5, 16)
    top = (F(5, 16), (F(1, 2), F(1, 4), F(0), F(0)))
    assert swept(_sweep(lam, cfg, [fn], ("max",)), fn, "max") == top
    assert swept(_sweep(lam, lattice(cfg), [fn], ("max",)), fn, "max") == top


def test_the_lattice_ties_the_seed_at_a_smaller_point():
    # m + (BUMP - m) |b - (1, 0, 0)|^2, m = 5/16 the maximum of BUMP, reaches its maximum m at the vertex (1, 0, 0),
    # which the pass finds, and at the smaller lattice points (1/2, 1/4, b3): the seed is the pass's score, which
    # the lattice ties, and the least point wins
    lam, cfg, top = F(1), SearchConfig(grid_step=F(1, 8), dims=3), F(5, 16)

    def evaluate(c):
        b1, b2, b3 = c.b[:3]
        far = b1 * b1 - 2 * b1 + b2 * b2 + b3 * b3  # |b - (1, 0, 0)|^2 - 1
        return bump(c.b, lam) * far + bump(c.b, lam) - far * top

    fn = Functional("TWO", None, evaluate, lambda lam: (None, None))
    monomials = [ucv.model._integer_monomials(fn, 4)]
    num, den, point = _polytope_best(monomials, False, {"max": 1}, *_vertices(lam, 3), 3)[0, "max"]
    assert (F(num, monomials[0][0] * den), as_fractions(point)) == (top, (F(1), F(0), F(0), F(0)))
    ties = [b for b in enumerate_feasible(lam, cfg) if fn.evaluate(b) == top]
    assert ties[0] == (F(1, 2), F(1, 4), F(0), F(0)) and (F(1), F(0), F(0), F(0)) in ties
    assert swept(_sweep(lam, cfg, [fn], ("max",)), fn, "max") == (top, ties[0])


@pytest.mark.parametrize("rounds", [0, 3])
def test_one_bound_table_holds_a_tail_past_a_block(monkeypatch, rounds):
    # dims 1 at step 1/70000: one tail of 70,001 values of k1 in 8,751 runs, whose 8,752 ends pass _SWEEP_BLOCK and
    # sit in one bound table; b1 - b1^2 peaks at 1/4 at b1 = 1/2, inside the tail
    lam, cfg = F(1), SearchConfig(dims=1, grid_step=F(1, 70_000), refine_rounds=rounds)
    fn = Functional("BUMP", None, lambda c: bump(c.b, lam), lambda lam: (None, None))
    scored = spy_scoring(monkeypatch)
    assert swept(_sweep(lam, cfg, [fn], ("max",)), fn, "max") == (F(1, 4), (F(1, 2), F(0), F(0), F(0)))
    ends = 70_000 // ucv.search._RUN + 2
    assert ends > ucv.search._SWEEP_BLOCK and (ends, 1) in scored["bounds"]


@pytest.mark.parametrize("step", [F(1, 1_520_000_000), F(1, 3 * 10**9), F(1, 10**12)], ids=str)
@pytest.mark.parametrize("rounds", [0, 1])
@pytest.mark.parametrize("name,direction,value", [("A2C", "min", -1), ("A3C", "max", 1)])
def test_sweep_keys_past_int64_at_fine_steps(name, direction, value, rounds, step):
    # dims 1: one tail, k1 up to 2 / step.  The point keys k1 big + row reach big^2 with big = 2 / step + _RUN + 1,
    # past 2**63 at every step here; k1 passes 2**31, so the row and k1 arrays are int64
    fn, lam = functional_by_name(name), F(1)
    got = _sweep(lam, SearchConfig(dims=1, grid_step=step, refine_rounds=rounds), [fn], (direction,))
    assert swept(got, fn, direction) == (value, (F(1), F(0), F(0), F(0)))


def test_the_pass_runs_the_same_for_any_round_count():
    # --refine N >= 1 runs one pass, whatever N is; 0 prints the lattice's winner
    lam, fns = F(3, 4), [functional_by_name(n) for n in SWEEP_NAMES]
    runs = [_sweep(lam, SearchConfig(grid_step=F(1, 10), refine_rounds=r), fns) for r in (1, 2, 6, 15)]
    assert all(run == runs[0] for run in runs)
    assert runs[0] != _sweep(lam, SearchConfig(grid_step=F(1, 10), refine_rounds=0), fns)


def test_edge_pass_work_on_the_default_grid(monkeypatch):
    # a deterministic count of the pass's work: on the five-lambda grid the
    # Bernstein bound drops all but 25 of the 2,560 (row, edge) pairs, and
    # only these look for the roots of P', 5 of them a cubic's (A5C); the
    # sweep's P+ / N enclosure on [0, 1] kept 146
    calls = collections.Counter()
    roots = ucv.search._roots

    def counted(poly):
        calls[len(poly)] += 1
        return roots(poly)

    monkeypatch.setattr(ucv.search, "_roots", counted)
    assert len(verify_bounds(GRID5)) == 160
    assert calls == {4: 25, 3: 5}


def test_seeded_sweep_work_on_the_default_grid(monkeypatch):
    # a deterministic count of the sweep's work on the five-lambda grid: the pass's optimum seeds each row, so
    # the run bounds take 51,800 ends and the tables score 10,480 cells; the sweep from an empty best took 111,600
    # and 129,536
    scored = spy_scoring(monkeypatch)
    assert len(verify_bounds(GRID5)) == 160
    cells = {key: sum(math.prod(shape) for shape in shapes) for key, shapes in scored.items()}
    assert 0 < cells["tables"] <= 12_000 and 0 < cells["bounds"] <= 60_000


def test_fractions_built_by_the_default_grid(monkeypatch):
    # a deterministic count of the Fractions that one verify of the
    # five-lambda grid builds once its caches are warm: 1,476, where
    # rebuilding each point as Fractions between the sweep and the polish
    # took 2,970
    verify_bounds(GRID5)
    built, new = [0], Fraction.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert len(verify_bounds(GRID5)) == 160
    assert 0 < built[0] <= 1_600


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


def assert_table_sizes(scored):
    # a bound table holds at most _SWEEP_BLOCK cells, or one tail; a cell table has _RUN rows
    assert all(rows * tails <= ucv.search._SWEEP_BLOCK or tails == 1 for rows, tails in scored["bounds"])
    assert all(rows == ucv.search._RUN for rows, _ in scored["tables"])


def test_registry_sweep_scores_a_small_share_of_its_points(monkeypatch):
    # the registry sweep at lambda = 1, step 1/200, dims 4: the whole-tail
    # bound leaves only A4C and A5C tails to the runs, whose bounds take
    # 5,342,437 ends, and the tables score 95,128 cells; with the tail
    # filter off the run bounds would take twice as many ends as there are
    # points
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 200))
    tails = _tail_units(200, (1, 2, 3))
    points = int(np.maximum(201 - tails.astype(int) @ np.array([-1, 1, -1]), 0).sum())
    assert points == 56_855_021
    scored = spy_scoring(monkeypatch)
    got = _sweep(lam, lattice(cfg), FUNCTIONALS)
    assert swept(got, functional_by_name("A3"), "max") == (5, (F(2), F(1), F(0), F(0)))
    cells = {key: sum(math.prod(shape) for shape in shapes) for key, shapes in scored.items()}
    assert 0 < cells["bounds"] <= points / 8
    assert 0 < cells["tables"] <= points / 200
    assert_table_sizes(scored)


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
# the default chunk, table and run sizes; chunks of 84 bytes (21 int32
# cells, one to ten tails; 10 int64 cells) and bound tables of 5 or 40
# cells, which cut the kept tails into groups of one or a few; runs of one
# k1 and of three
AN_SIZES = {"default sizes": (None, None, None), "small chunks, tables of 5": (84, 5, None),
            "tables of 40": (None, 40, None), "runs of 1": (None, None, 1), "runs of 3": (None, None, 3)}


@functools.cache
def an_reference(lam, cfg, n):
    return extremes_by_fractions(lam, cfg, [an_functional(n)])


def assert_an_sweep_is_exact(lam, cfg, n, directions):
    """The sweep's AN(n) winners in the directions asked for against the
    exact brute force: the least exact argmax and argmin with their exact
    values; then the vertex + edge pass is no worse than them or any
    vertex."""
    fn = an_functional(n)
    got, passed = _sweep(lam, lattice(cfg), [fn], directions), _sweep(lam, cfg, [fn], directions)
    assert list(got) == list(passed) == [(fn.name, d) for d in directions]
    for direction in directions:
        exact, arg = an_reference(lam, cfg, n)[fn.name, direction]
        assert swept(got, fn, direction) == (exact, arg), direction
        assert_pass_is_no_worse(lam, cfg.dims, fn, direction, swept(passed, fn, direction), exact, arg)


def set_an_sizes(monkeypatch, sizes):
    for name, size in zip(("_CHUNK_BYTES", "_SWEEP_BLOCK", "_RUN"), AN_SIZES[sizes]):
        if size:
            monkeypatch.setattr(ucv.search, name, size)


def spy_an_build(monkeypatch, force=None):
    """Record the exact AN build: the expansions that _reciprocal runs
    over polynomials with Python-int coefficients (_integer_monomials and
    the polynomial ring, emptied first, so that neither holds an earlier
    test's build), and the dtypes of the tail columns that _columns
    multiplies per chunk.  A force reads as the magnitude bound: 2**31
    puts any grid here on int64, and 2**63 on Python ints."""
    ucv.model._integer_monomials.cache_clear()
    ucv.model._polynomial_coefficients.cache_clear()
    recursion, columns = ucv.model._reciprocal, ucv.search._columns
    build = {"expansions": 0, "dtypes": set()}

    def spy_recursion(b, e, count):
        if isinstance(b[0], _Polynomial):  # not the value of a winner
            assert all(type(c) is int for p in b for c in p.values())
            build["expansions"] += 1
        return recursion(b, e, count)

    def spy_columns(part, steps, table):
        build["dtypes"].update(part[:, v].dtype for v in range(part.shape[1]))
        return columns(part, steps, table)

    monkeypatch.setattr(ucv.model, "_reciprocal", spy_recursion)
    monkeypatch.setattr(ucv.search, "_columns", spy_columns)
    if force:
        monkeypatch.setattr(ucv.search, "_bound", lambda table, monomials, caps: force)
    return build


@pytest.mark.parametrize("directions", DIRECTIONS, ids="+".join)
@pytest.mark.parametrize("sizes", AN_SIZES)
@pytest.mark.parametrize("lam,cfg,n", AN_GRIDS + [AN_TIE, AN_RUN_TIE], ids=str)
def test_an_sweep_matches_exact_brute_force(monkeypatch, lam, cfg, n, sizes, directions):
    set_an_sizes(monkeypatch, sizes)
    build = spy_an_build(monkeypatch)
    assert_an_sweep_is_exact(lam, cfg, n, directions)
    assert build["expansions"] == 1  # by the first of the two sweeps, the lattice alone; the second reads the cache
    # every grid here takes int32: _bound is at most 28 bits, and big^2 is far below 2**31
    assert build["dtypes"] == ({np.dtype(np.int32)} if cfg.dims > 1 else set())  # no tail column at dims 1


@pytest.mark.parametrize("directions", DIRECTIONS, ids="+".join)
@pytest.mark.parametrize("sizes", ["default sizes", "small chunks, tables of 5", "runs of 1", "runs of 3"])
@pytest.mark.parametrize("lam,cfg,n", AN_GRIDS + [AN_TIE, AN_RUN_TIE], ids=str)
def test_an_sweep_forced_onto_int64(monkeypatch, lam, cfg, n, sizes, directions):
    set_an_sizes(monkeypatch, sizes)
    build = spy_an_build(monkeypatch, force=2**31)
    assert_an_sweep_is_exact(lam, cfg, n, directions)
    assert build["expansions"] == 1  # by the first of the two sweeps, the lattice alone; the second reads the cache
    assert build["dtypes"] == ({np.dtype(np.int64)} if cfg.dims > 1 else set())  # no tail column at dims 1


@pytest.mark.parametrize("directions", DIRECTIONS, ids="+".join)
@pytest.mark.parametrize("sizes", ["default sizes", "small chunks, tables of 5", "runs of 1", "runs of 3"])
@pytest.mark.parametrize("lam,cfg,n", AN_GRIDS + [AN_TIE, AN_RUN_TIE], ids=str)
def test_an_sweep_forced_onto_python_ints(monkeypatch, lam, cfg, n, sizes, directions):
    set_an_sizes(monkeypatch, sizes)
    build = spy_an_build(monkeypatch, force=2**63)
    assert_an_sweep_is_exact(lam, cfg, n, directions)
    assert build["expansions"] == 1  # by the first of the two sweeps, the lattice alone; the second reads the cache
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
    assert swept(_sweep(lam, lattice(cfg), [an_functional(n)], ("max",)), an_functional(n), "max") == (hi, ties[0])


def test_an_run_tie_grid_ties_inside_a_tail():
    lam, cfg, n = AN_RUN_TIE
    hi = max(abs(an_coefficient_by_recursion(b, n)) for b in enumerate_feasible(lam, cfg))
    ties = [b for b in enumerate_feasible(lam, cfg) if abs(an_coefficient_by_recursion(b, n)) == hi]
    assert hi == F(16, 27)
    assert ties == [(F(2, 3), F(2, 3), F(0), F(0)), (F(4, 3), F(2, 3), F(0), F(0))]
    assert swept(_sweep(lam, lattice(cfg), [an_functional(n)], ("max",)), an_functional(n), "max") == (hi, ties[0])


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
    assert_table_sizes(scored)


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
    fn = an_functional(6)
    assert swept(_sweep(lam, lattice(cfg), [fn], ("max",)), fn, "max")[0] == 6
    cells = {key: sum(math.prod(shape) for shape in shapes) for key, shapes in scored.items()}
    assert 0 < sum(cells.values()) <= points / 4
    assert 0 < cells["tables"] <= points / 100
    assert_table_sizes(scored)


def test_an_sweep_runs_no_recursion_per_point(monkeypatch):
    # _reciprocal runs once per process on polynomials in (b1, b2..b_dims),
    # and never on floats (the polish values the winner) nor on the points'
    # arrays; each chunk of tails (six coefficients each, in at
    # most _CHUNK_BYTES bytes of int64 cells, as AN(6)'s bound passes
    # 2**31 here) reads its columns off the one expansion
    calls = collections.Counter()

    def counting(real):
        def spy(b, e, count):
            kind = ("build" if isinstance(b[0], _Polynomial) else "scalar" if all(type(x) is float for x in b)
                    else "other")
            calls[kind] += 1
            return real(b, e, count)
        return spy

    def columns(part, steps, table):
        calls["chunk"] += 1
        return real_columns(part, steps, table)

    real_columns = ucv.search._columns
    ucv.model._integer_monomials.cache_clear()
    ucv.model._polynomial_coefficients.cache_clear()
    monkeypatch.setattr(ucv.model, "_reciprocal", counting(ucv.model._reciprocal))
    monkeypatch.setattr(ucv.search, "_columns", columns)
    lam, cfg = F(1), SearchConfig(dims=5)  # the sweep of conjecture --n 6
    tails = len(_tail_units(50, (1, 2, 3, 4)))  # every tail has a feasible b1 here
    size = ucv.search._CHUNK_BYTES // (8 * 6)
    assert size == 5461
    assert tails > 2 * size
    _sweep(lam, cfg, [an_functional(6)], ("max",))
    assert calls == {"build": 1, "chunk": -(-tails // size)}


def test_an_sweep_holds_no_column_past_its_chunk():
    # the sweep of conjecture --n 8 at step 1/80: 1,080,266 tails, 156,889
    # of them kept past the whole-tail bound, with eight columns each.  Its
    # traced peak, 30.3 MB, is the tail lattice and its slack order, with the
    # order and each tail's last k1 in int32; the bound leaves 2.7 MB over
    # that.  With both in int64 the peak was 41.1 MB, and holding every kept
    # column until one join took it to 53.1 MB
    lam, cfg = F(1), SearchConfig(grid_step=F(1, 80), dims=7)
    tracemalloc.start()
    try:
        got = _sweep(lam, cfg, [an_functional(8)], ("max",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(got) == [("AN(8)", "max")]
    assert swept(got, an_functional(8), "max") == (8, (F(2), F(1)) + (F(0),) * 5)
    assert peak < 33 * 10**6


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


def test_the_irrational_bound_compares_by_its_exact_square():
    # A4C max at lambda = 1 is sqrt(96/81), the double of 4 sqrt(6)/9 with its square kept: the rationals within
    # 1e-20 above and below it round to that double, and the one above FAILs, the one below PASSes
    bound = closed_form_bound("A4C", 1, "max")
    assert bound == 4 * math.sqrt(6) / 9 and bound.square == F(96, 81)
    root = math.isqrt(96 * 10**40)  # 9 10^20 sqrt(96/81), rounded down; 96 10^40 is no square
    below, above = F(root, 9 * 10**20), F(root + 1, 9 * 10**20)
    assert float(below) == float(above) == bound
    cfg, fn = SearchConfig(refine_rounds=0), functional_by_name("A4C")
    certs = [next(ucv.search._certify(F(1), cfg, fn, ("max",), {("A4C", "max"): (v, (1, (0,) * 4))}))
             for v in (below, above)]
    assert [(c.status, c.gap) for c in certs] == [("PASS", 0.0), ("FAIL", 0.0)]


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
    assert functional_by_name("AN(6)") is an_functional(6)  # one object, so one derivation of its monomials
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

    def folded(b):  # e_(n-1) = (-1)^(n-1) a_n
        return _reciprocal(b, [1], n)[n - 1]

    def bits(x):
        return np.asarray(abs(x) + 0.0, dtype=np.float64).view(np.int64)

    def wide(x):  # one column; a functional of a scalar b1 alone is a scalar
        return np.broadcast_to(np.asarray(x, dtype=np.float64), (4000,)).copy()

    for width in (max(4, n - 1), 7, 3):
        b = _an_columns(rng, width, 4000)
        assert np.array_equal(bits(folded(b)), bits(an_coefficient_by_recursion(b, n)))
        for x in (0.0, -0.0, *b[0][:8]):  # a one-slice block of the sweep: b1 a numpy scalar
            scalar, column = (np.float64(x), *b[1:]), (np.full(4000, x), *b[1:])
            got = wide(folded(scalar))
            assert np.array_equal(got.view(np.int64), wide(folded(column)).view(np.int64))
            assert np.array_equal(bits(got), bits(wide(an_coefficient_by_recursion(scalar, n))))
        for row in list(zip(*b))[:300]:  # the same values as Python float scalars
            row = tuple(float(x) for x in row)
            assert bits(folded(row)) == bits(an_coefficient_by_recursion(row, n))
    for _ in range(200):  # and exactly over Fraction, sign included, every e_k, grown in place in two calls
        b = tuple(F(int(rng.integers(-60, 61)), int(rng.integers(1, 60))) for _ in range(7))
        e = _reciprocal(b, [1], n // 2)
        assert _reciprocal(b, e, n) is e
        assert e == [(-1) ** k * an_coefficient_by_recursion(b, k + 1) for k in range(n)]


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


def test_a_vertex_start_no_longer_hides_an_edge():
    # A5C min at lambda = 1/3: the polish from the vertex (0, 0, 0, 1/9) stayed at -1/9 at steps 1/7 and 1/10, where
    # the edge b2 = lambda reaches -5 lambda^2/4 = -5/36 at b1 = sqrt(3 lambda/2)
    for step in (F(1, 7), F(1, 10)):
        c = optimize("A5C", F(1, 3), "min", SearchConfig(grid_step=step))
        assert c.searched_value == float(F(-5, 36)) and c.argmax[1:] == (F(1, 3), 0, 0)
        assert abs(c.argmax[0] - F(math.sqrt(1 / 2))) < 1e-12


def test_h2f_max_at_three_quarters_is_exact_after_one_round():
    # one polish round read 0.243175 here; the edge {b4 = 0, budget, p(-1) = 0} holds the exact maximum 109/448 at
    # ((11 - lambda)/14, (2 lambda - 1)/7, (5 lambda + 1)/14, 0)
    c = optimize("H2F", F(3, 4), "max", SearchConfig(grid_step=F(1, 10), refine_rounds=1))
    assert c.argmax == (F(41, 56), F(1, 14), F(19, 56), F(0))
    assert functional_by_name("H2F").evaluate(c.argmax) == F(109, 448) and c.searched_value == float(F(109, 448))
    assert c.status == "FAIL"


def test_many_rounds_keep_an_exact_maximizer():
    # fifteen polish rounds walked A3 max at lambda = 1/2 off its maximizer, the vertex (3/2, 1/2, 0, 0), to a point
    # over 5 10**16 below 11/4 that printed 2.75
    c = optimize("A3", "1/2", "max", SearchConfig(refine_rounds=15))
    assert c.argmax == (F(3, 2), F(1, 2), F(0), F(0))
    assert functional_by_name("A3").evaluate(c.argmax) == F(11, 4) and c.searched_value == 2.75


def assert_no_negative_zero(*values):
    for v in values:
        if v == 0:  # -0.0 == 0.0, so only the sign bit tells them apart
            assert math.copysign(1.0, v) == 1.0, values


@pytest.mark.parametrize("lam,cfg", SWEEP_GRIDS + [(lam, SearchConfig()) for lam in GRID5], ids=lambda v: str(v))
def test_no_negative_zero_escapes(lam, cfg):
    # a value is one correctly rounded float of an exact Fraction, so no zero carries a sign; A2C = -b1 at b1 = 0
    # evaluated -0.0 on floats
    for c in verify_bounds([lam], cfg) + verify_bounds([lam], lattice(cfg)):
        assert_no_negative_zero(c.searched_value, *(c.gap,) * (c.gap is not None))
    cert = optimize("A2C", lam, "max", cfg)
    assert cert.searched_value == 0 and cert.argmax[0] == 0
    assert_no_negative_zero(cert.searched_value, cert.gap)


def _lattice(budget, weights):
    return [list(ks) for ks in itertools.product(*(range(budget // w + 1) for w in weights))
            if sum(w * k for w, k in zip(weights, ks)) <= budget]


@pytest.mark.parametrize("dims", range(1, 6))
def test_tail_units_lexicographic_lattice(dims):
    weights = tuple(range(1, dims))
    for budget in (0, 1, 5, 12, 50):
        want = _lattice(budget, weights)
        got = _tail_units(budget, weights)
        assert got.dtype == (np.int16 if budget < 2**15 else np.int64) and got.shape == (len(want), dims - 1)
        assert got.tolist() == want


@pytest.mark.parametrize("budget, dtype, weights", [(2**15 - 1, np.int16, (1,)), (2**15, np.int64, (1,)),
                                                    (2**15, np.int64, (1, 2**14))],
                         ids=["32767-int16", "32768-int64", "32768-int64-1,16384"])
def test_tail_units_dtype_boundary(budget, dtype, weights):
    # the last case, 49,155 rows, takes the int64 path with more than one weight
    rows = _tail_units(budget, weights)
    assert rows.dtype == dtype and rows.tolist() == _lattice(budget, weights)


def test_tail_units_row_count_at_dims_7():
    # the tail lattice of conjecture --n 8 at step 1/80: 13 MB of int16
    # rows, built weight by weight with a traced peak of 25.3 MB
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


def test_verify_reads_each_bound_pair_once(monkeypatch):
    # a lambda's 32 rows take each functional's (max, min) from one bounds(lam) call, and none calls
    # closed_form_bound; the certificates are those of the unpatched registry
    cfg, grid = SearchConfig(grid_step=F(1, 10), refine_rounds=1), [F(1, 4), F(1)]
    want, calls = verify_bounds(grid, cfg), collections.Counter()

    def counted(fn):
        def bounds(lam):
            calls[fn.name, lam] += 1
            return fn.bounds(lam)
        return dataclasses.replace(fn, bounds=bounds)

    def refused(*args):
        raise AssertionError("a row called closed_form_bound")

    monkeypatch.setattr(ucv.search, "FUNCTIONALS", tuple(map(counted, FUNCTIONALS)))
    monkeypatch.setattr(ucv.search, "closed_form_bound", refused)
    assert verify_bounds(grid, cfg) == want
    assert calls == {(fn.name, lam): 1 for fn in FUNCTIONALS for lam in grid}


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
