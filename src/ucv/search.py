"""Constrained extremal search and bound certification.

The feasible set is the b-lattice of the membership model: b_n >= 0,
sum (n-1) b_n <= lambda, denominator nonvanishing in the open disk.
With b >= 0 and a budget lambda <= 1 the disk condition is exactly
p(-1) = 1 - b1 + b2 - ... >= 0 (rootcheck.nonvanishing_in_open_disk),
so the sweep keeps a point by one integer comparison; the three
conditions imply b1 <= 1 + lambda, so it sets no b1 cap.

The search is one exact pass over the vertices and edges of the class
polytope {b >= 0, budget, p(-1) >= 0}, where the sharp extremals sit, then
an exact lattice sweep seeded with its optimum; no float decides anything.
The sweep scores each functional per tail: its integer polynomial in the
lattice units, an integer enclosure that drops the tails and the runs of
b1 that cannot win, and integer Horner on the rest.  Along an edge a
functional is an integer polynomial in t, stationary at the points that
_roots finds exactly.  A FAIL is a member whose exact value is strictly
beyond the closed-form bound; a WARN flags a bound the search did not
get close to.  ucv.cli renders each BoundCertificate.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence, Union

import numpy as np

from ucv.model import (
    FUNCTIONALS,
    Functional,
    SquareRoot,
    _integer_monomials,
    _monomial_index,
    _monomial_plan,
    an_functional,
    functional_by_name,
    lambda_in_range,
)
from ucv.rootcheck import RationalIn, as_rational, nonvanishing_in_open_disk

# the grid-sharpness warning threshold: a heuristic, not a claim
WARN_GAP = 5e-3

_SWEEP_BLOCK = 2**13  # most run ends x tails in one bound table of the sweep, but for a single tail
_CHUNK_BYTES = 2**18  # most bytes of cells (tails x functionals x coefficients) in one build of the sweep's columns
_RUN = 8  # k1 per run that the sweep bounds before it scores the run's cells
_ROOT_BITS = 44  # the pass gives an irrational root by two points at most 2**-43 apart around it


# -- closed-form bounds ----------------------------------------------------


def closed_form_bound(fn: Union[Functional, str], lam: RationalIn, direction: str) -> Fraction | SquareRoot | None:
    """Closed-form class bound, or None where no closed form exists.
    Raises NonMember("lambda out of range") outside (0, 1]."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    fn = functional_by_name(fn) if isinstance(fn, str) else fn
    upper, lower = fn.bounds(lambda_in_range(lam))
    return upper if direction == "max" else lower


# -- search configuration --------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    dims: int = 4
    grid_step: Fraction = Fraction(1, 50)
    refine_rounds: int = 3

    def __post_init__(self):
        object.__setattr__(self, "dims", operator.index(self.dims))
        object.__setattr__(self, "grid_step", as_rational(self.grid_step))
        object.__setattr__(self, "refine_rounds", operator.index(self.refine_rounds))
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")

    def b1_cap(self, lam: Fraction) -> Fraction:
        # b1 <= 1 + lambda holds on the class; only perfbench reads it, the search does not
        return 1 + lam


def _tail_units(budget: int, weights: tuple[int, ...]) -> np.ndarray:
    """Every (k_2, ..., k_dims) >= 0 with sum w_j k_j <= budget, as rows in lexicographic order (one empty row with no
    weights), int16 while budget < 2**15, else int64.  Built weight by weight: each row so far, with the budget it
    leaves, is repeated once per k = 0..left // w, and k fills w's column."""
    dtype = np.int16 if budget < 2**15 else np.int64
    rows = np.zeros((1, len(weights)), dtype=dtype)
    left = np.array([budget], dtype=np.promote_types(dtype, np.int32))  # holds left // w + 1
    for j, w in enumerate(weights):
        kids = left // w + 1
        k = np.ones(int(kids.sum()), dtype=dtype)  # 0..kids - 1 after each row, by one running sum
        k[0], k[np.cumsum(kids[:-1])] = 0, 1 - kids[:-1]
        np.cumsum(k, out=k)
        rows = np.repeat(rows, kids, axis=0)
        rows[:, j] = k
        if j + 1 < len(weights):  # the last weight leaves no budget to read
            left = np.repeat(left, kids) - w * k
    return rows


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    lam: Fraction
    functional: str
    direction: str
    searched_value: float
    argmax: tuple[Fraction, ...]
    closed_form: float | None
    gap: float | None  # closed_form - searched_value
    status: str  # PASS | FAIL | NO_CLOSED_FORM
    warn: bool


def _certify(lam: Fraction, cfg: SearchConfig, fn: Functional, directions: Sequence[str],
             winners: dict) -> Iterator[BoundCertificate]:
    """The certificates of fn's winners of _sweep in directions, against fn.bounds(lam), read once; the disk gate
    re-checks the pass's argmax, and a rejection raises.  FAIL iff the exact value is strictly beyond the bound (a
    SquareRoot bound by squares: value |value| against its square); searched is the value rounded."""
    bounds = dict(zip(("max", "min"), fn.bounds(lam)))
    for direction in directions:
        value, (d, n) = winners[fn.name, direction]
        arg, bound, s = tuple(Fraction(c, d) for c in n), bounds[direction], 1 if direction == "max" else -1
        if cfg.refine_rounds and not nonvanishing_in_open_disk((1, *arg), (d, (d, *n))):
            raise RuntimeError(f"argmax {arg} fails the disk gate")
        searched, closed = float(value), None if bound is None else float(bound)
        if bound is None:
            yield BoundCertificate(lam, fn.name, direction, searched, arg, None, None, "NO_CLOSED_FORM", False)
            continue
        x, y = (value * abs(value), bound.square) if isinstance(bound, SquareRoot) else (value, bound)
        yield BoundCertificate(lam, fn.name, direction, searched, arg, closed, closed - searched,
                               "FAIL" if (x > y if s > 0 else x < y) else "PASS", s * (closed - searched) > WARN_GAP)


# -- sweep core ------------------------------------------------------------


@functools.cache  # per rows, step and dims, so the lambdas of a grid share one expansion
def _expansion(monomials: tuple, step: Fraction, dims: int) -> tuple:
    """(steps, monomials, table) of the integer polynomial P = L den^deg f(step k) of each f, step = num/den: f's
    (L, deg, terms) of _integer_monomials at N = num k, d = den, b_j past dims being 0.  table[f][i] lists the
    (c, t) of k1^i's coefficient, sum c monomial_t, up to P's degree in k1, at least 1; monomials holds the tail
    exponents by index: monomial 0 is 1, and monomial i + 1 is monomial p times tail column v, (p, v) = steps[i]."""
    num, den = step.numerator, step.denominator
    index, steps, table = {(0,) * (dims - 1): 0}, [], []
    for _, deg, terms in monomials:
        terms = [(c * num ** (deg - e0) * den**e0, e) for c, (e0, *e) in terms if not any(e[dims:])]
        sums = [[] for _ in range(max([e[0] for _, e in terms] + [1]) + 1)]
        for c, e in terms:
            sums[e[0]].append((c, _monomial_index(index, steps, tuple(e[1:dims]))))
        table.append(sums)
    return steps, list(index), table


def _bound(table: list, monomials: list, caps: list) -> int:
    # the largest sum of |c| k^e over the terms of a P at k = caps, the largest k1 and k_j: every coefficient, product
    # and Horner partial sum of P, P+ and N at 0 <= k <= caps is at most this in modulus
    at = [math.prod(c**x for c, x in zip(caps[1:], e)) for e in monomials]
    return max(sum(abs(c) * caps[0]**i * at[t] for i, terms in enumerate(sums) for c, t in terms) for sums in table)


def _columns(part: np.ndarray, steps: list, table: list) -> np.ndarray:
    # (r + 1, P, row of part): k1^i's coefficient of each P of the table at each row of part, 0 past a P's degree
    monomials = [1]
    for p, v in steps:
        monomials.append(monomials[p] * part[:, v])
    cols = np.zeros((max(map(len, table)), len(table), len(part)), dtype=part.dtype)
    for f, sums in enumerate(table):
        for col, terms in zip(cols[:, f], sums):
            for c, t in terms:
                col += c * monomials[t]
    return cols


def _horner(cols: np.ndarray, x) -> np.ndarray:
    # cols[r] x^r + ... + cols[0] in a new array, r >= 1; x is per tail, or a (k1 x tail) table
    acc = cols[-1] * x + cols[-2]
    for c in cols[-3::-1]:
        np.add(np.multiply(acc, x, out=acc), c, out=acc)
    return acc


def _parts(cols: np.ndarray, x) -> tuple:
    # P = cols[r] x^r + ... + cols[0] and N, the sum of its negative terms, at x
    return _horner(cols, x), _horner(np.minimum(cols, 0), x)


def _enclosure(at, neg) -> tuple:
    # (lower, upper) of P on each [a, b] of two neighbours along axis 0 of the points, rising from 0 or more, at
    # which P and N take the values at and neg: P+ = P - N rises and N falls on x >= 0, so P+(a) + N(b) <= P(x) <=
    # P+(b) + N(a)
    pos = at - neg
    return pos[:-1] + neg[1:], pos[1:] + neg[:-1]


def _reach(lower, upper, s: int, absolute: bool):
    # the most that the score, s P or s |P| for AN(n) (s = 1 max, -1 min), reaches where lower <= P <= upper
    if not absolute:
        return upper if s > 0 else -lower
    return np.maximum(upper, -lower) if s > 0 else np.minimum(np.minimum(upper, -lower), 0)


def _run_tables(cols: np.ndarray, m: np.ndarray, ranks: np.ndarray, hits: list, directions: list, absolute: bool,
                floor: int, big: int) -> None:
    """Raise hits[i], as _ends does, to the best cells of the tails ranks (columns cols, last k1 m falling along
    them).  Each tail is cut into runs of _RUN k1, each bounded on [a, a + _RUN or m] from P and N at its ends, in
    one table per group of tails whose first tail's ends times their count fit _SWEEP_BLOCK, or per tail past it; a
    run whose bound beats the best, or ties it at k1 <= the best's, is scored with the group's other kept runs in one
    table of _RUN k1 per run (an infeasible cell scores floor)."""
    lo = 0
    while lo < len(m):  # the bound table of tails lo..hi-1, their runs a = 0, _RUN, .. up to the first tail's m
        runs = int(m[lo]) // _RUN + 1
        hi = lo + max(_SWEEP_BLOCK // (runs + 1), 1)
        part, ms, rs, lo = cols[:, lo:hi], m[lo:hi], ranks[lo:hi], hi
        a = np.arange(0, (runs + 1) * _RUN, _RUN, dtype=cols.dtype)[:, None]
        lower, upper = _enclosure(*_parts(part, np.minimum(a, ms)))  # each run to the next one's a, or m
        a = a[:-1]
        live = a <= ms  # the runs that hold a point
        for i, (_, s) in enumerate(directions):
            score, least, _ = hits[i]
            top = _reach(lower, upper, s, absolute)
            ra, t = np.nonzero(live & ((top > score) | (top == score) & (a <= -least)))
            if t.size:
                k1 = a[ra, 0] + np.arange(_RUN, dtype=cols.dtype)[:, None]
                p = _horner(part[:, t], np.minimum(k1, ms[t]))
                v = np.where(k1 > ms[t], floor, s * (np.abs(p) if absolute else p))
                best = v.max()
                keys = (k1 * big + rs[t])[v == best]  # the (k1, row) of each best cell as k1 big + row
                _raise(hits, i, int(best), int(keys.min()), big)


def _raise(hits: list, i: int, score: int, key: int, big: int) -> None:
    # raise hits[i], the best score and its least point as (score, -k1, -row), to score at (k1, row) = divmod(key, big)
    hits[i] = max(hits[i], (score, *(-x for x in divmod(key, big))))


def _ends(cols: np.ndarray, m: np.ndarray, ranks: np.ndarray, hits: list, directions: list, absolute: bool,
          big: int) -> np.ndarray:
    """Raise hits[f][i], the best score of functional f in directions[i] and its least point, to the ends k1 = 0 and m
    of the tails ranks, for every functional at once; big is above every k1 and row.  Return whether each (functional,
    tail) can still beat or tie the best: its bound (_enclosure on [0, m]) is reached only at the ends, counted here,
    unless P is constant in k1, but |P| = 0 inside a tail ties a best 0 of -|P|."""
    p_m, neg_m = _parts(cols, m.astype(cols.dtype, copy=False))
    # _enclosure on [0, m], with P(0) = C_0 and N(0) = min(C_0, 0)
    lower, upper = np.maximum(cols[0], 0) + neg_m, p_m - neg_m + np.minimum(cols[0], 0)
    ends, keep = np.concatenate((cols[0], p_m), axis=-1), False  # P at k1 = 0, then at m, per functional
    ends = np.abs(ends) if absolute else ends
    keys = np.concatenate((ranks, m * big + ranks))  # the (k1, row) of each end as k1 big + row
    for i, (_, s) in enumerate(directions):
        best = np.array([h[i][0] for h in hits], dtype=cols.dtype)
        e = ends.max(axis=-1) if s > 0 else ends.min(axis=-1)
        rise = np.flatnonzero(s * e >= best)  # the functionals whose best can rise to an end
        if rise.size:
            least = np.where(ends[rise] == e[rise, None], keys, big * big).min(axis=-1)
            for f, score, key in zip(rise.tolist(), (s * e[rise]).tolist(), least.tolist()):
                _raise(hits[f], i, score, key, big)
            best[rise] = s * e[rise]
        # the score is at most the reach; integer scores, so reach > best - 1 keeps a tie, for -|P| only
        keep = keep | (_reach(lower, upper, s, absolute) > best[:, None] - (absolute and s < 0))
    return keep


def _exact_sweep(monomials: Sequence[tuple], absolute: bool, step: Fraction, caps: list, tails: np.ndarray,
                 rank: np.ndarray, last: np.ndarray, signs: dict, seeds: dict) -> dict:
    """{(f, direction): (score, (k1, row of tails))}: the exact extremum of s P, or s |P| where absolute, P = C_0 +
    ... + C_r k1^r of _expansion, and its least point, over the tails rank[i] (slack order), feasible for k1 in [0,
    last[i]]; caps holds the largest k1 and k_j.  Every score and point key k1 big + row, big past each k1 that a
    run table forms and each row, is below max(_bound, big^2): the kernel runs in int32 where that is below 2**31,
    in int64 where below 2**63, and on Python ints past it.  Each chunk of at most _CHUNK_BYTES bytes of cells reads
    its C_i off its tail monomials (_columns), and _ends keeps the tails that can still win, which _run_tables
    scores per functional within the chunk: no column outlives its chunk.  seeds[f, direction] = (num,
    den, _), _polytope_best's s num / (L den), starts the best at the least score that ties or beats it, at a
    sentinel point (big, big) that any cell beats."""
    steps, tail_monomials, table = _expansion(tuple(monomials), step, tails.shape[1] + 1)
    bound = _bound(table, tail_monomials, [max(c, 1) for c in caps])
    floor, big, directions = -bound - 1, caps[0] + _RUN + len(tails), list(signs.items())  # below any score
    dtype = np.int32 if (limit := max(bound, big * big)) < 2**31 else np.int64 if limit < 2**63 else object
    # per functional and direction, as _raise keeps them; a seed past bound, which no cell passes, fits dtype at bound
    hits = [[(min(-(-s * seeds[f, d][0] * step.denominator**deg // seeds[f, d][1]), bound), -big, -big)
             if (f, d) in seeds else (floor, 0, 0) for d, s in directions] for f, (_, deg, _) in enumerate(monomials)]
    size = max(_CHUNK_BYTES // (np.dtype(dtype).itemsize * len(table) * max(map(len, table))), 1)  # tails per chunk
    for lo in range(0, len(last), size):
        ranks, m = rank[lo:lo + size], last[lo:lo + size].astype(dtype)  # k1 in the columns' dtype
        # take gathers rows many times faster than fancy indexing does
        cols = _columns(tails.take(ranks, axis=0).astype(dtype), steps, table)
        keep = _ends(cols, m, ranks, hits, directions, absolute, big)
        for f in np.flatnonzero(keep.any(axis=-1)):
            k = keep[f]
            _run_tables(cols[:len(table[f]), f][:, k], m[k], ranks[k], hits[f], directions, absolute, floor, big)
    return {(f, d): (h[i][0], (-h[i][1], -h[i][2])) for f, h in enumerate(hits) for i, (d, _) in enumerate(directions)}


def _vertices(lam: Fraction, dims: int) -> tuple[int, list[tuple[int, ...]]]:
    """(d, vertices): the vertices N / d, N sorted and padded to the search width, of the class polytope {b >= 0,
    b2 + 2 b3 + ... <= lam, p(-1) >= 0} over b1..b_dims: the origin, b1 = 1, b_j = lam / (j - 1) alone, and that
    b_j with b1 = 1 + (-1)^j b_j (p(-1) = 0 on two tail coordinates would need an odd b_j >= 1)."""
    d = lam.denominator * math.lcm(*range(1, dims))
    zero = (0,) * max(4, dims)  # the search width
    points = {zero, (d,) + zero[1:]}
    for j in range(1, dims):  # b_(j+1), of weight j
        t = lam.numerator * d // (lam.denominator * j)
        tail = zero[1:j] + (t,) + zero[j + 1:]
        points |= {zero[:1] + tail, (d + (-1) ** (j + 1) * t,) + tail}
    return d, sorted(points)


@functools.cache
def _edges(dims: int) -> tuple[np.ndarray, np.ndarray]:
    """The dims^2 edges of the class polytope as index arrays (i, j), i < j, into the list of _vertices: the pairs
    that share dims - 1 tight constraints.  For lambda in (0, 1] the polytope is simple and the list's order does not
    depend on lambda, so one pair of arrays, read off at lambda = 1, serves every lambda."""
    d, vertices = _vertices(Fraction(1), dims)
    tight = [{*(j for j in range(dims) if not v[j]), *("budget",) * (sum(j * c for j, c in enumerate(v)) == d),
              *("p(-1)",) * (d + sum(c if j % 2 else -c for j, c in enumerate(v)) == 0)} for v in vertices]
    pairs = [(i, j) for j in range(len(tight)) for i in range(j) if len(tight[i] & tight[j]) == dims - 1]
    return tuple(np.array(x, dtype=np.intp) for x in zip(*pairs))


@functools.cache
def _edge_plan(monomials: tuple, width: int, dtype: np.dtype) -> tuple[list, np.ndarray]:
    """(levels, weights) of the rows' _monomial_plan: its products grouped by degree as (monomials, parents,
    coordinates) index arrays, and weights[f, m], row f's coefficient of monomial m, in dtype."""
    steps, terms, _ = _monomial_plan(monomials, width)
    degree = [1] * (width + 1)
    for p, _ in steps:
        degree.append(degree[p] + 1)
    levels = []
    for level in range(2, max(degree) + 1):
        new = [i for i in range(width + 1, len(degree)) if degree[i] == level]
        levels.append([np.array(x, dtype=np.intp) for x in (new, *zip(*(steps[i - width - 1] for i in new)))])
    return levels, np.array([[dict((m, c) for c, m in row).get(m, 0) for m in range(len(degree))] for row in terms],
                            dtype=dtype)


def _edge_columns(monomials: Sequence[tuple], dv: int, vertices: list, edges: tuple) -> np.ndarray:
    """(K, F, E): the coefficients of t^0..t^(K-1) of P = L dv^deg f along each edge N = a + b t, a = v0, b = v1 - v0,
    for each f's (L, deg, terms), K = the largest deg + 1 >= 2; one product per degree builds the monomials of
    _edge_plan for all edges.  int64 where sum |c| M^deg < 2**63, M = 2 max N >= |a| + |b| (every partial sum of P),
    and the largest coefficients built bound _bernstein's products and the vertex values times 2^m C(m, k) below it."""
    size, k = max(dv, 2 * max(map(max, vertices))), max(2, *(deg + 1 for _, deg, _ in monomials))
    bound = max(sum(abs(c) for c, _ in t) * size**deg for _, deg, t in monomials)
    dtype = np.dtype(np.int64 if bound < 2**63 else object)
    levels, weights = _edge_plan(tuple(monomials), len(vertices[0]), dtype)
    points = np.array(vertices, dtype=dtype)
    polys = np.zeros((weights.shape[1], k, len(edges[0])), dtype=dtype)
    polys[0, 0] = dv
    polys[1:points.shape[1] + 1, 0] = points[edges[0]].T
    polys[1:points.shape[1] + 1, 1] = (points[edges[1]] - points[edges[0]]).T
    for new, parent, v in levels:
        polys[new] = polys[parent] * polys[v, :1]
        polys[new, 1:] += polys[parent, :-1] * polys[v, 1:2]
    cols = np.tensordot(weights, polys, axes=(1, 0)).transpose(1, 0, 2)
    top = np.abs(cols).max(axis=(1, 2)).tolist()  # per power of t
    vertex = sum(top) * (math.comb(k - 1, (k - 1) // 2) << k - 1)  # |P| at t = 0 or 1, times 2^m C(m, k)
    products = max(sum(c * x for c, x in zip(row, top)) for half in _bernstein(k - 1) for row in half)
    return cols if max(vertex, products) < 2**63 else cols.astype(object)


@functools.cache
def _bernstein(m: int, dtype: np.dtype = np.dtype(object)) -> np.ndarray:
    # (2, m + 1, m + 1) in dtype: row k of matrix h maps P's coefficients to T_k, sum T_k u^k = 2^m (1 + u)^m P((h + 1 /
    # (1 + u)) / 2); u > 0 covers t in the half (h/2, (h + 1)/2), so there P <= max_k T_k / (2^m C(m, k))
    return np.array([[[sum(math.comb(m - i, k) * math.comb(r, i) * h ** (r - i) for i in range(r + 1)) << (m - r)
                       for r in range(m + 1)] for k in range(m + 1)] for h in (0, 1)], dtype=dtype)


def _at(poly: list[int], p: int, q: int) -> int:
    # q^m poly(p / q), m = len(poly) - 1, by homogeneous Horner over the ints
    acc, qk = 0, 1
    for c in reversed(poly):
        acc, qk = acc * p + c * qk, qk * q
    return acc


def _roots(poly: list[int]) -> list[tuple[int, int]]:
    """Points p / q of [0, 1] in ascending order, q > 0, such that every root in (0, 1) where the integer poly changes
    sign is one of them or lies between two neighbours at most 2**(1 - _ROOT_BITS) apart.  Degree 1 gives its root,
    degree 2 its roots exactly, by math.isqrt on an irrational one; a higher degree is monotone between the points
    of its derivative and bisects there on exact signs at the grid points k / 2**_ROOT_BITS."""
    poly = poly[:max((k + 1 for k, c in enumerate(poly) if c), default=0)]
    poly, m, grid = [-c for c in poly] if poly and poly[-1] < 0 else poly, len(poly) - 1, 1 << _ROOT_BITS
    if m == 1:
        return [(-poly[0], poly[1])] if 0 < -poly[0] < poly[1] else []
    if m == 2:
        c, b, a = poly
        disc = b * b - 4 * a * c
        r = math.isqrt(max(disc, 0))
        z = math.isqrt(disc << 2 * _ROOT_BITS) if disc > 0 and r * r != disc else None  # sqrt(disc) grid in [z, z+1)
        ends = [(-b - r, 2 * a), (-b + r, 2 * a)] if z is None else [
            (-b * grid + x, 2 * a * grid) for x in (-z - 1, -z, z, z + 1)]
        return [(p, q) for p, q in ends if 0 <= p <= q] if disc > 0 else []  # a double root keeps the sign
    marks, found = [(0, 1), *_roots([k * c for k, c in enumerate(poly)][1:]), (1, 1)] if m > 2 else [], []
    for lo, hi in zip(marks, marks[1:]):
        if not (s := _at(poly, *lo)) and 0 < lo[0] < lo[1]:
            found.append(lo)
        elif s * _at(poly, *hi) < 0:
            while (k := (lo[0] * hi[1] + hi[0] * lo[1]) * grid // (2 * lo[1] * hi[1])) * lo[1] > lo[0] * grid \
                    and k * hi[1] < hi[0] * grid:  # bisect at the grid point at or below the midpoint
                if not (v := _at(poly, k, grid)):
                    lo = hi = (k, grid)
                    break
                lo, hi = ((k, grid), hi) if (v > 0) == (s > 0) else (lo, (k, grid))
            found += [lo, hi] if lo != hi else [lo]
    return found


def _polytope_best(monomials: Sequence[tuple], absolute: bool, signs: dict, dv: int, vertices: list,
                   dims: int) -> dict:
    """{(f, direction): (num, den, point)}: f's best over the vertices and edges of the class polytope, f = num /
    (L den) at point = (d, N), a tie going to the least point; the score is s f, or s |f| where absolute (AN(n),
    whose minimum 0 is at the origin).  Each edge's P = L dv^deg f in t (_edge_columns) gives its vertices' values;
    an edge whose Bernstein bound on each half (_bernstein) cannot beat the best vertex is dropped, and the
    candidates on the others are the points of _roots for P', valued exactly."""
    i, j = _edges(dims)
    cols = _edge_columns(monomials, dv, vertices, (i, j))
    m = cols.shape[0] - 1
    bernstein = np.tensordot(_bernstein(m, cols.dtype), cols, axes=(2, 0))  # (half, k, f, edge)
    cap = np.array([math.comb(m, k) << m for k in range(m + 1)], dtype=cols.dtype)[:, None, None]
    ends = np.empty((len(monomials), len(vertices)), dtype=cols.dtype)
    ends[:, i], ends[:, j] = cols[0], cols.sum(axis=0)
    best = {}
    for direction, s in signs.items():
        scores = s * (np.abs(ends) if absolute else ends)
        top, tops = scores.argmax(axis=1), scores.max(axis=1)  # top: the first, least, vertex of a tie
        reach = s * (np.abs(bernstein) if absolute else bernstein)
        live = (reach > tops[:, None] * cap).any(axis=(0, 1))
        rows = [(s * v, 1, (dv, vertices[t])) for v, t in zip(tops.tolist(), top.tolist())]
        for f, e in zip(*np.nonzero(live)):  # by row, then edge
            poly, v0, v1 = cols[:, f, e].tolist(), vertices[i[e]], vertices[j[e]]
            for p, q in _roots([k * c for k, c in enumerate(poly)][1:]):
                value = _at(poly, p, q)
                cand = (abs(value) if absolute else value, q**m,
                        (dv * q, tuple(x * (q - p) + y * p for x, y in zip(v0, v1))))
                if _wins(s, cand, rows[f]):
                    rows[f] = cand
        best.update(((f, direction), (num, den * dv**deg, point))
                    for f, ((num, den, point), (_, deg, _)) in enumerate(zip(rows, monomials)))
    return best


def _wins(s: int, a: tuple, b: tuple) -> bool:
    # a = (num, den, (d, N)) strictly beats b: a larger s num / den, or the same value at a smaller point N / d
    x, y = s * a[0] * b[1], s * b[0] * a[1]
    (da, na), (db, nb) = a[2], b[2]
    return x > y or x == y and [c * db for c in na] < [c * da for c in nb]


def _sweep(lam: Fraction, cfg: SearchConfig, fns: Sequence[Functional],
           directions: Sequence[str] = ("max", "min")) -> dict:
    """{(name, direction): (value, point)}, f's exact value at point = (d, N): the best of the lattice's least exact
    extremum and, where cfg.refine_rounds is not 0, the vertex + edge pass's (_polytope_best), a tie going to the
    least point.  The pass runs first and seeds each row of the sweep, which then finds only the lattice points that
    tie or beat it: a row that keeps the seed's sentinel is the pass's.  The tails are sorted once by p(-1) slack,
    most first (stable), so the tails feasible at b1 = k1 step are a prefix of them; the registry is scored in one
    _exact_sweep and AN(n), whose score is |P|, in another."""
    step = cfg.grid_step
    top, budget_units = int(1 / step), int(lam / step)
    tails = _tail_units(budget_units, tuple(range(1, cfg.dims)))
    width = max(4, cfg.dims)
    pad = (0,) * (width - cfg.dims)  # b_(dims+1)..b4
    # p(-1) = 1 - b1 - key, key = -b2 + b3 - b4 + ... in step units; every partial sum is at most
    # sum k_j <= budget_units in modulus, so key is summed in the tails' dtype
    key = tails @ np.array([(-1) ** (j + 1) for j in range(cfg.dims - 1)], dtype=tails.dtype)
    # the least key, -budget_units, puts the whole budget on b2: k1 <= top + budget_units
    caps = [top + budget_units] + [budget_units // w for w in range(1, cfg.dims)]
    small = np.int32 if max(caps[0], len(tails)) < 2**31 else np.int64  # holds every row and k1
    # sorted row -> lexicographic row; numpy's stable sort of 16-bit ints is a radix sort
    order = np.argsort(key, kind="stable").astype(small)
    # the point is a member iff p(-1) >= 0, that is k1 + key <= floor(1/step); b1 = 0 keeps the zero tail
    live = order[:np.searchsorted(key[order], top, side="right")]
    last = np.subtract(top, key[live], dtype=small)
    polytope = cfg.refine_rounds and _vertices(lam, cfg.dims)
    signs, found = {d: 1 if d == "max" else -1 for d in directions}, {}
    for absolute in (False, True):
        group = [fn for fn in fns if bool(fn.an) == absolute]
        if not group:
            continue
        monomials = [_integer_monomials(fn, width) for fn in group]
        best = _polytope_best(monomials, absolute, signs, *polytope, cfg.dims) if polytope else {}
        won = _exact_sweep(monomials, absolute, step, caps, tails, live, last, signs, best)
        for f, (fn, (lcm, deg, _)) in enumerate(zip(group, monomials)):
            for direction, s in signs.items():
                score, (k1, tail) = won[f, direction]
                row = best.get((f, direction))  # the pass's, kept where the sweep keeps the seed's sentinel
                if tail < len(tails):
                    point = step.denominator, tuple(step.numerator * k for k in (k1, *tails[tail].tolist(), *pad))
                    lattice = s * score, step.denominator**deg, point
                    row = row if row and _wins(s, row, lattice) else lattice
                num, den, point = row
                found[fn.name, direction] = Fraction(num, lcm * den), point
    return found


# -- public search API -----------------------------------------------------


def optimize(fn: Union[Functional, str], lam: RationalIn, direction: str,
             cfg: SearchConfig | None = None) -> BoundCertificate:
    """Grid sweep plus the vertex + edge pass for one (functional, direction) pair."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    fn = functional_by_name(fn) if isinstance(fn, str) else fn
    lam = lambda_in_range(lam)
    cfg = cfg or SearchConfig()
    return next(_certify(lam, cfg, fn, (direction,), _sweep(lam, cfg, [fn], (direction,))))


def verify_bounds(lambda_grid: Sequence[RationalIn], cfg: SearchConfig | None = None) -> list[BoundCertificate]:
    """Certify every named functional in both directions over a lambda grid: one sweep, with its vertex + edge pass,
    per lambda, each range-checked before any sweep starts; rows in grid, then functional order, max before min."""
    cfg = cfg or SearchConfig()
    certs = []
    for lam in [lambda_in_range(raw) for raw in lambda_grid]:
        winners = _sweep(lam, cfg, FUNCTIONALS, ("max", "min"))
        certs += [cert for fn in FUNCTIONALS for cert in _certify(lam, cfg, fn, ("max", "min"), winners)]
    return certs


def conjecture_scan(n: int, lam: RationalIn, cfg: SearchConfig | None = None) -> BoundCertificate:
    """Maximize |a_n| over dims >= n - 1, the coordinates a_n reads, against 1 + lambda + ... + lambda^(n-1); a FAIL
    marks a counterexample candidate for the coefficient growth conjecture."""
    fn = an_functional(n)
    cfg = cfg or SearchConfig()
    cfg = replace(cfg, dims=max(cfg.dims, n - 1))
    return optimize(fn, lam, "max", cfg)
