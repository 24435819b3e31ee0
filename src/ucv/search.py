"""Constrained extremal search and bound certification.

The feasible set is the b-lattice of the membership model: b_n >= 0,
sum (n-1) b_n <= lambda, denominator nonvanishing in the open disk.
With b >= 0 and a budget lambda <= 1 the disk condition is exactly
p(-1) = 1 - b1 + b2 - b3 + ... >= 0 (the theorem at
rootcheck.nonvanishing_in_open_disk), so the sweep keeps a lattice
point by one exact integer comparison and computes no root.  It sets
no b1 cap: the three conditions imply b1 <= 1 + lambda (see _refine).

Every objective here is a low-degree polynomial in (b1..b4) (the
general coefficient objective AN(n) reads b1..b_{n-1}), so the search
is a deterministic lattice sweep followed by shrinking-step local
refinement; no gradients, no randomness.  A sweep scores the
directions its caller keeps: optimize and conjecture_scan one,
verify_bounds both, one sweep per lambda in grid order.  AN(n) is
scored exactly per tail: den^(n-1) a_n is expanded once per sweep, an
integer enclosure of it over the tail's feasible b1 drops each tail that
cannot win, the same enclosure on runs of consecutive b1 drops each run
that cannot win, and the cells of the rest are scored by integer Horner.

Certification compares the searched extremum against the closed-form
bound for the class when one exists.  A certificate FAILs only if the
search strictly beats the bound beyond a small floating slack; a WARN
flag marks bounds the grid did not get close to (sharpness not
reproduced at this resolution).  A BoundCertificate is a value;
ucv.cli renders it as a table, JSON or CSV.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from ucv.model import (
    FUNCTIONALS,
    BoundValue,
    Functional,
    _an_coefficient,
    _monomial_index,
    _Polynomial,
    an_functional,
    functional_by_name,
    lambda_in_range,
)
from ucv.rootcheck import RationalIn, as_rational, nonvanishing_in_open_disk

# floating slack separating a genuine bound violation from the rounding
# of the float objectives, vs the much looser grid-sharpness warning
# threshold
FAIL_SLACK = 1e-7
WARN_GAP = 5e-3

_SWEEP_BLOCK = 2**14  # most feasible points in a sweep block of several b1 slices
_AN_CHUNK = 2**12  # most tails in one build of AN(n)'s exact columns
_RUN = 8  # k1 per run that AN(n)'s sweep bounds before it scores the run's cells
_REFINE_WINDOW = 12
_REFINE_PASSES = 6


# -- closed-form bounds ----------------------------------------------------


def closed_form_bound(fn: Union[Functional, str], lam: RationalIn, direction: str) -> BoundValue:
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


def _width(dims: int) -> int:
    return max(4, dims)


def _tail_units(budget: int, weights: tuple[int, ...]) -> np.ndarray:
    """Every (k_2, ..., k_dims) >= 0 with sum w_j k_j <= budget, as rows
    in lexicographic order; one empty row when there are no weights.  The
    rows are int16 while budget < 2**15, which bounds every entry, and
    int64 past that.

    Built column by column into one array.  fits[j][u] counts the rows of
    the weights from j on in a budget u.  The prefixes (k_2..k_(j+1)), in
    lexicographic order, are kept as the budgets they leave: each is
    followed by k = 0..left // w, and each k repeats once per row of the
    later weights that fits in what is left then.
    """
    dtype = np.int16 if budget < 2**15 else np.int64
    fits = [np.ones(budget + 1, dtype=np.int64)]
    for w in reversed(weights):  # fit[u] = sum of the later fit[u - k w], k >= 0: a running sum per residue mod w
        fit = np.zeros(-(-(budget + 1) // w) * w, dtype=np.int64)
        fit[:budget + 1] = fits[0]
        fits.insert(0, fit.reshape(-1, w).cumsum(axis=0).ravel()[:budget + 1])
    rows = np.empty((int(fits[0][budget]), len(weights)), dtype=dtype)
    left = np.array([budget], dtype=np.promote_types(dtype, np.int32))  # holds left // w + 1
    for j, w in enumerate(weights):
        kids = left // w + 1
        k = np.ones(int(kids.sum()), dtype=dtype)  # 0..kids - 1 after each prefix, by one running sum
        k[0], k[np.cumsum(kids[:-1])] = 0, 1 - kids[:-1]
        np.cumsum(k, out=k)
        if j + 1 < len(weights):  # the last column repeats nothing
            left = np.repeat(left, kids) - w * k
            k = np.repeat(k, fits[j + 1][left])
        rows[:, j] = k
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


def _certificate(fn: Functional, lam: Fraction, direction: str, value: float,
                 arg: tuple[Fraction, ...]) -> BoundCertificate:
    bound = closed_form_bound(fn, lam, direction)
    if bound is None:
        return BoundCertificate(lam, fn.name, direction, value, arg, None, None, "NO_CLOSED_FORM", False)
    closed = float(bound)
    gap = closed - value
    if direction == "max":
        beats, shortfall = value > closed + FAIL_SLACK, gap
    else:
        beats, shortfall = value < closed - FAIL_SLACK, -gap
    status = "FAIL" if beats else "PASS"
    return BoundCertificate(lam, fn.name, direction, value, arg, closed, gap, status, shortfall > WARN_GAP)


# -- sweep core ------------------------------------------------------------


def _grid_values(step: Fraction, count: int) -> np.ndarray:
    # float(k * step) bit for bit: int true division rounds correctly, k * float(step) can be an ulp off
    return np.array([k * step.numerator / step.denominator for k in range(count)])


def _horner(cols: np.ndarray, x, lead: int) -> np.ndarray:
    # lead x^r + cols[r-1] x^(r-1) + ... + cols[0] in a new array; x is per tail, or a (k1 x tail) table
    acc = lead * x + cols[-1]
    for c in cols[-2::-1]:
        np.add(np.multiply(acc, x, out=acc), c, out=acc)
    return acc


def _parts(cols: np.ndarray, x, lead: int) -> tuple:
    # P = lead x^r + cols[r-1] x^(r-1) + ... + cols[0] and P-, the part of its negative coefficients negated, at x
    return _horner(cols, x, lead), _horner(np.maximum(-cols, 0), x, 0)


def _enclosure(at, neg) -> tuple:
    # (lower, upper) of P on each [a, b] of two neighbours along axis 0 of the points, rising from 0 or more, at
    # which P and P- take the values at and neg: P+ = P + P- and P- rise on x >= 0, so P+(a) - P-(b) <= P(x) <=
    # P+(b) - P-(a)
    pos = at + neg
    return pos[:-1] - neg[1:], pos[1:] - neg[:-1]


def _reach(lower, upper, s: int):
    # the most that s |P| reaches where lower <= P <= upper: max |P| for s = 1, -min |P| for s = -1
    return np.maximum(upper, -lower) if s > 0 else np.minimum(np.minimum(upper, -lower), 0)


def _an_columns(part: np.ndarray, steps: list, sums: list) -> np.ndarray:
    # C_i = sum c t over (c, t) in sums[i] for each row of part, t a tail monomial by index: monomial 0 is 1, and
    # monomial i + 1 is monomial p times column v of part, (p, v) = steps[i]
    monomials = [1]
    for p, v in steps:
        monomials.append(monomials[p] * part[:, v])
    cols = np.zeros((len(sums), len(part)), dtype=part.dtype)
    for col, terms in zip(cols, sums):
        for c, t in terms:
            col += c * monomials[t]
    return cols


def _an_sweep(n: int, step: Fraction, k1_max: int, tails: np.ndarray, rank: np.ndarray, last: np.ndarray,
              signs: dict) -> dict:
    """{direction: (k1, row of tails)}, the least point of the exact
    extremum of |a_n| over the tails rank[i] (slack order), each feasible
    for k1 in [0, m], m = last[i].

    P = den^(n-1) e_(n-1) = C_0 + C_1 k1 + ... + num^(n-1) k1^(n-1) for
    step = num/den: den^k e_k is e_k at b_j' = num k_j den^(j-1) (weighted
    homogeneity).  It is expanded once per sweep over (k1, k2..k_dims) in
    Python ints, and each chunk of tails reads its C_i off the expansion,
    each tail monomial built once per chunk from an earlier one
    (_an_columns).  At -caps, the largest |b_j'|, e_(n-1) adds up the
    moduli of all its terms, a bound on every value here: int64 below
    2**63, else Python ints.  Each tail's ends k1 = 0 and m are scored as
    it is built; a tail whose bound on s |P| (s = 1 max, -1 min, _enclosure
    on [0, m]) is at most the best end cannot beat it, as P+ rises
    strictly: the bound is reached at an end, or as |P| = 0 inside the
    tail, after the zero tail's k1 = 0 end.  The kept tails are cut into
    runs of _RUN k1 from a (fewer at m, and no more than a table holds).
    A run is bounded on [a, b], b = a + _RUN or m, so that neighbouring
    runs share their bound's ends, P and P- at the ends in tables of at
    most _SWEEP_BLOCK ends x tails (or one run's two ends).  Each cell of a run has (score, -k1)
    at most (bound, -a), so a run is scored only when (bound, -a) beats
    the best (score, -k1) so far, in tables of at most _SWEEP_BLOCK cells,
    each giving its best score at its least k1.
    """
    num, den = step.numerator, step.denominator
    caps = [num * max(k1_max, 1)] + [num * max(int(c.max()), 1) * den ** (j + 1) for j, c in enumerate(tails.T)]
    bound = abs(_an_coefficient([-c for c in caps], n))
    dtype = np.int64 if bound < 2**63 else object
    lead, floor = num ** (n - 1), -bound - 1  # the top coefficient; below every score
    width = len(caps)
    poly = _an_coefficient([_Polynomial({tuple(int(i == j) for i in range(width)): num * den**j})
                            for j in range(width)], n)
    index, steps, sums = {(0,) * (width - 1): 0}, [], [[] for _ in range(n - 1)]
    for e, c in poly.items():
        if e[0] < n - 1:  # the top term is lead k1^(n-1)
            sums[e[0]].append((c, _monomial_index(index, steps, e[1:])))
    best, kept = dict.fromkeys(signs, (floor, 0, 0)), []  # (score, -k1, -row) of the best end
    for lo in range(0, len(last), _AN_CHUNK):
        # take gathers rows many times faster than fancy indexing does
        cols = _an_columns(tails.take(rank[lo:lo + _AN_CHUNK], axis=0).astype(dtype), steps, sums)
        m = last[lo:lo + _AN_CHUNK].astype(dtype)
        p_m, neg_m = _parts(cols, m, lead)
        p, neg = np.stack([cols[0], p_m]), np.stack([np.maximum(-cols[0], 0), neg_m])  # at k1 = 0 and m
        lower, upper = _enclosure(p, neg)
        tops = [_reach(lower[0], upper[0], s) for s in signs.values()]  # s |P| is at most these
        for d, s in signs.items():
            ends = s * np.abs(p)  # at k1 = 0 and k1 = m
            score = int(ends.max())
            k = 0 if (ends[0] == score).any() else int(m[ends[1] == score].min())
            at = ends[0] == score if k == 0 else (ends[1] == score) & (m == k)
            best[d] = max(best[d], (score, -k, -int(rank[lo:lo + _AN_CHUNK][at].min())))
        keep = np.logical_or.reduce([t > best[d][0] for t, d in zip(tops, signs)])
        kept.append((lo + np.flatnonzero(keep), cols[:, keep], *(t[keep] for t in tops)))
    for i, (r, c, *tops) in enumerate(kept):  # the final filter, part by part, before the one copy
        keep = np.logical_or.reduce([t > best[d][0] for t, d in zip(tops, signs)])
        kept[i] = r[keep], c[:, keep]
    rows, cols = (np.concatenate(a, axis=-1) for a in zip(*kept))
    del kept  # the parts, before the tables
    run = min(_RUN, _SWEEP_BLOCK)  # a run's cells fit in one table
    per = _SWEEP_BLOCK // run  # kept runs per table of their cells
    m, hits, lo = last[rows], {d: best[d][:2] for d in signs}, 0  # m falls along the rows; hits: (score, -k1)
    while lo < len(rows):  # bound tables of the runs a = r0 run.. by tails lo..hi-1
        runs = int(m[lo]) // run + 1
        span = min(runs, max(_SWEEP_BLOCK - 1, 1))  # runs per bound table, which holds their span + 1 ends
        hi = lo + max(_SWEEP_BLOCK // (span + 1), 1)
        part, ms = cols[:, lo:hi], m[lo:hi]
        for r0 in range(0, runs, span):
            a = np.arange(r0 * run, (min(r0 + span, runs) + 1) * run, run, dtype=dtype)[:, None]
            lower, upper = _enclosure(*_parts(part, np.minimum(a, ms), lead))  # each run to the next one's a, or m
            a = a[:-1]
            for d, s in signs.items():
                score, k = hits[d]
                top = _reach(lower, upper, s)
                ra, t = np.nonzero((a <= ms) & ((top > score) | ((top == score) & (a < -k))))
                for g in range(0, len(t), per):  # tables of the kept runs' cells
                    k1, tg = a[ra[g:g + per], 0] + np.arange(run)[:, None], t[g:g + per]
                    v = np.where(k1 > ms[tg], floor, s * np.abs(_horner(part[:, tg], np.minimum(k1, ms[tg]), lead)))
                    top_v = v.max()
                    hits[d] = max(hits[d], (int(top_v), -int(k1[v == top_v].min())))
        lo = hi
    found = {}
    for d, s in signs.items():  # the least tail at the best k1: the best end's, or a kept one
        (score, k1), live = hits[d], np.count_nonzero(m >= -hits[d][1])  # the kept tails feasible at k1
        ties = rank[rows[:live][s * np.abs(_horner(cols[:, :live], -k1, lead)) == score]].tolist()
        found[d] = -k1, min(ties + [-best[d][2]] * (hits[d] == best[d][:2]))
    return found


def _sweep(lam: Fraction, cfg: SearchConfig, fns: Sequence[Functional],
           directions: Sequence[str] = ("max", "min")) -> dict:
    """Coarse lattice sweep; returns {(name, direction): (value, arg)} for
    the directions asked for.

    The tails are sorted once by p(-1) slack, most first, by a stable sort,
    so slice b1 = k1 step holds exactly the first counts[k1] of them.
    AN(n) is scored exactly per tail (_an_sweep: an integer bound drops the
    tails that cannot win, Horner tables score the rest).  The registry is
    scored by evaluate on floats in blocks: the most slices that fit in
    _SWEEP_BLOCK feasible points, or _SWEEP_BLOCK rows of one larger slice
    (b1 a scalar).  A slot keeps its best score and the least k1 that
    reaches it (a strict comparison keeps the earlier block's); slack order
    is not lexicographic, so the winning slice is scored again and its
    least tied tail wins: the least point overall.
    """
    def scores(fn: Functional, block: tuple) -> np.ndarray:
        v = fn.evaluate(block)  # -0.0 == 0.0 in every comparison; a kept winner is cleared of it
        # a functional of a one-slice block's scalar b1 alone; block[1] spans the block (width >= 4)
        return v if np.ndim(v) else np.broadcast_to(v, block[1].shape)

    def points(lo: int, hi: int, r0: int, r1: int) -> tuple:  # slices lo..hi-1 end to end, or rows r0..r1-1 of one
        if hi - lo == 1:
            return (lut[lo], *(c[r0:r1] for c in cols))
        return (np.repeat(lut[lo:hi], counts[lo:hi]), *(np.concatenate([c[:m] for m in counts[lo:hi]]) for c in cols))

    def result(fn: Functional, k1: int, tail: int, score=None) -> tuple[float, tuple[Fraction, ...]]:
        arg = (k1 * step,) + tuple(int(t) * step for t in tails[tail]) + pad  # AN(n): one scalar evaluate
        return float(score if fn.an is None else fn.evaluate(tuple(map(float, arg)))) + 0.0, arg

    step = cfg.grid_step
    top, budget_units = int(1 / step), int(lam / step)
    k1_max = top + budget_units  # the least key, -budget_units, puts the whole budget on b2
    tails = _tail_units(budget_units, tuple(range(1, cfg.dims)))
    pad = (Fraction(0),) * (_width(cfg.dims) - cfg.dims)  # b_(dims+1)..b4
    # p(-1) = 1 - b1 - key, key = -b2 + b3 - b4 + ... in step units; every partial sum is at most
    # sum k_j <= budget_units in modulus, so key is summed in the tails' dtype
    key = tails @ np.array([(-1) ** (j + 1) for j in range(cfg.dims - 1)], dtype=tails.dtype)
    # sorted row -> lexicographic row; numpy's stable sort of 16-bit ints is a radix sort
    order = np.argsort(key, kind="stable")
    # the point is a member iff p(-1) >= 0, that is k1 + key <= floor(1/step)
    counts = np.searchsorted(key[order], top - np.arange(k1_max + 1), side="right")
    signs = {d: 1 if d == "max" else -1 for d in directions}
    live = order[:counts[0]]  # the tails with a feasible k1, whose last is top - key
    found = {(fn.name, d): result(fn, *hit) for fn in fns if fn.an for d, hit in _an_sweep(
        fn.an, step, k1_max, tails, live, top - key[live].astype(np.int64), signs).items()}
    registry = [fn for fn in fns if fn.an is None]
    lut = _grid_values(step, k1_max + 1) if registry else None
    cols = [lut[tails[order, j]] for j in range(cfg.dims - 1)] + [np.zeros(len(order)) for _ in pad] if registry else []
    ends = np.cumsum(counts[:np.count_nonzero(counts)])  # points in slices 0..k1; b1 = 0 keeps the zero tail
    best = {(fn, d): [-s * math.inf, None] for fn in registry for d, s in signs.items()}  # score, k1
    lo = 0
    while registry and lo < len(ends):
        start, size = int(ends[lo] - counts[lo]), int(counts[lo])
        hi = max(int(np.searchsorted(ends, start + _SWEEP_BLOCK, side="right")), lo + 1)  # one slice: row ranges
        for r0 in range(0, size if hi == lo + 1 else 1, _SWEEP_BLOCK):
            block = points(lo, hi, r0, min(r0 + _SWEEP_BLOCK, size))
            for fn in registry:
                v = scores(fn, block)
                for d, s in signs.items():
                    j, slot = int(np.argmax(v) if s > 0 else np.argmin(v)), best[fn, d]
                    if s * v[j] > s * slot[0]:
                        slot[:] = v[j], int(np.searchsorted(ends, start + r0 + j, side="right"))
        lo = hi
    for (fn, d), (score, k1) in best.items():
        ties = np.flatnonzero(scores(fn, points(k1, k1 + 1, 0, int(counts[k1]))) == score)
        found[fn.name, d] = result(fn, k1, order[ties].min(), score)
    return {(fn.name, d): found[fn.name, d] for fn in fns for d in directions}


# -- refinement ------------------------------------------------------------


def _move_directions(dims: int) -> tuple[tuple[int, ...], ...]:
    """Integer step directions for the local polish.

    Besides single-coordinate and diagonal pair moves, the set carries the
    null-space lattice of the two constraints that saturate at extremal
    points: the weighted budget sum and the p(-1) >= 0 facet.  Coordinate
    index i holds b_{i+1} with budget weight i and sign (-1)^(i+1) in
    p(-1); the pair (b_{i+1}, b_{j+1}) moves by (j, -i)/gcd to stay on the
    budget, and the matching triple adds the b1 component that keeps
    p(-1) fixed as well.  Without these, a point with both constraints
    tight can be a local optimum of every axis or diagonal move while the
    true extremum sits further along the intersection.
    """
    moves = [{i: 1} for i in range(dims)]  # {index: entry}, zero elsewhere
    moves += [{i: 1, j: sj} for i in range(dims) for j in range(i + 1, dims) for sj in (1, -1)]
    for i in range(1, dims):
        for j in range(i + 1, dims):
            vi, vj = j // math.gcd(i, j), -(i // math.gcd(i, j))
            moves += [{i: vi, j: vj}, {0: vi * (-1) ** (i + 1) + vj * (-1) ** (j + 1), i: vi, j: vj}]
    vectors = [tuple(m.get(i, 0) for i in range(dims)) for m in moves]
    return tuple(sorted({v for u in vectors for v in (u, tuple(-x for x in u))}))


@functools.lru_cache(maxsize=None)
def _delta_table(dims: int, num: int) -> tuple[np.ndarray, np.ndarray]:
    """The refinement's moves in trial order, as one gate matrix.

    The moves d are m k num for each move m of _move_directions at window
    scales k = 1..12, padded to the search width w.  Column i of the gate
    matrix G, C-contiguous of shape (w + 2, n), is (-d, budget(d),
    -alt(d)): budget(d) = sum i d_i is the change to the budget units and
    alt(d) = -d_1 + d_2 - d_3 + ... the change to D p(-1).  So x + d is
    feasible iff G[:, i] <= (x_1..x_w, lambda - budget(x), D p(-1))
    entrywise.  lowers_i says the leading nonzero entry of d is negative,
    which is x + d < x lexicographically.  Built once per (dims, num).
    """
    width = _width(dims)
    rows = [tuple(m * k * num for m in move) + (0,) * (width - dims)
            for move in _move_directions(dims) for k in range(1, _REFINE_WINDOW + 1)]
    d = np.array(rows, dtype=np.int64)
    budget = d @ np.arange(width, dtype=np.int64)
    alt = d @ np.array([(-1) ** (i + 1) for i in range(width)], dtype=np.int64)
    gates = np.ascontiguousarray(np.vstack((-d.T, budget, -alt)))  # vstack of d.T is in Fortran order
    lowers = np.array([next(c for c in row if c) < 0 for row in rows])
    for a in (gates, lowers):
        a.setflags(write=False)
    return gates, lowers


def _refine(lam: Fraction, cfg: SearchConfig, fn: Functional, direction: str,
            arg: tuple[Fraction, ...], value: float) -> tuple[tuple[Fraction, ...], float, list[float]]:
    """Shrinking-step local polish around the coarse incumbent.

    Each round divides the step by 10 and makes up to six greedy passes
    over the moves of _delta_table; a round ends at the first pass with
    no accept.  Returns the round value history for monotonicity checks.

    The incumbent is an int vector x over one denominator D (the point
    x / D); each round multiplies x and D by 10.  A pass takes the gate
    columns of its remaining moves d, scores x + d as w contiguous rows,
    and keeps what improves (a better value, or an equal one at a smaller
    point: the lowers flag) and passes the gate, reduced over axis 0:
    every coordinate >= 0, the budget x_2 + 2 x_3 + ... within
    floor(lambda D) and D p(-1) >= 0.  These imply the paper's b1 <= 1 +
    lambda (x_1 <= D + x_2 + x_4 + ... <= D + floor(lambda D)), so no cap
    is set.  With b >= 0 and budget <= lambda <= 1 the sign test is the
    disk condition (rootcheck.nonvanishing_in_open_disk), so the gate only
    re-checks the returned point, and a rejection raises.  The first hit
    is accepted, its value cleared of -0.0, and the pass goes on from the
    move after it: the first-improvement order of one move at a time.
    The arrays are int64 while 2 D + max |d| < 2**53, where float64 c / D
    is Python's correctly rounded int true division bit for bit, and hold
    Python ints (dtype object) past that: the same loop over Fraction.
    """
    if not cfg.refine_rounds:
        return arg, value, [value]  # the sweep's point, kept by the sign test
    table, lowers = _delta_table(cfg.dims, cfg.grid_step.numerator)
    width = _width(cfg.dims)
    n, span = len(lowers), int(np.abs(table[:width]).max())
    D = cfg.grid_step.denominator
    x = [int(v * D) for v in arg]
    history = [value]
    for _ in range(cfg.refine_rounds):
        D *= 10
        x = [10 * c for c in x]
        dtype = np.int64 if 2 * D + span < 2**53 else object
        gates = table.astype(dtype, copy=False)
        lam_units = lam.numerator * D // lam.denominator
        bx = sum(i * c for i, c in enumerate(x))
        ax = D + sum(c if i % 2 else -c for i, c in enumerate(x))
        for _ in range(_REFINE_PASSES):
            pos, improved = 0, False
            while pos < n:
                g, h = gates[:, pos:], np.array(x + [lam_units - bx, ax], dtype=dtype)[:, None]
                cand = h[:width] - g[:width]
                v = fn.evaluate(tuple(np.asarray(cand / D, dtype=float)))
                better = v > value if direction == "max" else v < value
                ok = (better | ((v == value) & lowers[pos:])) & (g <= h).all(axis=0)
                j = int(ok.argmax())
                if not ok[j]:
                    break
                x, value = cand[:, j].tolist(), float(v[j]) + 0.0  # clears -0.0
                bx, ax = bx + int(g[width, j]), ax - int(g[width + 1, j])
                pos, improved = pos + j + 1, True
            if not improved:
                break
        history.append(value)
    point = tuple(Fraction(c, D) for c in x)
    if not nonvanishing_in_open_disk((Fraction(1),) + point):
        raise RuntimeError(f"refined point {point} fails the disk gate")
    return point, value, history


# -- public search API -----------------------------------------------------


def _certify_row(lam: Fraction, cfg: SearchConfig, fn: Functional, direction: str,
                 value: float, arg: tuple[Fraction, ...]) -> BoundCertificate:
    """Refine one coarse incumbent and certify it against the closed form."""
    arg, value, _ = _refine(lam, cfg, fn, direction, arg, value)
    return _certificate(fn, lam, direction, value, arg)


def optimize(fn: Union[Functional, str], lam: RationalIn, direction: str,
             cfg: SearchConfig | None = None) -> BoundCertificate:
    """Grid sweep plus refinement for one (functional, direction) pair."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    fn = functional_by_name(fn) if isinstance(fn, str) else fn
    lam = lambda_in_range(lam)
    cfg = cfg or SearchConfig()
    value, arg = _sweep(lam, cfg, [fn], (direction,))[(fn.name, direction)]
    return _certify_row(lam, cfg, fn, direction, value, arg)


def verify_bounds(lambda_grid: Sequence[RationalIn], cfg: SearchConfig | None = None) -> list[BoundCertificate]:
    """Certify every named functional in both directions over a lambda grid.

    Each lambda gets one shared coarse sweep that feeds its 32 rows (the
    sweep itself is the pointwise never-exceed check: each incumbent
    dominates every feasible grid point), which are then refined and
    certified.  Every lambda is range-checked before any sweep starts.
    Row order: grid order, then functional order, then max before min.
    """
    cfg = cfg or SearchConfig()
    certs = []
    for lam in [lambda_in_range(raw) for raw in lambda_grid]:
        incumbents = _sweep(lam, cfg, FUNCTIONALS, ("max", "min"))
        certs += [_certify_row(lam, cfg, fn, direction, *incumbents[(fn.name, direction)])
                  for fn in FUNCTIONALS for direction in ("max", "min")]
    return certs


def conjecture_scan(n: int, lam: RationalIn, cfg: SearchConfig | None = None) -> BoundCertificate:
    """Maximize |a_n| and compare against 1 + lambda + ... + lambda^(n-1).

    A FAIL marks a counterexample candidate for the coefficient growth
    conjecture (to be re-checked at finer resolution, never trusted raw).
    Search dimensionality grows to n-1 so the coefficient recursion sees
    every coordinate it reads.
    """
    fn = an_functional(n)
    cfg = cfg or SearchConfig()
    cfg = replace(cfg, dims=max(cfg.dims, n - 1))
    return optimize(fn, lam, "max", cfg)
