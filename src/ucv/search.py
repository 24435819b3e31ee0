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
refinement; no gradients, no randomness.  verify_bounds takes its
lambdas in grid order: one sweep each, then the refinement and
certification of that lambda's rows.

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

    Built from the last weight forwards: for k = 0..budget // w, k goes
    in front of the rows of the later weights whose units fit in
    budget - k w.  One nonzero over the (k, row) fit table lists those
    pairs k-major, which keeps the order lexicographic.
    """
    dtype = np.int16 if budget < 2**15 else np.int64
    rows = np.zeros((1, 0), dtype=dtype)
    used = np.zeros(1, dtype=np.int64)
    for w in reversed(weights):
        k = np.arange(budget // w + 1)
        ks, rs = np.nonzero(used <= budget - w * k[:, None])
        rows, used = np.hstack((ks.astype(dtype)[:, None], rows[rs])), used[rs] + w * ks
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


def _an_view(n: int, step: Fraction, k1_max: int, tails: np.ndarray, order: np.ndarray) -> tuple:
    """(head, columns, scorer) on which _sweep scores AN(n) exactly: for
    step = num/den, den^(n-1) e_(n-1) = C_0 + C_1 k1 + ... + num^(n-1)
    k1^(n-1) at b1 = k1 step, a column C_i per tail in slack order.  e_k is
    weighted homogeneous, so den^k e_k is e_k at b_j' = num k_j den^(j-1),
    and _an_coefficient runs per chunk of tails over polynomials in k1.  At
    -caps, the largest |b_j'|, it adds up the moduli of all its terms, which
    bounds every value here: int64 below 2**63, else Python ints (object).
    """
    num, den = step.numerator, step.denominator
    caps = [num * max(k1_max, 1)] + [num * max(int(c.max()), 1) * den ** (j + 1) for j, c in enumerate(tails.T)]
    dtype = np.int64 if abs(_an_coefficient([-c for c in caps], n)) < 2**63 else object
    cols = [np.empty(len(order), dtype=dtype) for _ in range(n - 1)]
    for lo in range(0, len(order), _AN_CHUNK):
        part = tails[order[lo:lo + _AN_CHUNK]].astype(dtype)
        b = [_Polynomial({(0,): c * (num * den ** (j + 1))}) for j, c in enumerate(part.T)]
        poly = _an_coefficient([_Polynomial({(1,): num})] + b, n)
        for i, c in enumerate(cols):
            c[lo:lo + _AN_CHUNK] = poly.get((i,), 0)

    def horner(fn: Functional, block: tuple) -> np.ndarray:  # |a_n| den^(n-1)
        acc = block[-1] + num ** (n - 1) * block[0]  # a new array, so the rest runs in place
        for c in block[-2:0:-1]:
            np.add(np.multiply(acc, block[0], out=acc), c, out=acc)
        return np.abs(acc, out=acc)

    return np.arange(k1_max + 1, dtype=dtype), cols, horner


def _sweep(lam: Fraction, cfg: SearchConfig, fns: Sequence[Functional]) -> dict:
    """Coarse lattice sweep; returns {(name, direction): (value, arg)}.

    The tails are sorted once by p(-1) slack, most first, by a stable sort,
    so slice b1 = k1 step holds exactly the first counts[k1] of them.  A
    functional is scored on its view, a head per slice and columns per
    tail: the registry's (b1 and the tail floats, for evaluate) in blocks
    of consecutive slices, the most that fit in _SWEEP_BLOCK feasible
    points (or one larger slice); AN(n)'s (_an_view, exact) a slice at a
    time, valued by one scalar evaluate at the winner.  A one-slice block
    reads its columns as views, its head as a scalar.  A slot keeps its
    best score and the least k1 that reaches it (a block's first hit lies
    in its least slice; a strict comparison keeps the earlier block's).
    Slack order is not lexicographic, so the winning slice is scored again
    and its least tied tail wins: the least point overall.
    """
    def scores(fn: Functional, block: tuple) -> np.ndarray:
        v = fn.evaluate(block)  # -0.0 == 0.0 in every comparison; a kept winner is cleared of it
        # a functional of a one-slice block's scalar b1 alone; block[1] spans the block (width >= 4)
        return v if np.ndim(v) else np.broadcast_to(v, block[1].shape)

    def points(an: int | None, lo: int, hi: int) -> tuple:  # slices lo..hi-1 end to end; a scalar head for one
        (head, cols, _), cnt = views[an], counts[lo:hi]
        if hi - lo == 1:
            return (head[lo], *(c[: cnt[0]] for c in cols))
        return (np.repeat(head[lo:hi], cnt), *(np.concatenate([c[:m] for m in cnt]) for c in cols))

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
    lut = _grid_values(step, k1_max + 1)
    # (head, columns, scorer): the registry's at None, AN(n)'s by n
    views = {None: (lut, [lut[tails[order, j]] for j in range(cfg.dims - 1)] + [np.zeros(len(order)) for _ in pad],
                    scores)} if any(fn.an is None for fn in fns) else {}
    # the point is a member iff p(-1) >= 0, that is k1 + key <= floor(1/step)
    counts = np.searchsorted(key[order], top - np.arange(k1_max + 1), side="right")
    views.update((an, _an_view(an, step, k1_max, tails, order)) for an in dict.fromkeys(fn.an for fn in fns) if an)
    nslices = int(np.count_nonzero(counts))  # counts falls with k1; b1 = 0 keeps the zero tail
    ends = np.cumsum(counts[:nslices])  # points in slices 0..k1
    best = [[-math.inf, None, math.inf, None] for _ in fns]  # per functional: max, its k1, min, its k1
    for an, (_, _, score) in views.items():
        lo = 0
        while lo < nslices:  # registry: the most slices in _SWEEP_BLOCK points, or one larger; AN(n): one
            start = int(ends[lo] - counts[lo])
            hi = lo + 1 if an else max(int(np.searchsorted(ends, start + _SWEEP_BLOCK, side="right")), lo + 1)
            bf = points(an, lo, hi)
            for fn, slot in zip(fns, best):
                if fn.an == an:
                    v = score(fn, bf)
                    jmax, jmin = int(np.argmax(v)), int(np.argmin(v))
                    if v[jmax] > slot[0]:
                        slot[0], slot[1] = v[jmax], int(np.searchsorted(ends, start + jmax, side="right"))
                    if v[jmin] < slot[2]:
                        slot[2], slot[3] = v[jmin], int(np.searchsorted(ends, start + jmin, side="right"))
            lo = hi

    def winner(fn: Functional, score, k1: int) -> tuple[float, tuple[Fraction, ...]]:
        ties = np.flatnonzero(views[fn.an][2](fn, points(fn.an, k1, k1 + 1)) == score)
        row = ties[np.argmin(order[ties])]  # the least tail in lexicographic order
        arg = (k1 * step,) + tuple(int(t) * step for t in tails[order[row]]) + pad
        return float(score if fn.an is None else fn.evaluate(tuple(map(float, arg)))) + 0.0, arg

    return {(fn.name, d): winner(fn, score, k1)
            for fn, slot in zip(fns, best) for d, score, k1 in (("max", *slot[:2]), ("min", *slot[2:]))}


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
    moves: set[tuple[int, ...]] = set()

    def add(v: list[int]) -> None:
        moves.add(tuple(v))
        moves.add(tuple(-x for x in v))

    for i in range(dims):
        v = [0] * dims
        v[i] = 1
        add(v)
    for i in range(dims):
        for j in range(i + 1, dims):
            for sj in (+1, -1):
                v = [0] * dims
                v[i], v[j] = 1, sj
                add(v)
    for i in range(1, dims):
        for j in range(i + 1, dims):
            g = math.gcd(i, j)
            vi, vj = j // g, -(i // g)
            si, sj = (-1) ** (i + 1), (-1) ** (j + 1)
            v = [0] * dims
            v[i], v[j] = vi, vj
            add(v)
            v = list(v)
            v[0] = vi * si + vj * sj
            add(v)
    return tuple(sorted(moves))


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
    value, arg = _sweep(lam, cfg, [fn])[(fn.name, direction)]
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
        incumbents = _sweep(lam, cfg, FUNCTIONALS)
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
