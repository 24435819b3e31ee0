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
verify_bounds both, one sweep per lambda in grid order.  Every
functional is scored exactly per tail: its integer polynomial in the
lattice units is expanded once, an integer enclosure of it over the
tail's feasible b1 drops each tail that cannot win, the same enclosure
on runs of consecutive b1 drops each run that cannot win, and the cells
of the rest are scored by integer Horner.

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
    _integer_monomials,
    _monomial_index,
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

_SWEEP_BLOCK = 2**13  # most cells (k1 or run ends x tails) in one table of the sweep
_CHUNK = 2**15  # most cells (tails x functionals x coefficients) in one build of the sweep's exact columns
_BATCH = 2**12  # most tails in a chunk, and the kept tails a functional gathers before they are scored
_RUN = 8  # k1 per run that the sweep bounds before it scores the run's cells
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


def _expansion(fns: Sequence[Functional], step: Fraction, dims: int) -> tuple:
    """(steps, monomials, table) of the integer polynomial P = L den^deg f(step k) of each f of fns, step = num/den:
    f's integer monomials (_integer_monomials) at N = num k, d = den, b_j past dims being 0.  table[f][i] lists the
    (c, t) of k1^i's coefficient, sum c monomial_t, up to P's degree in k1, at least 1; monomials holds the tail
    exponents by index: monomial 0 is 1, and monomial i + 1 is monomial p times tail column v, (p, v) = steps[i]."""
    num, den = step.numerator, step.denominator
    index, steps, table = {(0,) * (dims - 1): 0}, [], []
    for fn in fns:
        _, deg, terms = _integer_monomials(fn, _width(dims))
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
    """Raise hits[i], as _ends does, to the best cells of the tails ranks, with columns cols and last k1 m falling
    along them.  Each tail is cut into runs of _RUN k1 from a (fewer at m, and no more than a table holds), bounded on
    [a, b], b = a + _RUN or m, so that neighbouring runs share their bound's ends: P and N at the ends in tables of at
    most _SWEEP_BLOCK ends x tails (or one run's two ends).  A run is scored, in tables of at most _SWEEP_BLOCK cells
    (an infeasible cell scores floor), when its bound beats the best or ties it at k1 <= least or >= greatest."""
    dtype = cols.dtype
    run = min(_RUN, _SWEEP_BLOCK)  # a run's cells fit in one table
    per, lo = _SWEEP_BLOCK // run, 0  # kept runs per table of their cells
    while lo < len(m):  # bound tables of the runs a = r0 run.. by tails lo..hi-1
        runs = int(m[lo]) // run + 1
        span = min(runs, max(_SWEEP_BLOCK - 1, 1))  # runs per bound table, which holds their span + 1 ends
        hi = lo + max(_SWEEP_BLOCK // (span + 1), 1)
        part, ms, rs, lo = cols[:, lo:hi], m[lo:hi], ranks[lo:hi], hi
        for r0 in range(0, runs, span):
            a = np.arange(r0 * run, (min(r0 + span, runs) + 1) * run, run, dtype=dtype)[:, None]
            lower, upper = _enclosure(*_parts(part, np.minimum(a, ms)))  # each run to the next one's a, or m
            a = a[:-1]
            live, last = a <= ms, np.minimum(a + run - 1, ms)  # the runs that hold a point, and their last k1
            for i, (_, s) in enumerate(directions):
                (score, least, _), (_, greatest, _) = hits[i]
                top = _reach(lower, upper, s, absolute)
                ra, t = np.nonzero(live & ((top > score) | (top == score) & ((a <= -least) | (last >= greatest))))
                for g in range(0, len(t), per):  # tables of the kept runs' cells
                    k1, tg = a[ra[g:g + per], 0] + np.arange(run)[:, None], t[g:g + per]
                    p = _horner(part[:, tg], np.minimum(k1, ms[tg]))
                    v = np.where(k1 > ms[tg], floor, s * (np.abs(p) if absolute else p))
                    best = v.max()
                    if best >= hits[i][0][0]:
                        keys = (k1 * big + rs[tg])[v == best]  # the (k1, row) of each best cell as k1 big + row
                        _raise(hits[i], int(best), int(keys.min()), int(keys.max()), big)


def _raise(pair: list, score: int, lo: int, hi: int, big: int) -> None:
    # raise pair, the least and the greatest point as [(score, -k1, -row), (score, k1, row)], to divmod(lo or hi, big)
    pair[:] = max(pair[0], (score, *(-x for x in divmod(lo, big)))), max(pair[1], (score, *divmod(hi, big)))


def _ends(cols: np.ndarray, m: np.ndarray, ranks: np.ndarray, hits: list, directions: list, absolute: bool,
          big: int) -> np.ndarray:
    """Raise hits[f][i], the least and the greatest point of the best score of functional f in directions[i], to the
    ends k1 = 0 and m of the tails ranks, P and N taken for every functional at once, stacked; big is above every k1
    and row.  Return whether each (functional, tail) can still beat or tie the best: not where its bound on the score
    (_enclosure on [0, m]) is at most the best score, as P+ or N moves strictly unless P is constant in k1, so the
    bound is reached only at the tail's ends, counted here; but |P| = 0 inside a tail ties a best 0 of -|P|."""
    p_m, neg_m = _parts(cols, m.astype(cols.dtype, copy=False))
    # _enclosure on [0, m], with P(0) = C_0 and N(0) = min(C_0, 0)
    lower, upper = np.maximum(cols[0], 0) + neg_m, p_m - neg_m + np.minimum(cols[0], 0)
    ends, keep = np.concatenate((cols[0], p_m), axis=-1), False  # P at k1 = 0, then at m, per functional
    ends = np.abs(ends) if absolute else ends
    keys = np.concatenate((ranks, m * big + ranks))  # the (k1, row) of each end as k1 big + row
    for i, (_, s) in enumerate(directions):
        best = np.array([h[i][0][0] for h in hits], dtype=cols.dtype)
        e = ends.max(axis=-1) if s > 0 else ends.min(axis=-1)
        rise = np.flatnonzero(s * e >= best)  # the functionals whose best can rise to an end
        if rise.size:
            at = ends[rise] == e[rise, None]
            least, greatest = np.where(at, keys, big * big).min(axis=-1), np.where(at, keys, -1).max(axis=-1)
            for f, score, lo, hi in zip(rise.tolist(), (s * e[rise]).tolist(), least.tolist(), greatest.tolist()):
                _raise(hits[f][i], score, lo, hi, big)
            best[rise] = s * e[rise]
        # the score is at most the reach; integer scores, so reach > best - 1 keeps a tie, for -|P| only
        keep = keep | (_reach(lower, upper, s, absolute) > best[:, None] - (absolute and s < 0))
    return keep


def _exact_sweep(fns: Sequence[Functional], absolute: bool, step: Fraction, caps: list, tails: np.ndarray,
                 rank: np.ndarray, last: np.ndarray, signs: dict) -> dict:
    """{(f, direction): ((k1, row of tails), (k1, row))}, the least and the greatest point of the exact extremum of
    the score of fns[f], s P or s |P| where absolute, over the tails rank[i] (slack order), each feasible for k1 in
    [0, m], m = last[i]; caps holds the largest k1 and k_j.  P = C_0 + C_1 k1 + ... + C_r k1^r is the integer
    polynomial of _expansion.  Each chunk of at most _CHUNK cells and _BATCH tails reads every C_i off its tail
    monomials (_columns): int64 while _bound, at caps, is below 2**63, else Python ints.  _ends keeps the tails
    that can still win, and each functional's kept tails go to _run_tables once _BATCH of them gather."""
    steps, monomials, table = _expansion(fns, step, tails.shape[1] + 1)
    bound = _bound(table, monomials, [max(c, 1) for c in caps])
    dtype = np.int64 if bound < 2**63 else object
    floor, big, directions = -bound - 1, caps[0] + len(tails), list(signs.items())  # below any score; past k1, row
    hits = [[[(floor, 0, 0)] * 2 for _ in signs] for _ in fns]  # per functional and direction, as _raise keeps them
    kept = [[] for _ in fns]  # per functional: the (cols, m, ranks) of kept tails not yet scored
    size = max(min(_CHUNK // (len(fns) * max(map(len, table))), _BATCH), 1)  # tails per chunk
    for lo in range(0, len(last), size):
        ranks, m = rank[lo:lo + size], last[lo:lo + size]
        # take gathers rows many times faster than fancy indexing does
        cols = _columns(tails.take(ranks, axis=0).astype(dtype), steps, table)
        keep = _ends(cols, m, ranks, hits, directions, absolute, big)
        for f in np.flatnonzero(keep.any(axis=-1)):
            kept[f].append((cols[:len(table[f]), f][:, keep[f]], m[keep[f]], ranks[keep[f]]))
        del cols  # before the tables
        for f, part in enumerate(kept):
            if part and (lo + size >= len(last) or sum(len(r) for *_, r in part) >= _BATCH):
                _run_tables(*(np.concatenate(a, -1) for a in zip(*part)), hits[f], directions, absolute, floor, big)
                part.clear()
    return {(f, d): ((-hit[i][0][1], -hit[i][0][2]), hit[i][1][1:]) for f, hit in enumerate(hits)
            for i, (d, _) in enumerate(directions)}


def _sweep(lam: Fraction, cfg: SearchConfig, fns: Sequence[Functional],
           directions: Sequence[str] = ("max", "min")) -> dict:
    """Coarse lattice sweep; returns {(name, direction): (value, arg, far)} for the directions asked for.

    The tails are sorted once by p(-1) slack, most first, by a stable sort, so the tails feasible at b1 = k1 step are
    a prefix of them, and each tail's last feasible k1 falls along them.  Every functional is scored exactly per tail
    (_exact_sweep), the registry in one pass and AN(n), whose score is |P|, in another.  arg is the least point of
    the exact extremum, valued by one scalar float evaluate, cleared of -0.0, and far the greatest (arg if alone)."""
    step = cfg.grid_step
    top, budget_units = int(1 / step), int(lam / step)
    tails = _tail_units(budget_units, tuple(range(1, cfg.dims)))
    pad = (0,) * (_width(cfg.dims) - cfg.dims)  # b_(dims+1)..b4
    # p(-1) = 1 - b1 - key, key = -b2 + b3 - b4 + ... in step units; every partial sum is at most
    # sum k_j <= budget_units in modulus, so key is summed in the tails' dtype
    key = tails @ np.array([(-1) ** (j + 1) for j in range(cfg.dims - 1)], dtype=tails.dtype)
    # sorted row -> lexicographic row; numpy's stable sort of 16-bit ints is a radix sort
    order = np.argsort(key, kind="stable")
    # the point is a member iff p(-1) >= 0, that is k1 + key <= floor(1/step); b1 = 0 keeps the zero tail
    live = order[:np.searchsorted(key[order], top, side="right")]
    signs, found = {d: 1 if d == "max" else -1 for d in directions}, {}
    for absolute in (False, True):
        group = [fn for fn in fns if bool(fn.an) == absolute]
        if group:  # the least key, -budget_units, puts the whole budget on b2: k1 <= top + budget_units
            caps = [top + budget_units] + [budget_units // w for w in range(1, cfg.dims)]
            won = _exact_sweep(group, absolute, step, caps, tails, live, top - key[live].astype(np.int64), signs)
            for (f, d), ends in won.items():
                least, far = ((k1, *tails[tail].tolist(), *pad) for k1, tail in ends)
                arg = tuple(k * step for k in least)  # float(k step) is k num / den, correctly rounded
                value = float(group[f].evaluate(tuple(map(float, arg)))) + 0.0
                found[group[f].name, d] = value, arg, arg if far == least else tuple(k * step for k in far)
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


def _refine(lam: Fraction, cfg: SearchConfig, fn: Functional, direction: str, arg: tuple[Fraction, ...],
            value: float, far: tuple[Fraction, ...] | None = None) -> tuple[tuple[Fraction, ...], float, list[float]]:
    """Shrinking-step local polish around the coarse incumbent.

    Each round divides the step by 10 and makes up to six greedy passes over the moves of _delta_table; a round ends
    at the first pass with no accept.  Returns the round value history for monotonicity checks.

    far is the greatest point of the sweep's exact tie, arg the least.  Where their midpoint does not tie them, they
    are separate optima, and far is polished too, by strictly better moves only, to win only when strictly better
    (Z24 min at lambda = 1/3, step 1/10).  A tie on a flat of the functional stays with the least point: polishing
    the far ends of the default grid's 65 flat ties would add 30% and gain no row.

    The incumbent is an int vector x over one denominator D (the point x / D); each round multiplies x and D by 10.
    A pass takes the gate columns of its remaining moves d, scores x + d as w contiguous rows, and keeps what
    improves (a better value, or from arg an equal one at a smaller point: the lowers flag) and passes the gate,
    reduced over axis 0: every coordinate >= 0, the budget x_2 + 2 x_3 + ... within floor(lambda D) and
    D p(-1) >= 0.  These imply the paper's b1 <= 1 + lambda (x_1 <= D + x_2 + x_4 + ... <= D + floor(lambda D)), so
    no cap is set.  With b >= 0 and budget <= lambda <= 1 the sign test is the disk condition
    (rootcheck.nonvanishing_in_open_disk), so the gate only re-checks the returned point, and a rejection raises.
    The first hit is accepted, its value cleared of -0.0, and the pass goes on from the move after it: the
    first-improvement order of one move at a time.  The arrays are int64 while 2 D + max |d| < 2**53, where
    float64 c / D is Python's correctly rounded int true division bit for bit, and hold Python ints (dtype object)
    past that: the same loop over Fraction.
    """
    if not cfg.refine_rounds:
        return arg, value, [value]  # the sweep's point, kept by the sign test
    starts = [(arg, value, True)]
    if far not in (None, arg) and fn.evaluate(tuple((x + y) / 2 for x, y in zip(arg, far))) != fn.evaluate(arg):
        starts.append((far, float(fn.evaluate(tuple(float(c) for c in far))) + 0.0, False))
    table, lowers = _delta_table(cfg.dims, cfg.grid_step.numerator)
    width, results = _width(cfg.dims), []
    n, span = len(lowers), int(np.abs(table[:width]).max())
    for start, value, equal in starts:
        D, ties = cfg.grid_step.denominator, lowers & equal
        x, history = [int(v * D) for v in start], [value]
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
                    ok = (better | ((v == value) & ties[pos:])) & (g <= h).all(axis=0)
                    j = int(ok.argmax())
                    if not ok[j]:
                        break
                    x, value = cand[:, j].tolist(), float(v[j]) + 0.0  # clears -0.0
                    bx, ax = bx + int(g[width, j]), ax - int(g[width + 1, j])
                    pos, improved = pos + j + 1, True
                if not improved:
                    break
            history.append(value)
        results.append((tuple(Fraction(c, D) for c in x), value, history))
    # far's result only where strictly better: max keeps the first of equal values
    point, value, history = max(results, key=lambda r: r[1] if direction == "max" else -r[1])
    if not nonvanishing_in_open_disk((Fraction(1),) + point):
        raise RuntimeError(f"refined point {point} fails the disk gate")
    return point, value, history


# -- public search API -----------------------------------------------------


def _certify_row(lam: Fraction, cfg: SearchConfig, fn: Functional, direction: str,
                 value: float, arg: tuple[Fraction, ...], far: tuple[Fraction, ...]) -> BoundCertificate:
    """Refine one coarse incumbent, with the far end of its tie, and certify it against the closed form."""
    arg, value, _ = _refine(lam, cfg, fn, direction, arg, value, far)
    return _certificate(fn, lam, direction, value, arg)


def optimize(fn: Union[Functional, str], lam: RationalIn, direction: str,
             cfg: SearchConfig | None = None) -> BoundCertificate:
    """Grid sweep plus refinement for one (functional, direction) pair."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    fn = functional_by_name(fn) if isinstance(fn, str) else fn
    lam = lambda_in_range(lam)
    cfg = cfg or SearchConfig()
    return _certify_row(lam, cfg, fn, direction, *_sweep(lam, cfg, [fn], (direction,))[(fn.name, direction)])


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
