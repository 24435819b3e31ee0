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
refinement, from the sweep's point or from a vertex of the class
polytope that beats it exactly; no gradients, no randomness.  A sweep scores the
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
    _report_terms,
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


def _monomials(fn: Functional, width: int) -> tuple:
    """fn's (L, deg, terms) of _integer_monomials over N1..N_width: a registry row's are the report's, their exponents
    padded past width 4, so a sweep expands only AN(n) and functionals outside the registry."""
    if fn in FUNCTIONALS:
        lcm, deg, terms = _report_terms()[FUNCTIONALS.index(fn)][1:]
        return lcm, deg, tuple((c, e + (0,) * (width - 4)) for c, e in terms)
    return _integer_monomials(fn, width)


def _expansion(monomials: Sequence[tuple], step: Fraction, dims: int) -> tuple:
    """(steps, monomials, table) of the integer polynomial P = L den^deg f(step k) of each f, step = num/den: f's
    (L, deg, terms) of _monomials at N = num k, d = den, b_j past dims being 0.  table[f][i] lists the
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
    """Raise hits[i], as _ends does, to the best cells of the tails ranks, with columns cols and last k1 m falling
    along them.  Each tail is cut into runs of _RUN k1 from a (fewer at m, and no more than a table holds), bounded on
    [a, b], b = a + _RUN or m, so that neighbouring runs share their bound's ends: P and N at the ends in tables of at
    most _SWEEP_BLOCK ends x tails (or one run's two ends).  A run is scored, in tables of at most _SWEEP_BLOCK cells
    (an infeasible cell scores floor), when its bound beats the best or ties it at k1 <= the best's."""
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
            live = a <= ms  # the runs that hold a point
            for i, (_, s) in enumerate(directions):
                score, least, _ = hits[i]
                top = _reach(lower, upper, s, absolute)
                ra, t = np.nonzero(live & ((top > score) | (top == score) & (a <= -least)))
                for g in range(0, len(t), per):  # tables of the kept runs' cells
                    k1, tg = a[ra[g:g + per], 0] + np.arange(run)[:, None], t[g:g + per]
                    p = _horner(part[:, tg], np.minimum(k1, ms[tg]))
                    v = np.where(k1 > ms[tg], floor, s * (np.abs(p) if absolute else p))
                    best = v.max()
                    if best >= hits[i][0]:
                        keys = (k1 * big + rs[tg])[v == best]  # the (k1, row) of each best cell as k1 big + row
                        _raise(hits, i, int(best), int(keys.min()), big)


def _raise(hits: list, i: int, score: int, key: int, big: int) -> None:
    # raise hits[i], the best score and its least point as (score, -k1, -row), to score at (k1, row) = divmod(key, big)
    hits[i] = max(hits[i], (score, *(-x for x in divmod(key, big))))


def _ends(cols: np.ndarray, m: np.ndarray, ranks: np.ndarray, hits: list, directions: list, absolute: bool,
          big: int) -> np.ndarray:
    """Raise hits[f][i], the best score of functional f in directions[i] and its least point, to the
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
                 rank: np.ndarray, last: np.ndarray, signs: dict) -> dict:
    """{(f, direction): (score, (k1, row of tails))}, the exact extremum of the score of functional f, s P or s |P|
    where absolute, and its least point, over the tails rank[i] (slack order), each feasible for k1 in [0, m],
    m = last[i]; caps holds the largest k1 and k_j.  P = C_0 + C_1 k1 + ... + C_r k1^r is the integer polynomial of
    _expansion of f's monomials[f].  Each chunk of at most _CHUNK cells and _BATCH tails reads every C_i off its tail
    monomials (_columns): int64 while _bound, at caps, is below 2**63, else Python ints.  _ends keeps the tails
    that can still win, and each functional's kept tails go to _run_tables once _BATCH of them gather."""
    steps, tail_monomials, table = _expansion(monomials, step, tails.shape[1] + 1)
    bound = _bound(table, tail_monomials, [max(c, 1) for c in caps])
    dtype = np.int64 if bound < 2**63 else object
    floor, big, directions = -bound - 1, caps[0] + len(tails), list(signs.items())  # below any score; past k1, row
    hits = [[(floor, 0, 0)] * len(signs) for _ in table]  # per functional and direction, as _raise keeps them
    kept = [[] for _ in table]  # per functional: the (cols, m, ranks) of kept tails not yet scored
    size = max(min(_CHUNK // (len(table) * max(map(len, table))), _BATCH), 1)  # tails per chunk
    for lo in range(0, len(last), size):
        ranks, m = rank[lo:lo + size], last[lo:lo + size].astype(dtype)  # k1 in the columns' dtype
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
    return {(f, d): (h[i][0], (-h[i][1], -h[i][2])) for f, h in enumerate(hits) for i, (d, _) in enumerate(directions)}


def _vertices(lam: Fraction, dims: int) -> tuple[int, list[tuple[int, ...]]]:
    """(d, vertices): the vertices N / d, N sorted and padded to the search width, of the class polytope {b >= 0,
    b2 + 2 b3 + ... <= lam, p(-1) >= 0} over b1..b_dims.  A vertex makes dims of these tight, so at least dims - 2
    b_j are 0: the origin, b1 = 1 (p(-1) = 0), b_j = lam / (j - 1) alone (the budget), or that b_j with b1 =
    1 + (-1)^j b_j (both tight; two tail coordinates cannot be, as p(-1) = 0 needs an odd b_j >= 1)."""
    d = lam.denominator * math.lcm(*range(1, dims))
    zero = (0,) * _width(dims)
    points = {zero, (d,) + zero[1:]}
    for j in range(1, dims):  # b_(j+1), of weight j
        t = lam.numerator * d // (lam.denominator * j)
        tail = zero[1:j] + (t,) + zero[j + 1:]
        points |= {zero[:1] + tail, (d + (-1) ** (j + 1) * t,) + tail}
    return d, sorted(points)


def _sweep(lam: Fraction, cfg: SearchConfig, fns: Sequence[Functional],
           directions: Sequence[str] = ("max", "min")) -> dict:
    """Coarse lattice sweep; returns {(name, direction): (point, vertex)} for the directions asked for, as (d, N).

    The tails are sorted once by p(-1) slack, most first, by a stable sort, so the tails feasible at b1 = k1 step are
    a prefix of them, and each tail's last feasible k1 falls along them.  Every functional is scored exactly per tail
    (_exact_sweep), the registry in one pass and AN(n), whose score is |P|, in another.  point is the least point of
    the exact extremum, num k / den at step num / den.  vertex is the best vertex (_vertices, the least of a tie)
    where it strictly beats point, else None: at each vertex, over one denominator dv, the functional's integer
    monomials give L dv^deg f, which is compared with the sweep's score of L den^deg f at point."""
    step = cfg.grid_step
    top, budget_units = int(1 / step), int(lam / step)
    tails = _tail_units(budget_units, tuple(range(1, cfg.dims)))
    pad = (0,) * (_width(cfg.dims) - cfg.dims)  # b_(dims+1)..b4
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
    dv, vertices = _vertices(lam, cfg.dims)
    at = [(dv, *v) for v in vertices]  # the exponent order of the monomials: d, then N1..N_width
    signs, found = {d: 1 if d == "max" else -1 for d in directions}, {}
    for absolute in (False, True):
        group = [fn for fn in fns if bool(fn.an) == absolute]
        monomials = [_monomials(fn, _width(cfg.dims)) for fn in group]
        won = _exact_sweep(monomials, absolute, step, caps, tails, live, last, signs) if group else {}
        for f, (fn, (_, deg, terms)) in enumerate(zip(group, monomials)):
            ps = [sum(c * math.prod(map(pow, n, e)) for c, e in terms) for n in at]  # L dv^deg f at each vertex
            ps = [abs(p) for p in ps] if absolute else ps
            for direction, s in signs.items():
                score, (k1, tail) = won[f, direction]
                point = step.denominator, tuple(step.numerator * k for k in (k1, *tails[tail].tolist(), *pad))
                i = max(range(len(at)), key=lambda i: s * ps[i])  # the first, least, vertex of a tie
                better = s * ps[i] * step.denominator**deg > score * dv**deg
                found[fn.name, direction] = point, (dv, vertices[i]) if better else None
    return found


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
def _delta_table(dims: int) -> tuple[np.ndarray, np.ndarray]:
    """The refinement's moves in trial order, in steps, as one gate matrix.

    The moves d are m k for each move m of _move_directions at window
    scales k = 1..12, padded to the search width w.  Column i of the gate
    matrix G, C-contiguous of shape (w + 2, n), is (-d, budget(d),
    -alt(d)): budget(d) = sum i d_i is the change to the budget units and
    alt(d) = -d_1 + d_2 - d_3 + ... the change to D p(-1).  So x + d, d in
    the point's units, is feasible iff G[:, i] <= h, the slack of _state.
    lowers_i says the leading nonzero entry of d is negative, which is
    x + d < x lexicographically.  Built once per dims.
    """
    width = _width(dims)
    rows = [tuple(m * k for m in move) + (0,) * (width - dims)
            for move in _move_directions(dims) for k in range(1, _REFINE_WINDOW + 1)]
    d = np.array(rows, dtype=np.int64)
    budget = d @ np.arange(width, dtype=np.int64)
    alt = d @ np.array([(-1) ** (i + 1) for i in range(width)], dtype=np.int64)
    gates = np.ascontiguousarray(np.vstack((-d.T, budget, -alt)))  # vstack of d.T is in Fortran order
    lowers = np.array([next(c for c in row if c) < 0 for row in rows])
    for a in (gates, lowers):
        a.setflags(write=False)
    return gates, lowers


def _value(fn: Functional, point: tuple[int, tuple[int, ...]]) -> float:
    # fn at N / d, point = (d, N), cleared of -0.0: int true division is correctly rounded, as is the polish's float64
    return float(fn.evaluate(tuple(c / point[0] for c in point[1]))) + 0.0


def _state(lam: Fraction, cfg: SearchConfig, point: tuple[int, tuple[int, ...]], r: int) -> tuple | None:
    """The polish's state at point = (d, N) for a run of its rounds from r on, or None when no round is left: (D, h,
    gates, ties, end, scan).  A round whose step num / (den 10^r) exceeds 2 is left out: each move changes some
    coordinate by more than 2, and the class keeps 0 <= b1 <= 1 + lambda <= 2 and 0 <= b_j <= lambda.

    The point is an int vector x over one D = lcm(den 10^q, d), q the run's last round, where a move of round r is
    num D / (den 10^r) units.  h is the slack column (x_1..x_w, floor(lambda D) - (x_2 + 2 x_3 + ...), D p(-1)),
    gates the run's gate matrices of _delta_table in units, side by side in round order, and ties their flags; end
    is the first round after the run.  The run is the longest whose D keeps 2 D + max |d| < 2**53, grown from r, so
    that float64 c / D is _value's correctly rounded c / D on int64; a round past that is a run of its own on Python
    ints.  scan is the first scan of every column (_scan)."""
    (d, N), (table, lowers) = point, _delta_table(cfg.dims)
    num, den = cfg.grid_step.numerator, cfg.grid_step.denominator
    while r <= cfg.refine_rounds and num > 2 * den * 10**r:
        r += 1
    if r > cfg.refine_rounds:
        return None
    span = int(np.abs(table[:-2]).max()) * num  # max |d| is span D / (den 10^r), the coarsest round's

    def fits(D):
        return 2 * D + span * D // (den * 10**r) < 2**53

    D, end = math.lcm(den * 10**r, d), r + 1
    while end <= cfg.refine_rounds and fits(math.lcm(den * 10**end, d)):
        D, end = math.lcm(den * 10**end, d), end + 1
    dtype = np.int64 if fits(D) else object
    gates = np.hstack([table.astype(dtype) * (num * D // (den * 10**q)) for q in range(r, end)])
    x = [c * (D // d) for c in N]
    slack = lam.numerator * D // lam.denominator - sum(i * c for i, c in enumerate(x))
    h = np.array(x + [slack, D + sum(c if i % 2 else -c for i, c in enumerate(x))], dtype=dtype)[:, None]
    return D, h, gates, np.tile(lowers, end - r), end, _scan(D, h, gates)


def _scan(D: int, h: np.ndarray, gates: np.ndarray) -> tuple:
    # the candidates h[:w] - g[:w] over D of the gate columns g, as w float rows, and the gate mask g <= h
    return tuple(np.asarray((h[:-2] - gates[:-2]) / D, dtype=float)), (gates <= h).all(axis=0)


def _refine(lam: Fraction, cfg: SearchConfig, fn: Functional, direction: str,
            start: tuple[int, tuple[int, ...]], blocks: dict) -> tuple[tuple[Fraction, ...], float]:
    """Shrinking-step local polish from start = (d, N), the point N / d: the sweep's point, or the vertex that beats
    it.  Returns the polished point as Fractions and its value.

    Each round divides the step num / den by 10 and makes up to six greedy passes over the moves of _delta_table; a
    round ends at the first pass with no accept.  A pass scores the candidates h[:w] - g[:w] of the gate columns g
    of its remaining moves as w contiguous rows, and keeps what improves (a better value, or an equal one at a
    smaller point: the ties flag) and passes the gate g <= h.  These imply b1 <= 1 + lambda (x_1 <= D + x_2 + x_4 +
    ... <= D + floor(lambda D)).  With b >= 0 and budget <= lambda <= 1 the sign test is the disk condition
    (rootcheck.nonvanishing_in_open_disk), so the gate only re-checks the returned point, with rounds, and a
    rejection raises.  The first hit is accepted, h - g_j, and the pass goes on from the move after it: first
    improvement, one move at a time.

    The rounds of a run share one state (_state), a round's moves being the same table at a smaller scale.  A round
    whose first pass accepts nothing leaves the state as it was, so a round's first pass scans the columns of every
    round of the run left, and its first hit is the next accept, in the round it falls in.  The start, in lowest
    terms, keys its state and that state's first scan in blocks, shared by every row that starts there.
    """
    g = math.gcd(start[0], *start[1])
    start = start[0] // g, tuple(c // g for c in start[1])
    if start not in blocks:
        blocks[start] = _state(lam, cfg, start, 1)
    state, value, moves = blocks[start], _value(fn, start), len(_delta_table(cfg.dims)[1])
    D, x = start  # returned as it is when no round is left to run
    while state:
        D, h, gates, ties, end, scan = state
        lo, hi, passes = 0, len(ties), 0  # a pass scans columns lo..hi-1: a round's, or all left from lo on
        while lo < len(ties):
            pos = lo
            while pos < hi:
                cand, gate = scan or _scan(D, h, gates[:, pos:hi])
                v, scan = fn.evaluate(cand), None
                better = v > value if direction == "max" else v < value
                ok = (better | ((v == value) & ties[pos:hi])) & gate
                j = int(ok.argmax())
                if not ok[j]:
                    break
                pos += j
                h, value = h - gates[:, pos, None], float(v[j]) + 0.0  # clears -0.0
                lo, hi, pos = pos - pos % moves, pos - pos % moves + moves, pos + 1
            passes += 1
            if pos == lo or passes == _REFINE_PASSES:  # the round ends
                lo, hi, passes = hi, len(ties), 0
        x = h[:-2, 0].tolist()
        state = _state(lam, cfg, (D, x), end)
    point = tuple(Fraction(c, D) for c in x)
    if cfg.refine_rounds and not nonvanishing_in_open_disk((1, *point), (D, (D, *x))):
        raise RuntimeError(f"refined point {point} fails the disk gate")
    return point, value


# -- public search API -----------------------------------------------------


def _certify_row(lam: Fraction, cfg: SearchConfig, fn: Functional, direction: str, blocks: dict,
                 point: tuple[int, tuple[int, ...]], vertex: tuple[int, tuple[int, ...]] | None) -> BoundCertificate:
    """Refine one coarse incumbent, or the vertex that beats it, and certify it against the closed form; blocks
    holds the polish states of lam's starts (_refine)."""
    arg, value = _refine(lam, cfg, fn, direction, vertex if vertex and cfg.refine_rounds else point, blocks)
    return _certificate(fn, lam, direction, value, arg)


def optimize(fn: Union[Functional, str], lam: RationalIn, direction: str,
             cfg: SearchConfig | None = None) -> BoundCertificate:
    """Grid sweep plus refinement for one (functional, direction) pair."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    fn = functional_by_name(fn) if isinstance(fn, str) else fn
    lam = lambda_in_range(lam)
    cfg = cfg or SearchConfig()
    return _certify_row(lam, cfg, fn, direction, {}, *_sweep(lam, cfg, [fn], (direction,))[(fn.name, direction)])


def verify_bounds(lambda_grid: Sequence[RationalIn], cfg: SearchConfig | None = None) -> list[BoundCertificate]:
    """Certify every named functional in both directions over a lambda grid.

    Each lambda gets one shared coarse sweep, with its vertex pass, that
    feeds its 32 rows (the sweep itself is the pointwise never-exceed
    check: each incumbent dominates every feasible grid point), which are
    then refined and certified.  The rows of a lambda that start at one
    point share that point's polish state and its first scan (_refine),
    which live until the lambda's last row.  Every lambda is range-checked before
    any sweep starts.  Row order: grid order, then functional order, then
    max before min.
    """
    cfg = cfg or SearchConfig()
    certs = []
    for lam in [lambda_in_range(raw) for raw in lambda_grid]:
        incumbents, blocks = _sweep(lam, cfg, FUNCTIONALS, ("max", "min")), {}
        certs += [_certify_row(lam, cfg, fn, direction, blocks, *incumbents[(fn.name, direction)])
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
