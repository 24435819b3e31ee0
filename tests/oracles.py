"""Independent reference implementations used as test oracles.

Everything here recomputes a quantity the package also computes, but by a
different algorithm, so agreement between the two routes is evidence and
not a tautology:

  reciprocal_by_geometric   1/(1+u) as the finite geometric sum 1-u+u^2-...
  revert_by_lagrange        compositional inverse coefficient by Lagrange's
                            formula g_n = (1/n) [z^(n-1)] (z/s(z))^n
  exp_zero                  exp of a series with zero constant term, the
                            inverse that TruncatedSeries.log_unit is checked by
  u_residual                the residual (z/f)^2 f' - 1 by series products,
                            which the membership budget caps as
                            -sum (n-1) b_n z^n
  hankel2_from / hankel3_from   determinants straight from the definition,
                            fed with series-route Taylor coefficients
  inside_unit_count         exact zero count in the open unit disk by the
                            Schur-Cohn reduction over Fractions
  sign_test_by_fractions    the disk gate's exact decisions (positive sum,
                            signs of p(+-1), tail budget) over Fraction,
                            against the gate's integer numerators
  random_member             seeded rejection sampler over the feasible set
  enumerate_feasible        every feasible lattice point, one by one, its
                            disk condition decided by the exact gcd /
                            Schur-Cohn / Sturm routine, not by the p(-1)
                            sign test the sweep and validate() apply
  refine_by_fractions       the refinement polish with every point a tuple
                            of Fraction, against the search's integer
                            vectors over one denominator
  an_coefficient_by_recursion   a_n by the reciprocal recursion with its
                            signs unfolded, against the search's
                            sign-folded recursion
  extremes_by_fractions     the least and the greatest lattice points
                            that maximize and minimize each functional over
                            enumerate_feasible, in Fraction, against the
                            sweep's integer Horner scores of each tail's
                            polynomial in b1

enumerate_feasible and refine_by_fractions keep the cap b1 <= 1 + lambda,
which the search does not impose (the class's conditions imply it), so
agreement also checks that implication wherever they go.

All arithmetic is exact rational, except for the float objective;
nothing here imports the modules whose answers it is checking beyond
the shared series container, the member gate validate() (for
random_member), the series route f_series (for u_residual), the disk
gate's exact routine _no_zero_in_open_disk and the gate itself (for
refine_by_fractions), and the search's configuration record and move
set.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Sequence

from ucv.model import ClassMember, NonMember, f_series, validate
from ucv.rootcheck import _no_zero_in_open_disk, nonvanishing_in_open_disk
from ucv.search import _REFINE_PASSES, _REFINE_WINDOW, SearchConfig, _move_directions
from ucv.series import TruncatedSeries, series_from_polynomial


# -- series oracles ------------------------------------------------------


def reciprocal_by_geometric(s: TruncatedSeries) -> TruncatedSeries:
    """1/s for a unit series via sum_k (1-s)^k; (1-s) has valuation >= 1
    so the sum is finite at any fixed order."""
    if s.coefficient(0) != 1:
        raise ValueError("unit series required")
    n = s.order
    u = TruncatedSeries.one(n) - s
    out = TruncatedSeries.one(n)
    power = TruncatedSeries.one(n)
    for _ in range(n):
        power = power * u
        out = out + power
    return out


def revert_by_lagrange(s: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse of s = z + c2 z^2 + ... by Lagrange inversion.

    g_1 = 1 and g_n = (1/n) [z^(n-1)] (z/s(z))^n for n >= 2; z/s is the
    reciprocal of the unit series s/z.
    """
    if s.coefficient(0) != 0 or s.coefficient(1) != 1:
        raise ValueError("series must start z + ...")
    n = s.order
    r = TruncatedSeries(s.coeffs[1:]).reciprocal()  # z/s, order n-1
    g = [Fraction(0), Fraction(1)]
    power = r
    for k in range(2, n + 1):
        power = power * r
        g.append(power.coefficient(k - 1) / k)
    return TruncatedSeries(tuple(g))


def exp_zero(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term: sum s^k / k!."""
    if s.coeffs[0] != 0:
        raise ValueError("exp_zero requires constant term 0")
    n = s.order
    out = TruncatedSeries.one(n)
    power = TruncatedSeries.one(n)
    for k in range(1, n + 1):
        power = power * s
        out = out + power.scale(Fraction(1, math.factorial(k)))
    return out


def u_residual(member: ClassMember, order: int) -> TruncatedSeries:
    """The residual (z/f)^2 f' - 1 assembled from series arithmetic.

    Identically equal to -sum_{n>=2} (n-1) b_n z^n, which is what the
    membership budget caps.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    u = series_from_polynomial((Fraction(1),) + member.b, order)
    fp = f_series(member, order + 1).derivative()
    return u * u * fp - TruncatedSeries.one(order)


def hankel2_from(c: Sequence[Fraction]) -> Fraction:
    """det [[c2, c3], [c3, c4]] for a coefficient list starting at c1."""
    c1, c2, c3, c4 = c[0], c[1], c[2], c[3]
    assert c1 == 1
    return c2 * c4 - c3 * c3


def hankel3_from(c: Sequence[Fraction]) -> Fraction:
    """det of the 3x3 matrix [[c1,c2,c3],[c2,c3,c4],[c3,c4,c5]]."""
    c1, c2, c3, c4, c5 = c[:5]
    return (
        c1 * (c3 * c5 - c4 * c4)
        - c2 * (c2 * c5 - c3 * c4)
        + c3 * (c2 * c4 - c3 * c3)
    )


# -- Schur-Cohn zero counting ---------------------------------------------


class SchurCohnSingular(Exception):
    """A vanishing Schur parameter; the plain reduction cannot decide."""


def _schur_count(cs: list[Fraction]) -> int:
    # cs ascending with cs[0] != 0 and cs[-1] != 0; returns the number of
    # zeros in |z| < 1.  One Schur step: T(p) = p(0) p - lc(p) p~ where p~
    # reverses the coefficients; T(p)(0) = p(0)^2 - lc(p)^2 =: delta.
    # delta > 0 keeps the inside count, delta < 0 flips it to n - count.
    n = len(cs) - 1
    if n == 0:
        return 0
    a0, an = cs[0], cs[-1]
    delta = a0 * a0 - an * an
    if delta == 0:
        raise SchurCohnSingular
    t = [a0 * cs[k] - an * cs[n - k] for k in range(n)]
    while len(t) > 1 and t[-1] == 0:
        t.pop()
    inner = _schur_count(t)
    return inner if delta > 0 else n - inner


def inside_unit_count(coeffs: Sequence) -> int:
    """Exact number of zeros of p (ascending coefficients) in |z| < 1.

    Requires every zero to stay off the unit circle; zeros at the origin
    are counted directly.  Singular Schur steps (a vanishing parameter
    with no zero on the circle, e.g. reciprocal root pairs) are broken by
    counting in a circle of rational radius rho just under 1, which moves
    no zero across as long as no modulus lies in [rho, 1).
    """
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    origin = 0
    while len(cs) > 1 and cs[0] == 0:
        cs.pop(0)
        origin += 1
    if cs[0] == 0:
        raise ValueError("zero polynomial")
    try:
        return origin + _schur_count(cs)
    except SchurCohnSingular:
        pass
    for k in range(1, 6):
        rho = 1 - Fraction(k, 10**8)
        scaled = [c * rho**j for j, c in enumerate(cs)]
        try:
            return origin + _schur_count(scaled)
        except SchurCohnSingular:
            continue
    raise SchurCohnSingular("all rescales degenerate")


def sign_test_by_fractions(coeffs: Sequence) -> bool | None:
    """The disk gate's exact decisions for 1 + p_1 z + ..., over Fraction:
    True for nonnegative coefficients summing to <= 1, False when p(1) < 0
    or p(-1) < 0, True when sum_{n>=2} (n-1)|p_n| <= 1, and None where the
    gate goes on to its exact routine."""
    cs = [Fraction(c) for c in coeffs]
    if all(c >= 0 for c in cs) and sum(cs[1:]) <= 1:
        return True
    if sum(cs) < 0 or sum(c * (-1) ** k for k, c in enumerate(cs)) < 0:
        return False
    if sum((n - 1) * abs(c) for n, c in enumerate(cs[2:], start=2)) <= 1:
        return True
    return None


# -- random members --------------------------------------------------------


def random_lambda(rng: random.Random) -> Fraction:
    den = rng.randrange(1, 13)
    return Fraction(rng.randrange(1, den + 1), den)


def random_member(rng: random.Random, lam: Fraction | None = None) -> ClassMember:
    """A validated member with rational coordinates, by rejection.

    The tail (b2, b3, b4) is drawn on the weighted simplex by scaling a
    random integer direction, so the budget holds exactly by construction;
    b1 ranges up to 1 + lambda and the disk gate does the rejecting.
    """
    if lam is None:
        lam = random_lambda(rng)
    k1_max = int(16 * (1 + lam))
    while True:
        w = [rng.randrange(0, 9) for _ in range(3)]
        total = w[0] + 2 * w[1] + 3 * w[2]
        if total:
            scale = lam * Fraction(rng.randrange(0, 17), 16) / total
            tail = tuple(x * scale for x in w)
        else:
            tail = (Fraction(0),) * 3
        b1 = Fraction(rng.randrange(0, k1_max + 1), 16)
        try:
            return validate(lam, (b1,) + tail)
        except NonMember:
            continue


# -- coefficient recursion ---------------------------------------------------


def an_coefficient_by_recursion(b: Sequence, n: int):
    # coefficient of z^(n-1) in 1/(1 + sum b_j z^j), i.e. a_n of f;
    # written without branching so it also evaluates elementwise on arrays
    c = [b[0] * 0 + 1]
    for k in range(1, n):
        s = c[0] * 0
        for j in range(1, min(k, len(b)) + 1):
            s = s + b[j - 1] * c[k - j]
        c.append(-s)
    return c[n - 1]


# -- brute-force lattice enumeration ----------------------------------------


def _tails(units_left: int, weights: tuple[int, ...], step: Fraction) -> Iterator[tuple[Fraction, ...]]:
    """(k_2 step, ..., k_dims step) with sum w_j k_j <= units_left, in
    lexicographic order of the k's."""
    for ks in itertools.product(*(range(units_left // w + 1) for w in weights)):
        if sum(w * k for w, k in zip(weights, ks)) <= units_left:
            yield tuple(k * step for k in ks)


def enumerate_feasible(lam, cfg: SearchConfig | None = None) -> Iterator[tuple[Fraction, ...]]:
    """Feasible lattice points in lexicographic order, one at a time.

    b1 runs over [0, 1 + lambda] (the cap the sweep does not impose) in
    grid_step increments; b2..b_dims over the weighted simplex
    sum (n-1) b_n <= lambda.  A point is kept when its coordinates are
    nonnegative, its budget is within lambda and its denominator has no
    zero in the open disk by the exact routine, so the sweep's sign test
    is checked against an independent decision.  Yields tuples padded to
    >= 4 entries.
    """
    cfg = cfg or SearchConfig()
    lam = Fraction(lam)
    step = cfg.grid_step
    width = max(4, cfg.dims)
    weights = tuple(range(1, cfg.dims))  # weights of b2..b_dims
    budget_units = int(lam / step)
    for k1 in range(int((1 + lam) / step) + 1):
        for tail in _tails(budget_units, weights, step):
            b = (k1 * step,) + tail
            b += (Fraction(0),) * (width - len(b))
            if any(x < 0 for x in b):
                continue
            if sum((n - 1) * x for n, x in enumerate(b, start=1)) > lam:
                continue
            if _no_zero_in_open_disk((Fraction(1),) + b):
                yield b


def extremes_by_fractions(lam, cfg: SearchConfig, fns) -> dict:
    """{(name, direction): (value, least, greatest)}: the max and min of
    each functional over enumerate_feasible, exact, with the least and the
    greatest point that attains it.  A registry row is its evaluate over
    Fraction, AN(n) is |a_n| by an_coefficient_by_recursion.  The
    enumeration is lexicographic, so the first point that attains is the
    least and the last the greatest."""
    best = {}
    for b in enumerate_feasible(lam, cfg):
        for fn in fns:
            v = abs(an_coefficient_by_recursion(b, fn.an)) if fn.an else fn.evaluate(b)
            for direction, sign in (("max", 1), ("min", -1)):
                old = best.setdefault((fn.name, direction), (v, b, b))
                if sign * (v - old[0]) > 0:
                    best[fn.name, direction] = (v, b, b)
                elif v == old[0]:
                    best[fn.name, direction] = (v, old[1], b)
    return best


# -- refinement over Fraction ---------------------------------------------


def refine_by_fractions(lam, cfg: SearchConfig, fn, direction: str, arg, value: float, far=None):
    """The refinement with Fraction points; returns (argmax, value, round
    history) as the search's _refine does.

    The polish runs from arg and, when far is another point and the
    midpoint of the two does not tie them, from far with strictly better
    moves only; far's result is taken only when its value is strictly
    better.
    """
    if not cfg.refine_rounds:
        return tuple(arg), value, [value]
    got = _polish_by_fractions(lam, cfg, fn, direction, arg, value, True)
    mid = tuple((x + y) / 2 for x, y in zip(arg, far or arg))
    if far is not None and fn.evaluate(mid) != fn.evaluate(tuple(arg)):
        start = fn.evaluate(tuple(float(x) for x in far)) + 0.0
        other = _polish_by_fractions(lam, cfg, fn, direction, far, start, False)
        if (1 if direction == "max" else -1) * (other[1] - got[1]) > 0:
            got = other
    return got


def _polish_by_fractions(lam, cfg: SearchConfig, fn, direction: str, arg, value: float, equal: bool):
    """Each round divides the step by 10; every pass tries each move at
    window scales 1..12 from the current incumbent and accepts a candidate
    that stays in the box, scores strictly better (or, where equal, ties
    and is the lexicographically smaller point), keeps the budget and
    passes the disk gate.  A round ends at the first pass with no accept.
    """
    lam = Fraction(lam)
    sign = 1 if direction == "max" else -1
    cap = 1 + lam
    width = max(4, cfg.dims)
    moves = [m + (0,) * (width - cfg.dims) for m in _move_directions(cfg.dims)]
    step = cfg.grid_step
    best, best_value = tuple(arg), value
    history = [value]
    for _ in range(cfg.refine_rounds):
        step = step / 10
        for _ in range(_REFINE_PASSES):
            improved = False
            for move in moves:
                for k in range(1, _REFINE_WINDOW + 1):
                    cand = tuple(x + m * k * step for x, m in zip(best, move))
                    if cand[0] > cap or any(x < 0 for x in cand):
                        continue
                    v = fn.evaluate(tuple(float(x) for x in cand)) + 0.0
                    if not (sign * (v - best_value) > 0 or (equal and v == best_value and cand < best)):
                        continue
                    if sum(n * x for n, x in enumerate(cand)) > lam:
                        continue
                    if nonvanishing_in_open_disk((Fraction(1),) + cand):
                        best, best_value, improved = cand, v, True
            if not improved:
                break
        history.append(best_value)
    return best, best_value, history
