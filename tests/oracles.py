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
  EXPANSIONS                each registry row expanded by hand into a
                            polynomial in b, against the row's definition
                            over a_k, A_k and gamma_k
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
  an_coefficient_by_recursion   a_n by the reciprocal recursion with its
                            signs unfolded, against the search's
                            sign-folded recursion
  extremes_by_fractions     the least lattice point that maximizes and
                            minimizes each functional over
                            enumerate_feasible, in Fraction, against the
                            sweep's integer Horner scores of each tail's
                            polynomial in b1
  vertices_by_fractions     the vertices of the class polytope, each the
                            solution of a choice of dims tight constraints
                            by Gauss-Jordan elimination over Fraction,
                            against the search's closed list
  edges_by_fractions        the edges: the pairs of those vertices whose
                            common tight constraints have rank dims - 1,
                            by the same elimination, against the search's
                            rule
  edge_polynomial_by_fractions  a functional along an edge, interpolated
                            over Fraction from its exact values, against
                            the search's integer polynomials in t

enumerate_feasible keeps the cap b1 <= 1 + lambda, which the search does
not impose (the class's conditions imply it), so agreement also checks
that implication wherever it goes.

All arithmetic is exact rational; nothing here imports the modules whose
answers it is checking beyond the shared series container, the member
gate validate() (for random_member), the series route f_series (for
u_residual), the disk gate's exact routine _no_zero_in_open_disk, and
the search's configuration record.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Sequence

from ucv.model import ClassMember, NonMember, f_series, validate
from ucv.rootcheck import _no_zero_in_open_disk
from ucv.search import SearchConfig
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


# each registry row expanded by hand into a polynomial in b = (b1, b2, b3, b4),
# its Hankel determinant or Zalcman expression multiplied out; H3INV is
# h3f - (a3 - a2^2)^3 with a3 - a2^2 = -b2
EXPANSIONS = {
    "A2": lambda b: b[0],
    "A3": lambda b: b[1] + b[0] * b[0],
    "A4": lambda b: b[2] + 3 * b[0] * b[1] + b[0] * b[0] * b[0],
    "G1": lambda b: b[0] / 2,
    "G2": lambda b: (b[1] + b[0] * b[0] / 2) / 2,
    "G3": lambda b: (b[2] + 2 * b[0] * b[1] + b[0] * b[0] * b[0] / 3) / 2,
    "H2F": lambda b: b[0] * b[2] - b[1] * b[1],
    "H3F": lambda b: b[1] * b[3] - b[2] * b[2],
    "H2INV": lambda b: b[0] * b[2] + b[0] * b[0] * b[1] - b[1] * b[1],
    "H3INV": lambda b: b[1] * b[3] - b[2] * b[2] + b[1] * b[1] * b[1],
    "Z23": lambda b: b[2] - b[0] * b[1],
    "Z24": lambda b: b[0] * b[0] * b[1] - b[0] * b[2] - b[1] * b[1] + b[3],
    "A2C": lambda b: -b[0],
    "A3C": lambda b: b[0] * b[0] - b[1],
    "A4C": lambda b: -b[2] + 2 * b[0] * b[1] - b[0] * b[0] * b[0],
    "A5C": lambda b: -b[3] + b[1] * b[1] + 2 * b[0] * b[2] - 3 * b[0] * b[0] * b[1] + b[0] * b[0] * b[0] * b[0],
}


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


def exact_value(fn, b) -> Fraction:
    """fn at b over Fraction: a registry row by its hand expansion
    (EXPANSIONS), AN(n) as |a_n| by an_coefficient_by_recursion, any other
    functional by its evaluate."""
    if fn.an:
        return abs(an_coefficient_by_recursion(b, fn.an))
    return EXPANSIONS.get(fn.name, fn.evaluate)(b)


def extremes_by_fractions(lam, cfg: SearchConfig, fns) -> dict:
    """{(name, direction): (value, least)}: the max and min of each
    functional over enumerate_feasible, exact (exact_value), with the least
    point that attains it.  The enumeration is lexicographic, so the first
    point that attains is the least."""
    best = {}
    for b in enumerate_feasible(lam, cfg):
        for fn in fns:
            v = exact_value(fn, b)
            for direction, sign in (("max", 1), ("min", -1)):
                old = best.setdefault((fn.name, direction), (v, b))
                if sign * (v - old[0]) > 0:
                    best[fn.name, direction] = (v, b)
    return best


# -- polytope vertices ---------------------------------------------------------


def _solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """The unique x with rows x = rhs by Gauss-Jordan elimination over
    Fraction, or None where the square system is singular."""
    m = [list(map(Fraction, r)) + [Fraction(c)] for r, c in zip(rows, rhs)]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                k = m[r][col] / m[col][col]
                m[r] = [a - k * b for a, b in zip(m[r], m[col])]
    return [m[r][n] / m[r][r] for r in range(n)]


def _constraints(lam: Fraction, dims: int) -> list[tuple[list, Fraction]]:
    # rows a, bounds c of a b <= c over b1..b_dims: -b_j <= 0, the budget, and b1 - b2 + b3 - ... <= 1 (p(-1) >= 0)
    rows = [([-int(i == j) for j in range(dims)], Fraction(0)) for i in range(dims)]
    return rows + [(list(range(dims)), lam), ([(-1) ** j for j in range(dims)], Fraction(1))]


def vertices_by_fractions(lam, dims: int) -> list[tuple[Fraction, ...]]:
    """The vertices of {b >= 0, b2 + 2 b3 + ... + (dims-1) b_dims <=
    lambda, b1 - b2 + b3 - ... <= 1 (p(-1) >= 0)} over b1..b_dims, sorted
    and padded to max(4, dims): every choice of dims of the dims + 2
    constraints, made tight and solved (_solve), kept where the solution is
    unique and meets all of them."""
    constraints = _constraints(Fraction(lam), dims)
    found = set()
    for chosen in itertools.combinations(constraints, dims):
        x = _solve(*zip(*chosen))
        if x is not None and all(sum(a * v for a, v in zip(row, x)) <= c for row, c in constraints):
            found.add(tuple(x) + (Fraction(0),) * (max(4, dims) - dims))
    return sorted(found)


def edges_by_fractions(lam, dims: int) -> set[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """The edges (v, w), v < w, of the polytope of vertices_by_fractions:
    the pairs of vertices whose common tight constraints have rank
    dims - 1.  Both vertices are tight on those rows, so w - v spans their
    null space; the rank is dims - 1 iff some dims - 1 of the rows, with
    w - v as one more row, make a nonsingular system (_solve)."""
    constraints = _constraints(Fraction(lam), dims)
    vertices = vertices_by_fractions(lam, dims)
    edges = set()
    for v, w in itertools.combinations(vertices, 2):
        common = [row for row, c in constraints
                  if sum(a * x for a, x in zip(row, v)) == c == sum(a * x for a, x in zip(row, w))]
        step = [y - x for x, y in zip(v[:dims], w[:dims])]
        if any(_solve(list(rows) + [step], [0] * dims) is not None
               for rows in itertools.combinations(common, dims - 1)):
            edges.add((v, w))
    return edges


def edge_polynomial_by_fractions(fn, v, w) -> list[Fraction]:
    """The coefficients, ascending, of exact_value(fn, v + t (w - v)) as a
    polynomial in t, by Lagrange interpolation over Fraction at t = 0..8,
    more points than any registry row's or AN(n)'s degree needs."""
    ts = list(range(9))
    ys = [exact_value(fn, tuple(x + t * (y - x) for x, y in zip(v, w))) for t in ts]
    coeffs = [Fraction(0)] * len(ts)
    for i, ti in enumerate(ts):
        basis = [Fraction(1)]  # prod over j != i of (t - tj) / (ti - tj)
        for j, tj in enumerate(ts):
            if j != i:
                basis = [a - tj * b for a, b in zip([Fraction(0)] + basis, basis + [Fraction(0)])]
                basis = [c / (ti - tj) for c in basis]
        coeffs = [c + ys[i] * b for c, b in zip(coeffs, basis)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
