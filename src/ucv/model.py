"""Membership model and coefficient functionals.

A member is determined by the reciprocal expansion
    z / f(z) = 1 + b1 z + b2 z^2 + ... ,   all b_n >= 0,
subject to the weighted budget
    sum_{n>=2} (n-1) b_n <= lambda,        0 < lambda <= 1,
and to the requirement that the denominator polynomial has no zero in
the open unit disk (zeros on the circle are allowed; every sharp
extremal sits on the boundary).  The budget is exactly the condition
that the residual (z/f)^2 f' - 1 stays below lambda in modulus, since
that residual is -sum (n-1) b_n z^n.

Only finitely many b_n are stored (default window b1..b4); that window
carries every functional treated here, and all known extremal
denominators have degree <= 4.

Functionals (the FUNCTIONALS registry), all exact in the rationals:

  a2..a5        Taylor coefficients of f
  A2..A4        Taylor coefficients of the compositional inverse
  gamma1..3     logarithmic coefficients: log(f^-1(w)/w) = 2 sum gamma_n w^n
  h2f, h3f      second/third Hankel determinants of f
  h2inv, h3inv  the same for the inverse
  z23, z24      Zalcman expressions a2 a3 - a4 and a2 a4 - a5

The exact layers work over the ints, on the member's integer form
(d = lcm of the b denominators, N = d b), one Fraction per returned value:
the gates compare ints, the report builds each monomial of (d, N) once, from
an earlier one, and the series route checks it by the reciprocal recurrence
(f) and Lagrange inversion (A_n = [z^(n-1)] u^n / n, gamma_n = [z^n] u^n / 2n).
A CoefficientReport holds exact values only; ucv.cli renders them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Sequence, Union

from ucv.rootcheck import RationalIn, as_rational, nonvanishing_in_open_disk, over_common_denominator
from ucv.series import TruncatedSeries

VALIDATION_REASONS = (
    "lambda out of range",
    "negative coefficient",
    "lemma-sum exceeded",
    "zero in disk",
)
_ZERO, _ONE = Fraction(0), Fraction(1)


class NonMember(ValueError):
    """Raised when a (lambda, b) pair fails a membership gate."""

    def __init__(self, reason: str, detail: str = ""):
        assert reason in VALIDATION_REASONS
        self.reason = reason
        super().__init__(reason if not detail else f"{reason}: {detail}")


def lambda_in_range(raw: RationalIn) -> Fraction:
    """The one lambda check of the package: raw as an exact rational, or
    NonMember("lambda out of range") outside (0, 1], where U+(lambda) is
    not defined."""
    lam = as_rational(raw)
    if not 0 < lam.numerator <= lam.denominator:  # the denominator is positive
        raise NonMember("lambda out of range", f"lambda={lam}")
    return lam


@dataclass(frozen=True)
class ClassMember:
    """A validated member: rational lambda and b = (b1, b2, ...), length >= 4,
    zero padded.  Construct through validate() or extremal_catalog()."""

    lam: Fraction
    b: tuple[Fraction, ...]
    integer_form: tuple[int, tuple[int, ...]] = field(init=False, compare=False, repr=False)  # (d, N): b = N / d

    def __post_init__(self):  # d is the lcm of the b denominators
        object.__setattr__(self, "integer_form", over_common_denominator(self.b))

    def lemma_sum(self) -> Fraction:
        return sum(((n - 1) * bn for n, bn in enumerate(self.b, start=1)), Fraction(0))


def validate(lam: RationalIn, b: Sequence[RationalIn]) -> ClassMember:
    """Run the three membership gates and return the member.

    Raises NonMember with reason one of: "lambda out of range",
    "negative coefficient", "lemma-sum exceeded", "zero in disk".
    """
    lam_q = lambda_in_range(lam)
    bs = [as_rational(x) for x in b]
    if not bs:
        raise ValueError("b must contain at least one coefficient")
    bs += [_ZERO] * (4 - len(bs))
    member = ClassMember(lam_q, tuple(bs))
    d, ns = member.integer_form
    for n, x in enumerate(ns, start=1):
        if x < 0:
            raise NonMember("negative coefficient", f"b{n}={bs[n - 1]}")
    weighted = sum((n - 1) * x for n, x in enumerate(ns, start=1))  # d * lemma sum
    if weighted * lam_q.denominator > lam_q.numerator * d:
        raise NonMember("lemma-sum exceeded", f"sum={member.lemma_sum()} > lambda={lam_q}")
    if not nonvanishing_in_open_disk((_ONE,) + member.b, (d, (d, *ns))):
        raise NonMember("zero in disk")
    # consequence of the gates, never an independent constraint: 0 <= N1 / d <= 1 + lambda
    assert 0 <= ns[0] * lam_q.denominator <= (lam_q.denominator + lam_q.numerator) * d, "b1 outside [0, 1+lambda]"
    return member


# -- series routes -------------------------------------------------------


def f_series(member: ClassMember, order: int) -> TruncatedSeries:
    """Taylor expansion of f = z / (1 + sum b_n z^n) through z^order, by
    Q_k = -sum_j N_j d^(j-1) Q_(k-j) over the ints and a_(k+1) = Q_k / d^k."""
    if order < 1:
        raise ValueError("order must be >= 1")
    d, ns = member.integer_form
    dk = [d**k for k in range(order)]
    weights = [x * p for x, p in zip(ns, dk)]  # N_j d^(j-1)
    qs = [1]  # Q_0 = 1, so a_1 = 1
    for _ in range(1, order):
        qs.append(-sum(w * q for w, q in zip(weights, reversed(qs))))
    return TruncatedSeries((_ZERO, _ONE) + tuple(map(Fraction, qs[1:], dk[1:])))


def _denominator_powers(member: ClassMember, count: int, order: int) -> list[list[int]]:
    """[P^1, ..., P^count] through at least z^order, P = d u over the ints from
    the member's integer form, so u^n = P^n / d^n with d^n the row's constant
    term.  Each row is the one before times P, one loop over P's nonzero terms.
    The rows are kept on the member and regrown only for a larger count or
    order: a truncation is exact, so no value depends on the order of calls."""
    d, ns = member.integer_form
    powers = getattr(member, "_powers", [[]])
    if len(powers) < count or len(powers[0]) <= order:
        count, top = max(count, len(powers)), max(order, len(powers[0]) - 1)
        powers = [([d, *ns] + [0] * top)[: top + 1]]
        terms = [(j, c) for j, c in enumerate(powers[0]) if c]
        for _ in range(count - 1):
            power, row = powers[-1], [0] * (top + 1)
            for j, c in terms:
                for k in range(j, top + 1):
                    row[k] += c * power[k - j]
            powers.append(row)
        object.__setattr__(member, "_powers", powers)
    return powers[:count]


def inverse_series(member: ClassMember, order: int) -> TruncatedSeries:
    """Expansion of the compositional inverse through w^order.

    Lagrange inversion: f = z/u gives A_n = [z^(n-1)] u^n / n, read off
    the integer powers of d u that log_inverse_halved shares."""
    if order < 1:
        raise ValueError("order must be >= 1")
    powers = _denominator_powers(member, order, order - 1)
    return TruncatedSeries((_ZERO,) + tuple(Fraction(pn[n - 1], n * pn[0]) for n, pn in enumerate(powers, 1)))


def log_inverse_halved(member: ClassMember, order: int) -> tuple[Fraction, ...]:
    """Coefficients gamma_1..gamma_order with
    log(f^-1(w) / w) = 2 sum_{n>=1} gamma_n w^n.

    With g = f^-1, g/w = u(g), and Lagrange-Buermann gives
    [w^n] log u(g) = (1/n)[z^(n-1)] u' u^(n-1) = (1/n)[z^n] u^n, so
    gamma_n = [z^n] u^n / (2n), read off the integer powers of d u that
    inverse_series shares."""
    if order < 0:
        raise ValueError("order must be >= 0")
    powers = _denominator_powers(member, order, order)
    return tuple(Fraction(pn[n], 2 * n * pn[0]) for n, pn in enumerate(powers, 1))


# -- functional registry -------------------------------------------------

BoundValue = Union[Fraction, float, None]


@dataclass(frozen=True)
class Functional:
    """One coefficient functional of f as a polynomial in (b1, b2, ...).

    `evaluate` is ring generic: run once over _Polynomial it yields the
    integer monomials of the exact report and of the sweep's scores, on
    numpy arrays it is the refinement's objective, and on floats the
    printed value.  It avoids `**`, so equal rationals give bit-equal
    floats on the scalar and the vectorised route.  `name` is
    the search and CSV name, `field` the CoefficientReport field (None
    for AN(n)), and `bounds(lam)` the class's closed-form (max, min),
    None in a direction with no known closed form.
    """

    name: str
    field: str | None
    evaluate: Callable[[Sequence], object]
    bounds: Callable[[Fraction], tuple[BoundValue, BoundValue]]
    an: int | None = None  # n of AN(n), |e_(n-1)|: the sweep scores its polynomial e_(n-1) in modulus


FUNCTIONALS = (
    Functional("A2", "A2", lambda b: b[0],
               lambda lam: (1 + lam, _ZERO)),
    Functional("A3", "A3", lambda b: b[1] + b[0] * b[0],
               lambda lam: (1 + 3 * lam + lam**2, _ZERO)),
    Functional("A4", "A4", lambda b: b[2] + 3 * b[0] * b[1] + b[0] * b[0] * b[0],
               lambda lam: ((1 + lam) * (1 + 5 * lam + lam**2), _ZERO)),
    Functional("G1", "gamma1", lambda b: b[0] / 2,
               lambda lam: ((1 + lam) / 2, _ZERO)),
    Functional("G2", "gamma2", lambda b: (b[1] + b[0] * b[0] / 2) / 2,
               lambda lam: ((1 + 4 * lam + lam**2) / 4, _ZERO)),
    Functional("G3", "gamma3", lambda b: (b[2] + 2 * b[0] * b[1] + b[0] * b[0] * b[0] / 3) / 2,
               lambda lam: ((1 + lam) * (1 + 8 * lam + lam**2) / 6, _ZERO)),
    # Hankel determinants h2f = a2 a4 - a3^2 and
    # h3f = a3(a2 a4 - a3^2) - a4(a4 - a2 a3) + a5(a3 - a2^2) of f, and the
    # same in A2..A5 for f^-1; h3inv = h3f - (a3 - a2^2)^3
    Functional("H2F", "h2f", lambda b: b[0] * b[2] - b[1] * b[1],
               lambda lam: ((1 - lam / 2) * (lam / 2), -(lam**2))),
    Functional("H3F", "h3f", lambda b: b[1] * b[3] - b[2] * b[2],
               lambda lam: (lam**2 / 12, -(lam**2) / 4)),
    Functional("H2INV", "h2inv", lambda b: b[0] * b[2] + b[0] * b[0] * b[1] - b[1] * b[1],
               lambda lam: (lam * (1 + lam + lam**2), -(lam**2))),
    Functional("H3INV", "h3inv", lambda b: b[1] * b[3] - b[2] * b[2] + b[1] * b[1] * b[1],
               lambda lam: (lam**3, -(lam**2) / 4)),
    # Zalcman expressions a2 a3 - a4 and a2 a4 - a5; only
    # |a2 a4 - a5| <= lam + lam^2 + lam^3 is known, attained on the
    # positive side, so z24 has no separate lower closed form
    Functional("Z23", "z23", lambda b: b[2] - b[0] * b[1],
               lambda lam: (lam / 2, -(1 + lam) * lam)),
    Functional("Z24", "z24", lambda b: b[0] * b[0] * b[1] - b[0] * b[2] - b[1] * b[1] + b[3],
               lambda lam: (lam + lam**2 + lam**3, None)),
    Functional("A2C", "a2", lambda b: -b[0],
               lambda lam: (_ZERO, -(1 + lam))),
    Functional("A3C", "a3", lambda b: b[0] * b[0] - b[1],
               lambda lam: (1 + lam + lam**2, -lam)),
    # |a4| <= 1 + lam + lam^2 + lam^3 is attained only on the minus side;
    # the sharp maximum (4/3)sqrt(2/3) is known at lam = 1 only
    Functional("A4C", "a4", lambda b: -b[2] + 2 * b[0] * b[1] - b[0] * b[0] * b[0],
               lambda lam: (4 * math.sqrt(6) / 9 if lam == 1 else None,
                            -(1 + lam + lam**2 + lam**3))),
    Functional("A5C", "a5", lambda b: -b[3] + b[1] * b[1] + 2 * b[0] * b[2] - 3 * b[0] * b[0] * b[1]
               + b[0] * b[0] * b[0] * b[0],
               lambda lam: (Fraction(5), Fraction(-9, 4)) if lam == 1 else (None, None)),
)
FUNCTIONAL_NAMES = tuple(fn.name for fn in FUNCTIONALS)
_BY_NAME = {fn.name: fn for fn in FUNCTIONALS}

AN_MIN, AN_MAX = 2, 8


def _an_coefficient(b: Sequence, n: int):
    """e_(n-1) = (-1)^(n-1) a_n, a_n the coefficient of z^(n-1) in
    1/(1 + sum b_j z^j): e_0 = 1, e_k = b1 e_(k-1) - b2 e_(k-2) + ...
    Ring generic, with no branch on values: it runs on floats and arrays
    (rounding is sign-symmetric, so |e_(n-1)| has the bits of |a_n| by the
    unfolded recursion, up to a zero's sign), on Fractions, and on
    polynomials over N1..N_width (_integer_monomials, for the sweep).  The
    j = k term b_k e_0 is read as b_k: x * 1 == x exactly, so no bit
    changes."""
    e = [1]
    for k in range(1, n):
        s = b[0] * e[k - 1] if k > 1 else b[0]
        for j in range(2, min(k, len(b)) + 1):
            t = b[j - 1] * e[k - j] if j < k else b[j - 1]
            s = s + t if j % 2 else s - t
        e.append(s)
    return e[n - 1]


def an_functional(n: int) -> Functional:
    """|a_n| of f, bounded above by 1 + lambda + ... + lambda^(n-1);
    defined for 2 <= n <= 8.  Its `an` is n: the sweep scores e_(n-1)."""
    if not AN_MIN <= n <= AN_MAX:
        raise ValueError(f"n must be in [{AN_MIN}, {AN_MAX}], got {n}")
    return Functional(f"AN({n})", None, lambda b: abs(_an_coefficient(b, n)),  # |a_n| = |e_(n-1)|
                      lambda lam: (sum((lam**k for k in range(n)), _ZERO), None), n)


def functional_by_name(name: str) -> Functional:
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name[3:-1].isdecimal() and name == f"AN({int(name[3:-1])})":  # ASCII digits, no leading zero
        return an_functional(int(name[3:-1]))
    raise KeyError(name)


# -- extremal catalog ----------------------------------------------------

_CATALOG: dict[str, Callable[[Fraction], tuple[Fraction, ...]]] = {
    "FLambda": lambda lam: (1 + lam, lam, _ZERO, _ZERO),
    # also attains the h3inv maximum lambda^3, which is often displayed
    # with denominator 1 + lambda z^3; that polynomial breaks the
    # weighted budget (2 lambda > lambda) and yields h3inv = -lambda^2
    "Bz2": lambda lam: (_ZERO, lam, _ZERO, _ZERO),
    "Bz4over3": lambda lam: (_ZERO, _ZERO, _ZERO, lam / 3),
    "H2UpperMix": lambda lam: (1 - lam / 2, _ZERO, lam / 2, _ZERO),
    "HalfZ3": lambda lam: (_ZERO, _ZERO, lam / 2, _ZERO),
    "H3LowerMix": lambda lam: (_ZERO, lam / 2, _ZERO, lam / 6),
}
CATALOG_NAMES = tuple(_CATALOG)


def extremal_catalog(name: str, lam: RationalIn) -> ClassMember:
    """Named sharp-bound member at the given lambda.

    Names: FLambda (the two-factor denominator (1+z)(1+lambda z)), Bz2,
    Bz4over3, H2UpperMix, HalfZ3, H3LowerMix.  Raises KeyError
    for unknown names, NonMember("lambda out of range") outside (0, 1].
    """
    lam_q = lambda_in_range(lam)
    return validate(lam_q, _CATALOG[name](lam_q))


# -- report --------------------------------------------------------------


class _Polynomial(dict):
    """{exponent tuple: coefficient} with the operations `evaluate` and _an_coefficient use: over N1..N_width,
    with int coefficients (Fractions where a functional divides), it gives the report's and the sweep's monomials."""

    def __add__(self, other):  # a term of one side alone is shared, not copied
        return _Polynomial({**self, **other, **{e: self[e] + other[e] for e in self.keys() & other.keys()}})

    def __mul__(self, other):
        if not isinstance(other, _Polynomial):  # a number
            return _Polynomial({e: c * other for e, c in self.items()})
        return sum((_Polynomial({tuple(map(sum, zip(e, f))): c * k for f, k in other.items()})
                    for e, c in self.items()), _Polynomial())

    __rmul__ = __mul__
    __neg__ = lambda self: self * -1
    __sub__ = lambda self, other: self + -other
    __truediv__ = lambda self, k: self * Fraction(1, k)


def _integer_monomials(fn: Functional, width: int = 4) -> tuple[int, int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(L, deg, terms) with fn(N / d) = sum c d^e0 N^e / (L d^deg) over the
    terms (c, (e0, e)), each of total degree deg, N = (N1..N_width); AN(n)
    is read as e_(n-1)."""
    b = [_Polynomial({tuple(int(i == j) for j in range(width)): 1}) for i in range(width)]
    poly = _an_coefficient(b, fn.an) if fn.an else fn.evaluate(b)
    deg, lcm = max(map(sum, poly)), math.lcm(*(c.denominator for c in poly.values()))
    return lcm, deg, tuple((int(c * lcm), (deg - sum(e),) + e) for e, c in poly.items() if c)


@cache  # derived on the first report, so importing and searching never pay for it
def _report_terms() -> tuple:
    return tuple((fn.field, *_integer_monomials(fn)) for fn in FUNCTIONALS)


def _monomial_index(index: dict[tuple[int, ...], int], steps: list[tuple[int, int]], e: tuple[int, ...]) -> int:
    """index[e], adding e and its missing ancestors: e's parent lowers its first nonzero exponent v by one,
    and steps gets (parent's index, v), so each added monomial is an earlier one times variable v."""
    if e not in index:
        v = next(i for i, x in enumerate(e) if x)
        steps.append((_monomial_index(index, steps, e[:v] + (e[v] - 1,) + e[v + 1:]), v))
        index[e] = len(index)
    return index[e]


@cache  # built with _report_terms, at the first report
def _report_table() -> tuple[list[tuple[int, ...]], list[tuple[int, int]], tuple]:
    """(monomials, steps, fields): d, N1..N4, then each monomial a report reads as monomials[5 + i] =
    monomials[p] * monomials[v], (p, v) = steps[i]; fields as _report_terms, d^deg and monomials by index."""
    index, steps = {tuple(int(i == v) for i in range(5)): v for v in range(5)}, []
    add = partial(_monomial_index, index, steps)
    fields = tuple((field, lcm, add((deg, 0, 0, 0, 0)), tuple((c, add(e)) for c, e in terms))
                   for field, lcm, deg, terms in _report_terms())
    return list(index), steps, fields


@dataclass(frozen=True)
class CoefficientReport:
    """All sixteen functional values of one member, exact, by report field."""

    lam: Fraction
    b: tuple[Fraction, ...]
    values: dict[str, Fraction]

    @classmethod
    def from_member(cls, member: ClassMember) -> "CoefficientReport":
        """Each field's integer monomials on the member's integer form, each built once."""
        d, (n1, n2, n3, n4, *_) = member.integer_form  # b1..b4: validate pads b to four
        _, steps, fields = _report_table()
        m = [d, n1, n2, n3, n4]
        for p, v in steps:
            m.append(m[p] * m[v])
        values = {}
        for field, lcm, den, terms in fields:
            num = 0
            for c, i in terms:
                num += c * m[i]
            values[field] = Fraction(num, lcm * m[den])
        return cls(member.lam, member.b, values)

    def value(self, field: str) -> Fraction:
        return self.values[field]
