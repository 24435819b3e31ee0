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

The series route checks them independently: f by the reciprocal of
u = z/f, A_n = [z^(n-1)] u^n / n and gamma_n = [z^n] u^n / (2n) by
Lagrange inversion over the integer powers of d u (d = lcm of the b
denominators); TruncatedSeries.revert is the tests' reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from ucv.rootcheck import RationalIn, UnitPolynomial, as_rational, nonvanishing_in_open_disk
from ucv.series import TruncatedSeries, series_from_polynomial

VALIDATION_REASONS = (
    "lambda out of range",
    "negative coefficient",
    "lemma-sum exceeded",
    "zero in disk",
)


class NonMember(ValueError):
    """Raised when a (lambda, b) pair fails a membership gate."""

    def __init__(self, reason: str, detail: str = ""):
        assert reason in VALIDATION_REASONS
        self.reason = reason
        super().__init__(reason if not detail else f"{reason}: {detail}")


@dataclass(frozen=True)
class ClassMember:
    """A validated member: rational lambda plus the b-window (length >= 4,
    zero padded).  Construct through validate() or extremal_catalog()."""

    lam: Fraction
    b: tuple[Fraction, ...]

    def lemma_sum(self) -> Fraction:
        return sum(((n - 1) * bn for n, bn in enumerate(self.b, start=1)), Fraction(0))

    def denominator(self) -> UnitPolynomial:
        return UnitPolynomial.from_coeffs((Fraction(1),) + self.b)

    @property
    def b1(self) -> Fraction:
        return self.b[0]

    @property
    def b2(self) -> Fraction:
        return self.b[1]

    @property
    def b3(self) -> Fraction:
        return self.b[2]

    @property
    def b4(self) -> Fraction:
        return self.b[3]


def validate(lam: RationalIn, b: Sequence[RationalIn]) -> ClassMember:
    """Run the three membership gates and return the member.

    Raises NonMember with reason one of: "lambda out of range",
    "negative coefficient", "lemma-sum exceeded", "zero in disk".
    """
    lam_q = as_rational(lam)
    if not 0 < lam_q <= 1:
        raise NonMember("lambda out of range", f"lambda={lam_q}")
    bs = [as_rational(x) for x in b]
    if not bs:
        raise ValueError("b must contain at least one coefficient")
    for n, bn in enumerate(bs, start=1):
        if bn < 0:
            raise NonMember("negative coefficient", f"b{n}={bn}")
    while len(bs) < 4:
        bs.append(Fraction(0))
    total = sum(((n - 1) * bn for n, bn in enumerate(bs, start=1)), Fraction(0))
    if total > lam_q:
        raise NonMember("lemma-sum exceeded", f"sum={total} > lambda={lam_q}")
    if not nonvanishing_in_open_disk((Fraction(1),) + tuple(bs)):
        raise NonMember("zero in disk")
    member = ClassMember(lam_q, tuple(bs))
    # consequence of the gates, never an independent constraint
    assert 0 <= member.b1 <= 1 + lam_q, "b1 outside [0, 1+lambda] after gates"
    return member


# -- series routes -------------------------------------------------------


def f_series(member: ClassMember, order: int) -> TruncatedSeries:
    """Taylor expansion of f = z / (1 + sum b_n z^n) through z^order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    den = series_from_polynomial((Fraction(1),) + member.b, order - 1)
    rec = den.reciprocal()
    return TruncatedSeries((Fraction(0),) + rec.coeffs)


def _denominator_powers(member: ClassMember, count: int, order: int) -> tuple[int, list[list[int]]]:
    """(d, [P^1, ..., P^count]) truncated at z^order, where d is the lcm of
    the b denominators and P = d u over the ints; so u^n = P^n / d^n."""
    d = math.lcm(*(bn.denominator for bn in member.b))
    p = ([d] + [bn.numerator * (d // bn.denominator) for bn in member.b] + [0] * order)[: order + 1]
    terms = [(j, c) for j, c in enumerate(p) if c]
    power, powers = [1] + [0] * order, []
    for _ in range(count):
        power = [sum(c * power[k - j] for j, c in terms if j <= k) for k in range(order + 1)]
        powers.append(power)
    return d, powers


def inverse_series(member: ClassMember, order: int) -> TruncatedSeries:
    """Expansion of the compositional inverse through w^order.

    Lagrange inversion: f = z/u gives A_n = [z^(n-1)] u^n / n, read off
    the integer powers of d u."""
    if order < 1:
        raise ValueError("order must be >= 1")
    d, powers = _denominator_powers(member, order, order - 1)
    return TruncatedSeries((Fraction(0),) + tuple(
        Fraction(pn[n - 1], n * d**n) for n, pn in enumerate(powers, start=1)))


def log_inverse_halved(member: ClassMember, order: int) -> tuple[Fraction, ...]:
    """Coefficients gamma_1..gamma_order with
    log(f^-1(w) / w) = 2 sum_{n>=1} gamma_n w^n.

    With g = f^-1, g/w = u(g), and Lagrange-Buermann gives
    [w^n] log u(g) = (1/n)[z^(n-1)] u' u^(n-1) = (1/n)[z^n] u^n, so
    gamma_n = [z^n] u^n / (2n), read off the integer powers of d u."""
    if order < 0:
        raise ValueError("order must be >= 0")
    d, powers = _denominator_powers(member, order, order)
    return tuple(Fraction(pn[n], 2 * n * d**n) for n, pn in enumerate(powers, start=1))


def u_residual(member: ClassMember, order: int) -> TruncatedSeries:
    """The residual (z/f)^2 f' - 1 assembled from series arithmetic.

    Identically equal to -sum_{n>=2} (n-1) b_n z^n, which is what the
    membership budget caps; tests lean on that identity.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    u = series_from_polynomial((Fraction(1),) + member.b, order)
    fp = f_series(member, order + 1).derivative()
    return u * u * fp - TruncatedSeries.one(order)


# -- functional registry -------------------------------------------------

BoundValue = Union[Fraction, float, None]
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Functional:
    """One coefficient functional of f as a polynomial in (b1, b2, ...).

    `evaluate` is ring generic: the same expression gives the exact report
    value on Fraction coordinates and the search objective on floats and
    numpy arrays.  It avoids `**`, so equal rationals give bit-equal
    floats on the scalar and the vectorised route.  `name` is the search
    and CSV name, `field` the CoefficientReport field (None for AN(n)),
    and `bounds(lam)` the class's closed-form (max, min), None in a
    direction with no known closed form.
    """

    name: str
    field: str | None
    evaluate: Callable[[Sequence], object]
    bounds: Callable[[Fraction], tuple[BoundValue, BoundValue]]


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
    # coefficient of z^(n-1) in 1/(1 + sum b_j z^j), i.e. a_n of f;
    # written without branching so it also evaluates elementwise on arrays
    c = [b[0] * 0 + 1]
    for k in range(1, n):
        s = c[0] * 0
        for j in range(1, min(k, len(b)) + 1):
            s = s + b[j - 1] * c[k - j]
        c.append(-s)
    return c[n - 1]


def an_functional(n: int) -> Functional:
    """|a_n| of f, bounded above by 1 + lambda + ... + lambda^(n-1);
    defined for 2 <= n <= 8."""
    if not AN_MIN <= n <= AN_MAX:
        raise ValueError(f"n must be in [{AN_MIN}, {AN_MAX}], got {n}")
    return Functional(f"AN({n})", None, lambda b: abs(_an_coefficient(b, n)),
                      lambda lam: (sum((lam**k for k in range(n)), _ZERO), None))


def functional_by_name(name: str) -> Functional:
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name.startswith("AN(") and name.endswith(")"):
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
    for unknown names, NonMember if lambda is out of range.
    """
    lam_q = as_rational(lam)
    if not 0 < lam_q <= 1:
        raise NonMember("lambda out of range", f"lambda={lam_q}")
    return validate(lam_q, _CATALOG[name](lam_q))


# -- report and serialization --------------------------------------------

REPORT_FIELDS = (
    "a2", "a3", "a4", "a5",
    "A2", "A3", "A4",
    "gamma1", "gamma2", "gamma3",
    "h2f", "h3f", "h2inv", "h3inv",
    "z23", "z24",
)


@dataclass(frozen=True)
class CoefficientReport:
    """All sixteen functional values of one member, exact, by report field."""

    lam: Fraction
    b: tuple[Fraction, ...]
    values: dict[str, Fraction]

    @classmethod
    def from_member(cls, member: ClassMember) -> "CoefficientReport":
        return cls(member.lam, member.b, {fn.field: fn.evaluate(member.b) for fn in FUNCTIONALS})

    def value(self, field: str) -> Fraction:
        return self.values[field]


def decimal_str(q: Fraction) -> str:
    """Shortest exact decimal when the denominator is 2^a 5^b, else p/q."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    two = five = 0
    d = den
    while d % 2 == 0:
        d //= 2
        two += 1
    while d % 5 == 0:
        d //= 5
        five += 1
    if d != 1:
        return str(q)
    shift = max(two, five)
    scaled = abs(num) * 2 ** (shift - two) * 5 ** (shift - five)
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def report_to_dict(report: CoefficientReport) -> dict:
    """Stable JSON shape; every rational renders as a p/q string."""
    out: dict = {
        "lambda": str(report.lam),
        "b": [str(x) for x in report.b],
    }
    for field in REPORT_FIELDS:
        out[field] = str(report.value(field))
    return out
