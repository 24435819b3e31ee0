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

Functionals, all exact in the rationals:

  a2..a5        Taylor coefficients of f
  A2..A4        Taylor coefficients of the compositional inverse
  gamma1..3     logarithmic coefficients: log(f^-1(w)/w) = 2 sum gamma_n w^n
  h2f, h3f      second/third Hankel determinants of f
  h2inv, h3inv  the same for the inverse
  z23, z24      Zalcman expressions a2 a3 - a4 and a2 a4 - a5
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ucv.rootcheck import DEFAULT_TOL, RationalIn, UnitPolynomial, as_rational, nonvanishing_in_open_disk
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


def validate(
    lam: RationalIn,
    b: Sequence[RationalIn],
    tol: float = DEFAULT_TOL,
) -> ClassMember:
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
    poly = UnitPolynomial.from_coeffs((Fraction(1),) + tuple(bs))
    if not nonvanishing_in_open_disk(poly, tol=tol):
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


def inverse_series(member: ClassMember, order: int) -> TruncatedSeries:
    """Expansion of the compositional inverse through w^order."""
    return f_series(member, order).revert()


def log_inverse_halved(member: ClassMember, order: int) -> tuple[Fraction, ...]:
    """Coefficients gamma_1..gamma_order with
    log(f^-1(w) / w) = 2 sum_{n>=1} gamma_n w^n, via series arithmetic."""
    g = inverse_series(member, order + 1)
    unit = TruncatedSeries(g.coeffs[1:])  # g/w, constant term 1
    lg = unit.log_unit()
    return tuple(c / 2 for c in lg.coeffs[1 : order + 1])


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


# -- closed forms --------------------------------------------------------


def a_closed(member: ClassMember) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(a2, a3, a4, a5) of f in closed form."""
    b1, b2, b3, b4 = member.b[:4]
    return (
        -b1,
        b1 * b1 - b2,
        -b3 + 2 * b1 * b2 - b1**3,
        -b4 + b2 * b2 + 2 * b1 * b3 - 3 * b1 * b1 * b2 + b1**4,
    )


def inverse_closed(member: ClassMember) -> tuple[Fraction, Fraction, Fraction]:
    """(A2, A3, A4) of the compositional inverse in closed form."""
    b1, b2, b3 = member.b[:3]
    return (b1, b2 + b1 * b1, b3 + 3 * b1 * b2 + b1**3)


def gamma_closed(member: ClassMember) -> tuple[Fraction, Fraction, Fraction]:
    """(gamma1, gamma2, gamma3) of the inverse's logarithmic expansion."""
    b1, b2, b3 = member.b[:3]
    return (
        b1 / 2,
        (b2 + b1 * b1 / 2) / 2,
        (b3 + 2 * b1 * b2 + b1**3 / 3) / 2,
    )


def hankel_values(member: ClassMember) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(h2f, h3f, h2inv, h3inv): Hankel determinants of f and f^-1.

    h2f  = a2 a4 - a3^2                                  = b1 b3 - b2^2
    h3f  = a3(a2 a4 - a3^2) - a4(a4 - a2 a3) + a5(a3 - a2^2)
                                                         = b2 b4 - b3^2
    h2inv = A2 A4 - A3^2                                 = b1 b3 + b1^2 b2 - b2^2
    h3inv = h3f - (a3 - a2^2)^3                          = b2 b4 - b3^2 + b2^3
    """
    b1, b2, b3, b4 = member.b[:4]
    h3f = b2 * b4 - b3 * b3
    return (
        b1 * b3 - b2 * b2,
        h3f,
        b1 * b3 + b1 * b1 * b2 - b2 * b2,
        h3f + b2**3,
    )


def zalcman_values(member: ClassMember) -> tuple[Fraction, Fraction]:
    """(z23, z24) = (a2 a3 - a4, a2 a4 - a5) in closed form."""
    b1, b2, b3, b4 = member.b[:4]
    return (b3 - b1 * b2, b1 * b1 * b2 - b1 * b3 - b2 * b2 + b4)


# -- extremal catalog ----------------------------------------------------

CATALOG_NAMES = (
    "FLambda",
    "Bz2",
    "Bz4over3",
    "H2UpperMix",
    "HalfZ3",
    "H3LowerMix",
    "LambdaZ3",
)


def _catalog_b(name: str, lam: Fraction) -> tuple[Fraction, ...]:
    zero = Fraction(0)
    if name == "FLambda":
        return (1 + lam, lam, zero, zero)
    if name == "Bz2":
        return (zero, lam, zero, zero)
    if name == "Bz4over3":
        return (zero, zero, zero, lam / 3)
    if name == "H2UpperMix":
        return (1 - lam / 2, zero, lam / 2, zero)
    if name == "HalfZ3":
        return (zero, zero, lam / 2, zero)
    if name == "H3LowerMix":
        return (zero, lam / 2, zero, lam / 6)
    if name == "LambdaZ3":
        # The h3inv maximum lambda^3 is often displayed with denominator
        # 1 + lambda z^3, but that polynomial breaks the weighted budget
        # (2 lambda > lambda) and yields h3inv = -lambda^2, not lambda^3.
        # The attaining denominator is 1 + lambda z^2, kept under this
        # historical name.
        return (zero, lam, zero, zero)
    raise KeyError(name)


def extremal_catalog(name: str, lam: RationalIn) -> ClassMember:
    """Named sharp-bound member at the given lambda.

    Names: FLambda (the two-factor denominator (1+z)(1+lambda z)), Bz2,
    Bz4over3, H2UpperMix, HalfZ3, H3LowerMix, LambdaZ3.  Raises KeyError
    for unknown names, NonMember if lambda is out of range.
    """
    lam_q = as_rational(lam)
    if not 0 < lam_q <= 1:
        raise NonMember("lambda out of range", f"lambda={lam_q}")
    if name not in CATALOG_NAMES:
        raise KeyError(name)
    return validate(lam_q, _catalog_b(name, lam_q))


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
    """All sixteen functional values of one member, exact."""

    lam: Fraction
    b: tuple[Fraction, ...]
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a5: Fraction
    A2: Fraction
    A3: Fraction
    A4: Fraction
    gamma1: Fraction
    gamma2: Fraction
    gamma3: Fraction
    h2f: Fraction
    h3f: Fraction
    h2inv: Fraction
    h3inv: Fraction
    z23: Fraction
    z24: Fraction

    @classmethod
    def from_member(cls, member: ClassMember) -> "CoefficientReport":
        a2, a3, a4, a5 = a_closed(member)
        A2, A3, A4 = inverse_closed(member)
        g1, g2, g3 = gamma_closed(member)
        h2f, h3f, h2inv, h3inv = hankel_values(member)
        z23, z24 = zalcman_values(member)
        return cls(
            member.lam, member.b,
            a2, a3, a4, a5, A2, A3, A4,
            g1, g2, g3, h2f, h3f, h2inv, h3inv, z23, z24,
        )

    def value(self, field: str) -> Fraction:
        return getattr(self, field)


def rational_str(q: Fraction) -> str:
    """Canonical rational rendering: "p/q", or "p" for integers."""
    return str(q)


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
        "lambda": rational_str(report.lam),
        "b": [rational_str(x) for x in report.b],
    }
    for field in REPORT_FIELDS:
        out[field] = rational_str(report.value(field))
    return out


def report_from_dict(data: dict) -> CoefficientReport:
    lam = Fraction(data["lambda"])
    b = tuple(Fraction(x) for x in data["b"])
    values = {field: Fraction(data[field]) for field in REPORT_FIELDS}
    return CoefficientReport(lam, b, **values)


def report_json(report: CoefficientReport) -> str:
    return json.dumps(report_to_dict(report), separators=(", ", ": "))
