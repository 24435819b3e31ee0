"""Truncated formal power series with exact rational coefficients.

A series of order N stores the coefficients of z^0 .. z^N and stands for
an unknown analytic function modulo z^(N+1).  Every operation truncates
to the order of the least-informed operand, so results never claim
coefficients that the inputs cannot justify.  Coefficients are
fractions.Fraction throughout; inputs go through rootcheck.as_rational,
so a float means its decimal text (0.1 is 1/10) and the algebra stays
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ucv.rootcheck import RationalIn, as_rational


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c[0..N] of a series known modulo z^(N+1)."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the z^0 coefficient")
        if type(self.coeffs) is not tuple or any(type(c) is not Fraction for c in self.coeffs):
            object.__setattr__(self, "coeffs", tuple(map(as_rational, self.coeffs)))  # else kept as given

    # -- constructors ------------------------------------------------

    @classmethod
    def from_coeffs(cls, values: Iterable[RationalIn]) -> "TruncatedSeries":
        return cls(tuple(values))

    @classmethod
    def constant(cls, value: RationalIn, order: int = 0) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls((as_rational(value),) + (Fraction(0),) * order)

    @classmethod
    def zero(cls, order: int = 0) -> "TruncatedSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int = 0) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        """The series z, order >= 1."""
        if order < 1:
            raise ValueError("identity needs order >= 1")
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    # -- basics ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside known range 0..{self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "TruncatedSeries":
        if not 0 <= order <= self.order:
            raise ValueError("can only truncate to a lower or equal order")
        return TruncatedSeries(self.coeffs[: order + 1])

    def scale(self, factor: RationalIn) -> "TruncatedSeries":
        f = as_rational(factor)
        return TruncatedSeries(tuple(f * c for c in self.coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product modulo z^(min(N, M)+1)."""
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            s = Fraction(0)
            for j in range(k + 1):
                if a[j] and b[k - j]:
                    s += a[j] * b[k - j]
            out.append(s)
        return TruncatedSeries(tuple(out))

    # -- analytic operations --------------------------------------------

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse of a unit series (c0 = 1).

        r0 = 1 and r_k = -sum_{j=1..k} c_j r_{k-j}, the standard long
        division recurrence.
        """
        if self.coeffs[0] != 1:
            raise ValueError("reciprocal requires constant term 1")
        c = self.coeffs
        r = [Fraction(1)]
        for k in range(1, self.order + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                if c[j]:
                    acc += c[j] * r[k - j]
            r.append(-acc)
        return TruncatedSeries(tuple(r))

    def derivative(self) -> "TruncatedSeries":
        """Termwise derivative; drops the order by one.

        The derivative of an order-0 series is the zero series of
        order 0 (nothing is known beyond the constant, so nothing is
        known about the derivative either, and 0 is the only honest
        coefficient to report).
        """
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(tuple(Fraction(k) * self.coeffs[k] for k in range(1, self.order + 1)))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)) for inner with zero constant term, by Horner."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires inner constant term 0")
        n = min(self.order, inner.order)
        t = inner.truncate(n)
        acc = TruncatedSeries.constant(self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            acc = acc * t + TruncatedSeries.constant(self.coeffs[k], n)
        return acc

    def revert(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(w)) = w mod w^(N+1).

        Requires c0 = 0, c1 = 1.  Back-substitution: with g known up to
        w^(n-1), the w^n coefficient of self(g) is linear in the unknown
        g_n with unit slope, so g_n is read off directly.
        """
        if self.coeffs[0] != 0:
            raise ValueError("reversion requires constant term 0")
        if self.coeffs[1] != 1:
            raise ValueError("reversion requires unit linear coefficient")
        n = self.order
        g = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1)
        for k in range(2, n + 1):
            partial = TruncatedSeries(tuple(g[: k + 1]))
            h = self.truncate(k).compose(partial)
            g[k] = -h.coeffs[k]
        return TruncatedSeries(tuple(g))

    def log_unit(self) -> "TruncatedSeries":
        """log of a unit series (c0 = 1), via the alternating sum
        sum_{k>=1} (-1)^(k+1) (s-1)^k / k; (s-1)^k has valuation k so the
        sum is finite at any fixed order."""
        if self.coeffs[0] != 1:
            raise ValueError("log_unit requires constant term 1")
        n = self.order
        u = self - TruncatedSeries.one(n)
        out = TruncatedSeries.zero(n)
        power = TruncatedSeries.one(n)
        for k in range(1, n + 1):
            power = power * u
            out = out + power.scale(Fraction((-1) ** (k + 1), k))
        return out

    # -- presentation --------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.order + 1})"


def series_from_polynomial(coeffs: Sequence[RationalIn], order: int) -> TruncatedSeries:
    """Polynomial coefficients viewed as a series of the given order,
    zero-padded or truncated as needed (valid because a polynomial's
    tail really is zero)."""
    cs = [as_rational(c) for c in coeffs]
    if order + 1 < len(cs):
        cs = cs[: order + 1]
    else:
        cs = cs + [Fraction(0)] * (order + 1 - len(cs))
    return TruncatedSeries(tuple(cs))
