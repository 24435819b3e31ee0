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

Functionals (the FUNCTIONALS registry, then AN(n)), each by its definition
over the Taylor coefficients a_k of f (a_1 = 1), A_k of f^-1 (A_1 = 1) and
gamma_k, the logarithmic coefficients log(f^-1(w)/w) = 2 sum gamma_k w^k,
with H_q(n) = det [c_(n+i+j)], i, j < q, the Hankel determinant of c:

  A2..A4     A_k                    H2F, H3F      H_2(2), H_3(1) of a
  G1..G3     gamma_k                H2INV, H3INV  H_2(2), H_3(1) of A
  A2C..A5C   a_k                    Z23, Z24      a2 a3 - a4, a2 a4 - a5
  AN(n)      a_n, valued by its modulus |a_n|, 2 <= n <= 8

Each value has one derivation: every a_k, f_series's too, comes from one
recursion, and each definition runs once over polynomials in b, giving the
integer monomials that the report, the sweep and the edge pass read, with
one monomial plan for the report and the edge pass.  The exact layers work
over the ints, on the member's integer form (d = lcm of the b denominators,
N = d b), one Fraction per returned value.  A CoefficientReport holds
exact values only; ucv.cli renders them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
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
    """Taylor expansion of f = z / (1 + sum b_n z^n) through z^order: _reciprocal, run over the ints on the weights
    N_j d^(j-1), gives d^k e_k, so a_(k+1) = (-1)^k e_k / d^k."""
    if order < 1:
        raise ValueError("order must be >= 1")
    d, ns = member.integer_form
    e = _reciprocal([x * d**j for j, x in enumerate(ns)], [1], order)
    return TruncatedSeries((_ZERO,) + tuple(Fraction(-x if k % 2 else x, d**k) for k, x in enumerate(e)))


def _denominator_powers(member, count: int, order: int) -> list[list]:
    """[P^1, ..., P^count] through at least z^order, P = d u from the integer form (d, N) of a member, or of
    _Coefficients (d = 1, N = b over any ring), so u^n = P^n / d^n with d^n the row's constant term.  Each row is the
    one before times P, one loop over P's nonzero terms.  The rows are kept on the member, and a call that asks for
    more rows or a higher order extends them in place: a truncation is exact, so no value depends on the call order."""
    powers = vars(member).setdefault("_powers", [])  # kept on the member, past a frozen dataclass's fields
    if len(powers) >= count and (not powers or len(powers[0]) > order):
        return powers[:count]
    d, ns = member.integer_form
    top = max(order, len(powers[0]) - 1) if powers else order
    unit = ([d, *ns] + [0] * top)[: top + 1]
    terms = [(j, c) for j, c in enumerate(unit) if c]
    powers += [[] for _ in range(count - len(powers))]
    powers[0] += unit[len(powers[0]):]
    for prev, row in zip(powers, powers[1:]):  # the new terms of P^n = P^(n-1) P, P^(n-1) = prev already grown
        start = len(row)
        row += [0] * (top + 1 - start)
        for j, c in terms:
            for k in range(j if j > start else start, top + 1):
                row[k] += c * prev[k - j]
    return powers[:count]


def inverse_series(member: ClassMember, order: int) -> TruncatedSeries:
    """Expansion of the compositional inverse through w^order.

    Lagrange inversion: f = z/u gives A_n = [z^(n-1)] u^n / n, read off
    the integer powers of d u that log_inverse_halved and the definitions
    share."""
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


class SquareRoot(float):
    """math.sqrt(square) of a positive rational square, kept: an irrational bound that compares exactly by squares."""

    def __new__(cls, square: Fraction) -> SquareRoot:
        root = super().__new__(cls, math.sqrt(square))
        root.square = square
        return root


BoundValue = Union[Fraction, SquareRoot, None]


@dataclass(frozen=True)
class Functional:
    """One coefficient functional of f, by its definition over the _Coefficients c of b: c.a(k), c.A(k), c.gamma(k),
    or b itself as c.b.  The definition is ring generic: run once over _Polynomial it yields the integer monomials of
    the exact report, the sweep and the edge pass.  `name` is the search and CSV name, `field` the CoefficientReport
    field (None for AN(n)), and `bounds(lam)` the class's closed-form (max, min), None in a direction with no known
    closed form."""

    name: str
    field: str | None
    definition: Callable[[_Coefficients], object]
    bounds: Callable[[Fraction], tuple[BoundValue, BoundValue]]
    an: int | None = None  # n of AN(n), defined as a_n and valued as |a_n|: evaluate and the search take the modulus

    def evaluate(self, b: Sequence):
        value = self.definition(_Coefficients(b))
        return abs(value) if self.an else value


def _reciprocal(b: Sequence, e: list, count: int) -> list:
    """e extended in place to e_0..e_(count-1), e_k = (-1)^k a_(k+1), a_(k+1) = [z^k] 1/(1 + sum b_j z^j): e_0 = 1,
    e_k = b1 e_(k-1) - b2 e_(k-2) + ...  Ring generic, with no branch on values: on floats and arrays (rounding is
    sign-symmetric, so |e_k| has the bits of |a_(k+1)|), Fractions, polynomials and f_series's integer weights."""
    for k in range(len(e), count):
        s = b[0] * e[k - 1]
        for j in range(2, min(k, len(b)) + 1):
            s = s + b[j - 1] * e[k - j] if j % 2 else s - b[j - 1] * e[k - j]
        e.append(s)
    return e


class _Coefficients:
    """The a_k, A_k and gamma_k of the f with z / f = u = 1 + b1 z + b2 z^2 + ..., over the ring of b (Fractions,
    floats or _Polynomial): a_k = (-1)^(k-1) e_(k-1) of _reciprocal, and A_k = [z^(k-1)] u^k / k and gamma_k =
    [z^k] u^k / 2k off the powers of u that inverse_series and log_inverse_halved read, as N / d at d = 1."""

    def __init__(self, b: Sequence):  # the e_k and the powers of u are kept on the object and grown as read
        self.b, self.integer_form, self._e = b, (1, b), [1]

    def a(self, k: int):
        return (-1) ** (k - 1) * _reciprocal(self.b, self._e, k)[k - 1]

    def A(self, k: int):
        return Fraction(1, k) * _denominator_powers(self, k, k - 1)[k - 1][k - 1]

    def gamma(self, k: int):
        return Fraction(1, 2 * k) * _denominator_powers(self, k, k)[k - 1][k]


def _det(m: list[list]):
    # by cofactors along the first row, ring generic
    return m[0][0] if len(m) == 1 else sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
                                           for j in range(len(m)))


def _hankel(x: Callable[[int], object], q: int, n: int):
    # H_q(n) = det [x(n + i + j)], i, j < q
    xs = [x(k) for k in range(n, n + 2 * q - 1)]
    return _det([xs[i:i + q] for i in range(q)])


FUNCTIONALS = (
    Functional("A2", "A2", lambda c: c.A(2), lambda lam: (1 + lam, _ZERO)),
    Functional("A3", "A3", lambda c: c.A(3), lambda lam: (1 + 3 * lam + lam**2, _ZERO)),
    Functional("A4", "A4", lambda c: c.A(4), lambda lam: ((1 + lam) * (1 + 5 * lam + lam**2), _ZERO)),
    Functional("G1", "gamma1", lambda c: c.gamma(1), lambda lam: ((1 + lam) / 2, _ZERO)),
    Functional("G2", "gamma2", lambda c: c.gamma(2), lambda lam: ((1 + 4 * lam + lam**2) / 4, _ZERO)),
    Functional("G3", "gamma3", lambda c: c.gamma(3), lambda lam: ((1 + lam) * (1 + 8 * lam + lam**2) / 6, _ZERO)),
    Functional("H2F", "h2f", lambda c: _hankel(c.a, 2, 2), lambda lam: ((1 - lam / 2) * (lam / 2), -(lam**2))),
    Functional("H3F", "h3f", lambda c: _hankel(c.a, 3, 1), lambda lam: (lam**2 / 12, -(lam**2) / 4)),
    Functional("H2INV", "h2inv", lambda c: _hankel(c.A, 2, 2), lambda lam: (lam * (1 + lam + lam**2), -(lam**2))),
    Functional("H3INV", "h3inv", lambda c: _hankel(c.A, 3, 1), lambda lam: (lam**3, -(lam**2) / 4)),
    Functional("Z23", "z23", lambda c: c.a(2) * c.a(3) - c.a(4), lambda lam: (lam / 2, -(1 + lam) * lam)),
    # only |a2 a4 - a5| <= lam + lam^2 + lam^3 is known, attained on the positive side
    Functional("Z24", "z24", lambda c: c.a(2) * c.a(4) - c.a(5), lambda lam: (lam + lam**2 + lam**3, None)),
    Functional("A2C", "a2", lambda c: c.a(2), lambda lam: (_ZERO, -(1 + lam))),
    Functional("A3C", "a3", lambda c: c.a(3), lambda lam: (1 + lam + lam**2, -lam)),
    # |a4| <= 1 + lam + lam^2 + lam^3 is attained only on the minus side; the sharp maximum (4/3)sqrt(2/3) =
    # sqrt(96/81) is known at lam = 1 only
    Functional("A4C", "a4", lambda c: c.a(4),
               lambda lam: (SquareRoot(Fraction(96, 81)) if lam == 1 else None, -(1 + lam + lam**2 + lam**3))),
    Functional("A5C", "a5", lambda c: c.a(5), lambda lam: (Fraction(5), Fraction(-9, 4)) if lam == 1 else (None, None)),
)
FUNCTIONAL_NAMES = tuple(fn.name for fn in FUNCTIONALS)
_BY_NAME = {fn.name: fn for fn in FUNCTIONALS}

AN_MIN, AN_MAX = 2, 8


@cache  # one object per n, so its integer monomials are derived once per process
def an_functional(n: int) -> Functional:
    """|a_n| of f, bounded above by 1 + lambda + ... + lambda^(n-1); defined for 2 <= n <= 8.  Its definition is
    a_n, and its `an`, n, makes evaluate and the search take the modulus."""
    if not AN_MIN <= n <= AN_MAX:
        raise ValueError(f"n must be in [{AN_MIN}, {AN_MAX}], got {n}")
    return Functional(f"AN({n})", None, lambda c: c.a(n),
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
    """{exponent tuple: coefficient} with the operations the definitions use: over N1..N_width, with int coefficients
    (Fractions where a definition divides), it gives the report's, the sweep's and the edge pass's monomials."""

    def __add__(self, other):  # a term of one side alone is shared, not copied
        return _Polynomial({**self, **other, **{e: self[e] + other[e] for e in self.keys() & other.keys()}})

    def __mul__(self, other):
        if not isinstance(other, _Polynomial):  # a number
            return _Polynomial({e: c * other for e, c in self.items()})
        return sum((_Polynomial({tuple(map(sum, zip(e, f))): c * k for f, k in other.items()})
                    for e, c in self.items()), _Polynomial())

    __radd__ = lambda self, other: self if other == 0 else NotImplemented  # the 0 that sums and power rows start from
    __rmul__ = __mul__
    __neg__ = lambda self: self * -1
    __sub__ = lambda self, other: self + -other
    __truediv__ = lambda self, k: self * Fraction(1, k)


@cache  # one per width, so the rows of a width share each a_k and the powers of u
def _polynomial_coefficients(width: int) -> _Coefficients:
    return _Coefficients([_Polynomial({tuple(int(i == j) for j in range(width)): 1}) for i in range(width)])


@cache  # per functional and width, on the first report or sweep that reads it, so importing never pays for it
def _integer_monomials(fn: Functional, width: int) -> tuple[int, int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(L, deg, terms) with fn's definition at N / d = sum c d^e0 N^e / (L d^deg) over the terms (c, (e0, e)), each of
    total degree deg, N = (N1..N_width); for AN(n) that is a_n, whose modulus the search takes.  A term that cancels
    (H2F's b1^4) counts for neither deg nor L."""
    poly = {e: c for e, c in fn.definition(_polynomial_coefficients(width)).items() if c}
    deg, lcm = max(map(sum, poly)), math.lcm(*(c.denominator for c in poly.values()))
    return lcm, deg, tuple((int(c * lcm), (deg - sum(e),) + e) for e, c in poly.items())


def _monomial_index(index: dict[tuple[int, ...], int], steps: list[tuple[int, int]], e: tuple[int, ...]) -> int:
    """index[e], adding e and its missing ancestors: e's parent lowers its first nonzero exponent v by one,
    and steps gets (parent's index, v), so each added monomial is an earlier one times variable v."""
    if e not in index:
        v = next(i for i, x in enumerate(e) if x)
        steps.append((_monomial_index(index, steps, e[:v] + (e[v] - 1,) + e[v + 1:]), v))
        index[e] = len(index)
    return index[e]


@cache  # per rows and width, so the report and the edge pass share the registry's plan at width 4
def _monomial_plan(rows: tuple, width: int) -> tuple[list[tuple[int, int]], list[list[tuple[int, int]]], list[int]]:
    """(steps, terms, dens) of rows of _integer_monomials: after d, N1..N_width, monomial width + 1 + i is monomial p
    times coordinate v, (p, v) = steps[i], an earlier one; terms[f] holds row f's terms as (c, monomial index), and
    dens[f] the index of its d^deg."""
    index, steps = {tuple(int(i == v) for i in range(width + 1)): v for v in range(width + 1)}, []
    terms = [[(c, _monomial_index(index, steps, e)) for c, e in row] for _, _, row in rows]
    return steps, terms, [_monomial_index(index, steps, (deg,) + (0,) * width) for _, deg, _ in rows]


@cache  # at the first report, with no argument, so a report hashes no rows; a sweep alone never builds it
def _report_plan() -> tuple[list[tuple[int, int]], tuple]:
    # the registry's _monomial_plan at width 4: its steps, and (field, L, d^deg, terms) per row, by monomial index
    rows = tuple(_integer_monomials(fn, 4) for fn in FUNCTIONALS)
    steps, terms, dens = _monomial_plan(rows, 4)
    return steps, tuple((fn.field, lcm, den, t) for fn, (lcm, _, _), den, t in zip(FUNCTIONALS, rows, dens, terms))


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
        steps, fields = _report_plan()
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
