"""Unit-disk nonvanishing test for real polynomials with p(0) = 1.

The primary question: does 1 + p_1 z + ... + p_d z^d have a zero inside
the open unit disk?  Membership checks admit zeros ON the circle (the
sharp extremal denominators all have one).  Every answer is exact; no
float enters a decision.

When the tail budget sum_{n>=2} (n-1)|p_n| is at most 1, p has no zero
in the open disk iff p(-1) >= 0 and p(1) >= 0 (the proof is at
nonvanishing_in_open_disk).  Every denominator of the class has such a
budget, so membership compares ints: the coefficients' numerators over
their lcm.

Any other polynomial is decided over Fraction.  g = gcd(p, p*), p* the
reversed p, takes every zero on the circle and every reciprocal pair
r, 1/r; the cofactor p/g goes through the strict Schur-Cohn test, and
g, self-reciprocal, through a Sturm count in x = z + 1/z on (-2, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

RationalIn = Union[Fraction, int, float, str]


def as_rational(value: RationalIn) -> Fraction:
    """The one input coercion of the package: Fractions pass, ints and
    strings ("1/3", "0.25") convert exactly, and a float is read by its
    decimal text, so 0.1 means 1/10 as it does on the command line (not
    the double's binary value 3602879701896397/36028797018963968)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot widen {type(value).__name__} to an exact rational")


def over_common_denominator(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(d, N): d the lcm of the denominators and N_i = d values_i."""
    d = math.lcm(*(q.denominator for q in values))
    return d, tuple(q.numerator * (d // q.denominator) for q in values)


@dataclass(frozen=True)
class UnitPolynomial:
    """Real polynomial p_0 + p_1 z + ... with p_0 = 1, exact coefficients,
    trailing zeros stripped."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [as_rational(c) for c in self.coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs or cs[0] != 1:
            raise ValueError("unit polynomial requires constant term exactly 1")
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_coeffs(cls, values: Iterable[RationalIn]) -> "UnitPolynomial":
        return cls(tuple(values))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _as_unit(p: Union[UnitPolynomial, Sequence[RationalIn]]) -> UnitPolynomial:
    if isinstance(p, UnitPolynomial):
        return p
    return UnitPolynomial.from_coeffs(p)


# -- exact helpers: ascending Fraction lists, top coefficient nonzero ----


def _at(poly: list, p: int, q: int):
    # q^m poly(p / q), m = len(poly) - 1, by homogeneous Horner: exact on ints and on Fractions
    acc, qk = 0, 1
    for c in reversed(poly):
        acc, qk = acc * p + c * qk, qk * q
    return acc


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for k in range(len(a) - len(b), -1, -1):
        c = q[k] = r[k + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
    r = r[:len(b) - 1] or [Fraction(0)]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return q, r


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd by Euclid's algorithm."""
    while b != [0]:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]


# -- the exact disk decision -------------------------------------------


def _schur_stable(q: list[Fraction]) -> bool:
    """True iff q, q(0) != 0, has no zero in the closed unit disk.

    Strict Schur-Cohn: for r = q_n / q_0 with |r| < 1, q has a zero in the
    closed disk iff T(q) = q - r q* does (q* the reversed q: Rouche, as
    |q*| = |q| on the circle, where q* also vanishes with q); T(q) has
    lower degree and T(q)(0) != 0.  If |r| >= 1 the roots' moduli
    multiply to |1/r| <= 1.
    """
    while len(q) > 1:
        r = q[-1] / q[0]
        if abs(r) >= 1:
            return False
        n = len(q) - 1
        q = [q[k] - r * q[n - k] for k in range(n)]
        while len(q) > 1 and q[-1] == 0:
            q.pop()
    return True


def _zeros_on_circle(g: list[Fraction]) -> bool:
    """True iff every zero of the self-reciprocal g lies on |z| = 1.

    Dividing out the zeros at +-1 leaves g palindromic of even degree 2m,
    g(z) = z^m H(z + 1/z), and z lies on the circle iff x = z + 1/z is
    real in [-2, 2], where x = +-2 are the zeros at z = +-1.  So g passes
    iff H has all its distinct zeros, m - deg gcd(H, H'), in (-2, 2): a
    Sturm count.
    """
    for root in (1, -1):
        while len(g) > 1 and _at(g, root, 1) == 0:
            g = _poly_divmod(g, [Fraction(-root), Fraction(1)])[0]
    m = (len(g) - 1) // 2
    if m == 0:
        return True
    # z^j + z^-j = D_j(x) with D_0 = 2, D_1 = x, D_{j+1} = x D_j - D_{j-1}
    h = [g[m]] + [Fraction(0)] * m
    prev, cur = [Fraction(2)], [Fraction(0), Fraction(1)]
    for j in range(1, m + 1):
        for i, c in enumerate(cur):
            h[i] += g[m + j] * c
        nxt = [Fraction(0)] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    sturm = [h, [k * c for k, c in enumerate(h) if k]]
    while sturm[-1] != [0]:
        sturm.append([-c for c in _poly_divmod(sturm[-2], sturm[-1])[1]])
    sturm.pop()

    def sign_changes(x: int) -> int:
        signs = [v > 0 for v in (_at(s, x, 1) for s in sturm) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(-2) - sign_changes(2) == m - (len(sturm[-1]) - 1)


def _no_zero_in_open_disk(p: Union[UnitPolynomial, Sequence[RationalIn]]) -> bool:
    """The exact decision for any p.  g = gcd(p, p*) holds every zero on
    the circle with its full multiplicity (p* vanishes at 1/conj z = z
    there) and every reciprocal pair r, 1/r, so the cofactor p/g has none
    of either and goes to the strict Schur-Cohn test."""
    cs = list(_as_unit(p).coeffs)
    g = _poly_gcd(cs, cs[::-1])
    return _schur_stable(_poly_divmod(cs, g)[0]) and _zeros_on_circle(g)


def min_root_modulus(p: Union[UnitPolynomial, Sequence[RationalIn]]) -> float:
    """Smallest |root| of p from numpy.roots, +inf for degree 0.  A float
    estimate (a k-fold root is only located to about eps^(1/k)); no
    decision reads it."""
    cs = _as_unit(p).coeffs
    if len(cs) == 1:
        return math.inf
    return float(np.abs(np.roots([float(c) for c in reversed(cs)])).min())


def nonvanishing_in_open_disk(p: Union[UnitPolynomial, Sequence[RationalIn]],
                              lifted: tuple[int, tuple[int, ...]] | None = None) -> bool:
    """True when p has no zero in the open unit disk; zeros on the circle
    pass.  Exact on every input, with no float: integer comparisons when
    the tail budget sum_{n>=2} (n-1)|p_n| is <= 1, as on every class
    denominator, and the gcd / Schur-Cohn / Sturm decision otherwise.  A
    caller that holds p as ints passes lifted = (d, N), any d > 0 with
    N = d p, and saves re-reading p; p itself is then read only by the
    exact routine.

    Theorem (the argument of L. A. Aksent'ev's univalence criterion,
    1958): with tail budget <= 1, p has no zero in |z| < 1 iff p(-1) >= 0
    and p(1) >= 0.  Proof: let phi(z) = p(z)/z.  For z != w in the
    punctured disk,
        phi(z) - phi(w) = -((z - w)/(z w)) [1 - sum_{n>=2} p_n sum_{k=1}^{n-1} z^k w^(n-k)],
    whose n - 1 inner terms each have modulus < 1, so the double sum has
    modulus < 1: phi is injective there, and p has at most one zero in
    the disk.  The coefficients are real, so that zero is real.  On
    (-1, 0) and (0, 1), (p/x)' = -q/x^2 with q = 1 - sum (n-1) p_n x^n > 0,
    so p(x)/x < -p(-1) <= 0 on (-1, 0) and p(x)/x > p(1) >= 0 on (0, 1):
    p > 0 on both.
    """
    d, ns = lifted or over_common_denominator(_as_unit(p).coeffs)  # ns = d p with d > 0
    # nonnegative coefficients summing to <= 1 keep |p(z) - 1| < 1 inside
    if min(ns) >= 0 and sum(ns[1:]) <= d:
        return True
    # p(0) = 1 > 0, so a negative value at either end of (-1, 1) forces a
    # real root strictly inside the disk
    if sum(ns) < 0 or sum(ns[0::2]) < sum(ns[1::2]):
        return False
    if sum((n - 1) * abs(c) for n, c in enumerate(ns[2:], start=2)) <= d:
        return True
    return _no_zero_in_open_disk(p)
