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

Any other polynomial is decided over the ints, on those same numerators.
g = gcd(p, p*), p* the reversed p, takes every zero on the circle and
every reciprocal pair r, 1/r; the cofactor p/g goes through the strict
Schur-Cohn test, and g, self-inversive, has all its zeros on the circle
iff its reversed derivative passes the same decision (Cohn's theorem).
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


# -- the exact disk decision: ascending int lists, constant term nonzero ---


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with b_m^(deg a - m + 1) a = q b + r and deg r < m = deg b,
    for deg a >= m: long division that scales by b_m before each step, so
    it stays in the ints."""
    m = len(b) - 1
    q, r = [0] * max(len(a) - m, 1), list(a)
    for k in range(len(a) - 1 - m, -1, -1):
        c = r[k + m]
        q, r = [b[-1] * x for x in q], [b[-1] * x for x in r]
        q[k] = c
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
    r = r[:m] or [0]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return q, r


def _schur_stable(q: Sequence[int]) -> bool:
    """True iff q, q(0) != 0, has no zero in the closed unit disk.

    Strict Schur-Cohn: for |q_n| < |q_0|, q has a zero in the closed disk
    iff T(q) = q_0 q - q_n q* does (q* the reversed q: Rouche, as |q*| =
    |q| on the circle, where q* also vanishes with q); T(q), divided by
    its content, has lower degree and T(q)(0) = q_0^2 - q_n^2 != 0.  If
    |q_n| >= |q_0| the roots' moduli multiply to |q_0 / q_n| <= 1.  A zero
    top coefficient q_n gives T(q) = q_0 q, one degree lower.
    """
    while len(q) > 1:
        if abs(q[-1]) >= abs(q[0]):
            return False
        n = len(q) - 1
        q = [q[0] * q[k] - q[-1] * q[n - k] for k in range(n)]
        content = math.gcd(*q)
        q = [c // content for c in q]
    return True


def _no_zero_in_open_disk(cs: Sequence[int]) -> bool:
    """The exact decision for p given as ints cs = d p, d != 0.  A p that
    passes the strict Schur-Cohn test has no zero in the closed disk.  Else
    g = gcd(p, p*), by Euclid on primitive pseudo-remainders (G. E.
    Collins, J. ACM 14, 1967), takes every zero on the circle, to its full
    multiplicity (p* vanishes at 1/conj z = z there), and every reciprocal
    pair r, 1/r, so the cofactor, the pseudo-quotient (a multiple of p/g),
    must pass the strict test.  g, its zeros closed under z -> 1/z, is
    self-inversive, so by A. Cohn's theorem (Math. Z. 14, 1922) they all
    lie on |z| = 1 iff those of g' lie in |z| <= 1, that is iff the
    reversed g' (constant term n g_n != 0) has none in the open disk."""
    while not _schur_stable(cs):
        g, b = cs, cs[::-1]
        while b != [0]:
            r = _pseudo_divmod(g, b)[1]
            g, b = b, [c // (math.gcd(*r) or 1) for c in r]
        if len(g) == 1 or not _schur_stable(_pseudo_divmod(cs, g)[0]):  # p/1 = p failed the test
            return False
        cs = [k * g[k] for k in range(len(g) - 1, 0, -1)]
    return True


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
    denominator, and the gcd / Schur-Cohn / Cohn decision over the same
    ints otherwise.  A caller that holds p as ints passes lifted = (d, N),
    any d > 0 with N = d p, and p is then not read at all.

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
    return _no_zero_in_open_disk(ns)
