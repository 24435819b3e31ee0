"""Unit-disk nonvanishing test for real polynomials with p(0) = 1.

The primary question: does 1 + p_1 z + ... + p_d z^d have a zero inside
the open unit disk?  Membership checks admit zeros ON the circle (the
sharp extremal denominators all have one).

When the tail budget sum_{n>=2} (n-1)|p_n| is at most 1 the answer is
exact: p has no zero in the open disk iff p(-1) >= 0 and p(1) >= 0 (the
proof is at nonvanishing_in_open_disk).  Every denominator of the class
has such a budget, so membership never reaches a root finder, and the
test compares ints: the coefficients' numerators over their lcm.

Any other polynomial is decided as min |root| >= 1 - 1e-9, with a small
one-sided tolerance.  Method: companion-matrix eigenvalues (numpy.roots)
as the generic path.  Eigenvalues lose accuracy on multiple or clustered
roots (a k-fold root is only located to eps^(1/k)), so whenever the
answer is ambiguous near the circle, or a root cluster is detected, the
polynomial is re-examined exactly: coefficients are kept as Fractions,
rational roots at +-1 are deflated symbolically, the square-free part is
extracted by exact gcd, and only genuinely close simple roots fall
through to high-precision iteration (mpmath).  Degrees 1 and 2 are
always resolved by closed formulas with the discriminant sign computed
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

# one-sided tolerance of the scalar decision: min |root| >= 1 - _TOL
_TOL = 1e-9

# |min modulus - 1| below this triggers the exact re-examination
_NEAR_UNIT_BAND = 1e-3
# two numerical roots closer than this count as a cluster; a k-fold root
# smears eigenvalues by ~eps^(1/k) (already 1e-4 at k=4, 2e-3 at k=6), so
# the band errs generous at the price of an occasional exact re-check
_CLUSTER_SEP = 1e-2

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


# -- exact polynomial helpers (ascending Fraction lists) ----------------


def _eval_at(cs: list[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _deflate(cs: list[Fraction], root: int) -> list[Fraction]:
    """Exact synthetic division by (z - root); remainder must be zero."""
    out: list[Fraction] = [Fraction(0)] * (len(cs) - 1)
    acc = Fraction(0)
    for k in range(len(cs) - 1, 0, -1):
        acc = cs[k] + acc * root
        out[k - 1] = acc
    assert _eval_at(cs, root) == 0
    return out


def _poly_derivative(cs: list[Fraction]) -> list[Fraction]:
    return [Fraction(k) * cs[k] for k in range(1, len(cs))]


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    while len(r) - 1 >= db and r:
        if r[-1] == 0:
            r.pop()
            continue
        q = r[-1] / lead
        shift = len(r) - 1 - db
        for j in range(db + 1):
            r[shift + j] -= q * b[j]
        r.pop()
    while len(r) > 1 and r[-1] == 0:
        r.pop()
    return r if r else [Fraction(0)]


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    x, y = list(a), list(b)
    while len(y) > 1 or y[0] != 0:
        x, y = y, _poly_mod(x, y)
    lead = x[-1]
    return [c / lead for c in x]


def _poly_div_exact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    db = len(b) - 1
    q = [Fraction(0)] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[db + k] / b[-1]
        q[k] = c
        if c:
            for j in range(db + 1):
                r[k + j] -= c * b[j]
    assert all(c == 0 for c in r)
    return q


def _squarefree_part(cs: list[Fraction]) -> list[Fraction]:
    if len(cs) <= 2:
        return list(cs)
    g = _poly_gcd(cs, _poly_derivative(cs))
    if len(g) == 1:
        return list(cs)
    return _poly_div_exact(cs, g)


# -- modulus computations ----------------------------------------------


def _small_degree_modulus(cs: list[Fraction]) -> float:
    """Exact-discriminant closed forms for degree 1 and 2.

    Deflation and square-free reduction do not keep the constant term at
    1, so the general c0 appears throughout.
    """
    c0 = cs[0]
    if len(cs) == 2:
        return abs(float(c0 / cs[1]))
    c1, c2 = cs[1], cs[2]
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        # conjugate pair, |z|^2 = c0/c2 (positive whenever disc < 0)
        return math.sqrt(float(c0 / c2))
    c1f, c2f = float(c1), float(c2)
    s = math.sqrt(float(disc))
    q = -(c1f + math.copysign(s, c1f)) / 2.0 if c1f != 0 else -s / 2.0
    if q == 0:
        # c1 = 0 and disc = 0 force c0 c2 = 0; both are nonzero at the
        # call sites (trailing strip, nonzero constant), so unreachable
        return math.inf
    # stable Vieta split: roots q/c2 and c0/q
    return min(abs(q / c2f), abs(float(c0) / q))


def _has_cluster(roots: np.ndarray) -> bool:
    gaps = np.abs(roots[:, None] - roots[None, :])
    return bool((gaps[np.triu_indices(len(roots), 1)] < _CLUSTER_SEP).any())


def _mp_min_modulus(cs: list[Fraction]) -> float:
    import mpmath as mp

    with mp.workdps(60):
        desc = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in reversed(cs)]
        roots = mp.polyroots(desc, maxsteps=400, extraprec=200)
        return float(min(abs(r) for r in roots))


def _exact_min_modulus(cs: list[Fraction]) -> float:
    """Careful path: symbolic +-1 deflation, exact square-free reduction,
    closed forms or high precision on what remains."""
    work = list(cs)
    found_unit = False
    changed = True
    while changed and len(work) > 1:
        changed = False
        for r in (-1, 1):
            while len(work) > 1 and _eval_at(work, r) == 0:
                work = _deflate(work, r)
                found_unit = True
                changed = True
    best = 1.0 if found_unit else math.inf
    if len(work) == 1:
        return best
    work = _squarefree_part(work)
    if len(work) <= 3:
        return min(best, _small_degree_modulus(work))
    roots = np.roots([float(c) for c in reversed(work)])
    if _has_cluster(roots):
        return min(best, _mp_min_modulus(work))
    return min(best, float(np.abs(roots).min()))


def min_root_modulus(p: Union[UnitPolynomial, Sequence[RationalIn]]) -> float:
    """Smallest |root| of p, +inf for degree 0.

    Accurate to ~1e-12 relative even at multiple roots, thanks to the
    exact fallback path; cheap closed forms handle degrees 1 and 2.
    """
    up = _as_unit(p)
    cs = list(up.coeffs)
    if up.degree == 0:
        return math.inf
    if up.degree <= 2:
        return _small_degree_modulus(cs)
    roots = np.roots([float(c) for c in reversed(cs)])
    m = float(np.abs(roots).min())
    if abs(m - 1.0) <= _NEAR_UNIT_BAND or _has_cluster(roots):
        return _exact_min_modulus(cs)
    return m


def nonvanishing_in_open_disk(p: Union[UnitPolynomial, Sequence[RationalIn]],
                              lifted: tuple[int, tuple[int, ...]] | None = None) -> bool:
    """True when p has no zero in the open unit disk; zeros on the circle
    pass.  Exact when the tail budget sum_{n>=2} (n-1)|p_n| is <= 1, as on
    every class denominator; otherwise min |root| >= 1 - 1e-9.  A caller
    that holds p as ints passes lifted = (d, N), any d > 0 with N = d p,
    and saves re-reading p; p itself is then read only by the root finder.

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
    return min_root_modulus(p) >= 1.0 - _TOL
