"""Disk nonvanishing gate: closed-form cases, boundary behavior, and
agreement with the exact Schur-Cohn zero count."""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import inside_unit_count, sign_test_by_fractions
from ucv.rootcheck import UnitPolynomial, _no_zero_in_open_disk, min_root_modulus, nonvanishing_in_open_disk

F = Fraction


def test_unit_polynomial_normalization():
    p = UnitPolynomial.from_coeffs((1, F(1, 2), 0, 0))
    assert p.coeffs == (F(1), F(1, 2))
    assert p.degree == 1
    # floats widen by their decimal text
    assert UnitPolynomial.from_coeffs((1, 0.5)).coeffs == (F(1), F(1, 2))
    with pytest.raises(ValueError):
        UnitPolynomial.from_coeffs((2, 1))
    with pytest.raises(ValueError):
        UnitPolynomial.from_coeffs(())


def test_degree_zero_has_no_roots():
    assert min_root_modulus([1]) == math.inf
    assert nonvanishing_in_open_disk([1])


def test_linear_closed_form():
    assert min_root_modulus([1, 2]) == 0.5
    assert min_root_modulus([1, F(1, 2)]) == 2.0
    assert min_root_modulus([1, 1]) == 1.0  # root exactly on the circle
    assert not nonvanishing_in_open_disk([1, 2])
    assert nonvanishing_in_open_disk([1, 1])


def test_quadratic_real_pair():
    # 1 + (3/2)z + (1/4)z^2 has a root at -(3 - sqrt(5)), inside
    m = min_root_modulus([1, F(3, 2), F(1, 4)])
    assert m == pytest.approx(3 - math.sqrt(5), rel=1e-14)
    assert not nonvanishing_in_open_disk([1, F(3, 2), F(1, 4)])


def test_quadratic_complex_pair():
    # conjugate pair with |z|^2 = 1/c2
    assert min_root_modulus([1, 1, F(1, 2)]) == pytest.approx(math.sqrt(2), rel=1e-14)
    assert nonvanishing_in_open_disk([1, 1, F(1, 2)])


def test_cubic_modulus():
    # 1 + z^3/2: three roots of modulus 2^(1/3)
    assert min_root_modulus([1, 0, 0, F(1, 2)]) == pytest.approx(2 ** (1 / 3), rel=1e-12)


def test_double_root_on_circle_is_exact():
    # (1+z)^2: a double zero on the circle is admitted
    assert nonvanishing_in_open_disk([1, 2, 1])


def test_boundary_two_factor_family():
    for lam in (F(1, 4), F(1, 2), F(1)):
        coeffs = [1, 1 + lam, lam]  # (1+z)(1+lam z)
        assert nonvanishing_in_open_disk(coeffs)


def test_quadruple_with_double_circle_root():
    # (1+z)^2 (1 - z/5 + z^2/10): the facet point b = (1.8, 0.7, 0, 0.1);
    # the inner quadratic has |z| = sqrt(10), so no zero is inside
    coeffs = [1, F(9, 5), F(7, 10), 0, F(1, 10)]
    assert nonvanishing_in_open_disk(coeffs)


def test_fourfold_root_verdicts():
    # (1 + z/2)^4, a 4-fold zero at -2, and (1 + 2z)^4, at -1/2: both are
    # past the tail budget, so the exact routine decides
    assert nonvanishing_in_open_disk([1, 2, F(3, 2), F(1, 2), F(1, 16)])
    assert not nonvanishing_in_open_disk([1, 8, 24, 32, 16])


def test_double_root_off_circle_is_exact():
    # (1 + z/2)^2 with its double zero outside, (1 + 2z)^2 inside
    assert min_root_modulus([1, 1, F(1, 4)]) == 2.0
    assert nonvanishing_in_open_disk([1, 1, F(1, 4)])
    assert min_root_modulus([1, 4, 4]) == 0.5
    assert not nonvanishing_in_open_disk([1, 4, 4])


def test_negative_value_on_real_axis_rejects():
    # p(-1) < 0 forces a real root inside; decided without eigenvalues
    assert not nonvanishing_in_open_disk([1, 2, 0, 0, 0])
    # p(1) < 0 likewise
    assert not nonvanishing_in_open_disk([1, -3, 1])


def test_positive_sum_shortcut():
    # nonnegative coefficients with sum <= 1 never vanish on the disk
    assert nonvanishing_in_open_disk([1, F(1, 3), F(1, 3), F(1, 3)])


def test_known_product_of_rational_roots():
    # (1 - z/2)(1 + z/3)(1 - 2z/5): roots 2, -3, 5/2
    coeffs = [
        1,
        F(-1, 2) + F(1, 3) + F(-2, 5),
        F(-1, 2) * F(1, 3) + F(-1, 2) * F(-2, 5) + F(1, 3) * F(-2, 5),
        F(-1, 2) * F(1, 3) * F(-2, 5),
    ]
    assert min_root_modulus(coeffs) == pytest.approx(2.0, rel=1e-12)
    assert nonvanishing_in_open_disk(coeffs)


small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@st.composite
def budget_polynomials(draw):
    """1 + b1 z + ... + b_d z^d with signed b, degree 2..9 and tail budget
    sum_{n>=2} (n-1)|b_n| <= 1, where the gate decides by the signs of
    p(+-1) alone; half of them lie on the facet p(-1) = 0."""
    d = draw(st.integers(min_value=2, max_value=9))
    tail = draw(st.lists(small_fraction, min_size=d - 1, max_size=d - 1).filter(lambda t: t[-1] != 0))
    budget = sum((n - 1) * abs(c) for n, c in enumerate(tail, start=2))
    scale = draw(st.fractions(min_value=0, max_value=1, max_denominator=8).filter(bool)) / budget
    tail = [c * scale for c in tail]
    if draw(st.booleans()):
        b1 = 1 + sum((-1) ** n * c for n, c in enumerate(tail, start=2))
    else:
        b1 = draw(st.fractions(min_value=-3, max_value=3, max_denominator=8))
    return [F(1), b1] + tail


def _divide_out_unit_roots(coeffs):
    """coeffs / ((1 + z)^m (1 - z)^k), exactly: those zeros sit on the
    circle, so the quotient has the same zeros inside the disk."""
    cs = list(coeffs)
    for r in (-1, 1):
        while len(cs) > 1 and sum(c * r**k for k, c in enumerate(cs)) == 0:
            # synthetic division by (z - r), from the top coefficient down
            q = [F(0)] * (len(cs) - 1)
            acc = F(0)
            for k in range(len(cs) - 1, 0, -1):
                acc = cs[k] + acc * r
                q[k - 1] = acc
            cs = q
    return cs


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.lists(small_fraction, min_size=1, max_size=6).map(lambda t: [F(1)] + t),
                 budget_polynomials()))
def test_gate_agrees_with_schur_cohn(coeffs):
    quotient = _divide_out_unit_roots(coeffs)
    if not _away_from_circle(quotient):
        return  # the count oracle needs a circle-free polynomial
    inside = inside_unit_count(quotient)
    assert nonvanishing_in_open_disk(coeffs) == (inside == 0)


def _away_from_circle(coeffs, band=1e-6) -> bool:
    desc = [float(c) for c in reversed(coeffs)]
    while len(desc) > 1 and desc[0] == 0.0:
        desc.pop(0)
    if len(desc) == 1:
        return True
    return bool(np.all(np.abs(np.abs(np.roots(desc)) - 1.0) > band))


def test_scaling_moves_the_minimum():
    # p(z) -> p(z/2) doubles every root
    rng = random.Random(3)
    for _ in range(25):
        coeffs = [F(1)] + [F(rng.randrange(-8, 9), 8) for _ in range(rng.randrange(1, 6))]
        m = min_root_modulus(coeffs)
        if not math.isfinite(m):
            continue
        scaled = [c / F(2) ** k for k, c in enumerate(coeffs)]
        assert min_root_modulus(scaled) == pytest.approx(2 * m, rel=1e-9)


# -- the integer sign test against its Fraction reference ---------------------

mixed_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=97)


@st.composite
def sign_test_polynomials(draw):
    """1 + b1 z + ... with signed b of mixed denominators, often on the
    boundary of one of the gate's integer comparisons: tail budget exactly
    1, coefficient sum exactly 1, p(-1) = 0 or p(1) = 0."""
    deg = draw(st.integers(min_value=1, max_value=7))
    tail = draw(st.lists(mixed_fraction, min_size=deg - 1, max_size=deg - 1))
    edge = draw(st.sampled_from(("free", "sum", "p(-1)", "p(1)")))
    if edge == "sum":
        tail = [abs(c) for c in tail]
    budget = sum((n - 1) * abs(c) for n, c in enumerate(tail, start=2))
    if budget and (edge == "sum" or draw(st.booleans())):
        tail = [c / budget for c in tail]
    if edge == "sum":  # the tail sums to <= its budget = 1
        b1 = 1 - sum(tail)
    elif edge == "p(-1)":
        b1 = 1 + sum((-1) ** n * c for n, c in enumerate(tail, start=2))
    elif edge == "p(1)":
        b1 = -(1 + sum(tail))
    else:
        b1 = draw(mixed_fraction)
    return [F(1), b1] + tail


@settings(deadline=None, max_examples=400)
@given(sign_test_polynomials())
def test_integer_gate_matches_fraction_sign_test(coeffs):
    expected = sign_test_by_fractions(coeffs)
    if expected is None:
        expected = _no_zero_in_open_disk(coeffs)
    assert nonvanishing_in_open_disk(coeffs) == expected


EPS = F(1, 10**12)


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        # nonnegative, coefficient sum exactly 1, tail budget 7/3 and p(-1) = 0
        ([1, F(1, 4), 0, F(1, 3), 0, F(5, 12)], True),
        # p(-1) = 0 with tail budget 3/7 + 2 (2/7) = 1 exactly, and just past p(-1) = 0
        ([1, F(12, 7), F(3, 7), F(-2, 7)], True),
        ([1, F(12, 7) + EPS, F(3, 7), F(-2, 7)], False),
        # p(1) = 0 with tail budget 1/3 + 2 (1/3) = 1 exactly, and just past p(1) = 0
        ([1, -1, F(-1, 3), F(1, 3)], True),
        ([1, -1 - EPS, F(-1, 3), F(1, 3)], False),
        # both ends positive, tail budget exactly 1 with mixed denominators
        ([1, F(1, 5), F(-1, 2), F(1, 12), F(1, 9)], True),
    ],
)
def test_sign_test_boundaries(monkeypatch, coeffs, expected):
    assert sign_test_by_fractions(coeffs) is expected
    # each case is decided by an integer comparison, never by the exact routine
    monkeypatch.setattr("ucv.rootcheck._no_zero_in_open_disk", lambda p: pytest.fail("exact routine reached"))
    assert nonvanishing_in_open_disk(coeffs) is expected
    quotient = _divide_out_unit_roots(coeffs)
    if _away_from_circle(quotient):
        assert (inside_unit_count(quotient) == 0) is expected


# -- exact decisions on zeros on or near the circle -----------------------

# factors with their number of zeros in |z| < 1: zeros at +-1, circle
# pairs (1 + 6z/5 + z^2 at cos t = -3/5), the reciprocal pair -2, -1/2 of
# 1 + 5z/2 + z^2, and factors with zeros strictly inside or outside
CIRCLE_FACTORS = [
    ([1, 1], 0), ([1, -1], 0), ([1, 0, 1], 0), ([1, 1, 1], 0), ([1, -1, 1], 0),
    ([1, 0, 0, 1], 0), ([1, F(6, 5), 1], 0), ([1, F(5, 2), 1], 1), ([1, F(1, 2)], 0),
    ([1, 3], 1), ([1, 0, F(1, 4)], 0), ([1, 1, F(5, 4)], 2), ([1, F(-7, 3)], 1),
    ([1, F(1, 3), F(1, 7)], 0),
]


def _times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("first", range(len(CIRCLE_FACTORS)))
def test_exact_verdict_on_factor_products(monkeypatch, first):
    """Every product of 1 to 4 factors, repeats allowed, whose first factor
    is CIRCLE_FACTORS[first], gets the verdict of its known inside count
    with no float: numpy.roots, min_root_modulus and mpmath all fail."""
    def blocked(*args):
        pytest.fail("float root finder reached")

    monkeypatch.setattr(np, "roots", blocked)
    monkeypatch.setattr("ucv.rootcheck.min_root_modulus", blocked)
    monkeypatch.setitem(sys.modules, "mpmath", None)
    for k in range(4):
        for rest in itertools.combinations_with_replacement(range(first, len(CIRCLE_FACTORS)), k):
            coeffs, inside = [F(1)], 0
            for i in (first,) + rest:
                coeffs = _times(coeffs, CIRCLE_FACTORS[i][0])
                inside += CIRCLE_FACTORS[i][1]
            assert nonvanishing_in_open_disk(coeffs) == (inside == 0), coeffs
