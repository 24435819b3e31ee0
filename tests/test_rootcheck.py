"""Disk nonvanishing gate: closed-form cases, boundary behavior, and
agreement with the exact Schur-Cohn zero count."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import inside_unit_count, sign_test_by_fractions
from ucv.rootcheck import UnitPolynomial, min_root_modulus, nonvanishing_in_open_disk

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
    # (1+z)^2: numpy alone locates the double root only to ~sqrt(eps);
    # the exact path must return exactly 1.0
    assert min_root_modulus([1, 2, 1]) == 1.0
    assert nonvanishing_in_open_disk([1, 2, 1])


def test_boundary_two_factor_family():
    for lam in (F(1, 4), F(1, 2), F(1)):
        coeffs = [1, 1 + lam, lam]  # (1+z)(1+lam z)
        assert min_root_modulus(coeffs) == 1.0
        assert nonvanishing_in_open_disk(coeffs)


def test_quadruple_with_double_circle_root():
    # (1+z)^2 (1 - z/5 + z^2/10): the facet point b = (1.8, 0.7, 0, 0.1);
    # the inner quadratic has |z| = sqrt(10), so the minimum is exactly 1
    coeffs = [1, F(9, 5), F(7, 10), 0, F(1, 10)]
    assert min_root_modulus(coeffs) == 1.0
    assert nonvanishing_in_open_disk(coeffs)


def test_fourfold_inside_root_via_squarefree():
    # (1 + z/2)^4: a 4-fold root at -2, hopeless for plain eigenvalues
    coeffs = [1, 2, F(3, 2), F(1, 2), F(1, 16)]
    assert min_root_modulus(coeffs) == 2.0


def test_double_root_off_circle_is_exact():
    # (1 + z/2)^2; the square-free quotient arrives with a non-unit
    # constant term, which the closed forms must handle
    assert min_root_modulus([1, 1, F(1, 4)]) == 2.0
    # same shape, root inside
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
    import numpy as np

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
        expected = min_root_modulus(coeffs) >= 1 - 1e-9
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
    # each case is decided by an integer comparison, never by roots
    monkeypatch.setattr("ucv.rootcheck.min_root_modulus", lambda p: pytest.fail("root finder reached"))
    assert nonvanishing_in_open_disk(coeffs) is expected
    quotient = _divide_out_unit_roots(coeffs)
    if _away_from_circle(quotient):
        assert (inside_unit_count(quotient) == 0) is expected
