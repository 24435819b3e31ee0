"""Exact series arithmetic: frozen values plus algebraic properties.

Frozen expectations were computed by hand or by an independent oracle
(geometric-sum reciprocal, Lagrange inversion) before being written
down; the property section then pits the implementation against those
oracles on random inputs.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exp_zero, reciprocal_by_geometric, revert_by_lagrange
from ucv.series import TruncatedSeries, series_from_polynomial

F = Fraction


def S(*coeffs) -> TruncatedSeries:
    return TruncatedSeries(tuple(F(c) for c in coeffs))


# -- construction and bookkeeping -----------------------------------------


def test_constructors():
    assert TruncatedSeries.one(3).coeffs == (F(1), F(0), F(0), F(0))
    assert TruncatedSeries.zero(0).coeffs == (F(0),)
    assert TruncatedSeries.identity(2).coeffs == (F(0), F(1), F(0))
    assert TruncatedSeries.constant("3/4", 1).coeffs == (F(3, 4), F(0))
    assert S(1, 2).order == 1


def test_constructor_rejections():
    with pytest.raises(ValueError):
        TruncatedSeries(())
    with pytest.raises(ValueError):
        TruncatedSeries.identity(0)
    with pytest.raises(ValueError):
        TruncatedSeries.constant(1, -1)
    assert TruncatedSeries((F(1), 0.5)).coeffs == (F(1), F(1, 2))  # a float means its decimal text
    with pytest.raises(TypeError):
        TruncatedSeries((F(1), None))


@pytest.mark.parametrize("raw, want", [
    ([F(1), F(1, 2)], (F(1), F(1, 2))),
    ((1, -2), (F(1), F(-2))),
    ((0.5, 0.1), (F(1, 2), F(1, 10))),
    (("1/3", "2"), (F(1, 3), F(2))),
    ((True, False), (F(1), F(0))),
], ids=["list", "ints", "floats", "strings", "bools"])
def test_series_stores_a_tuple_of_exact_fractions(raw, want):
    s = TruncatedSeries(raw)
    assert type(s.coeffs) is tuple
    assert all(type(c) is Fraction for c in s.coeffs)
    assert s.coeffs == want


def test_series_keeps_the_fractions_it_is_given():
    given_coeffs = (F(1), F(2, 3), F(-5, 7))
    kept = TruncatedSeries(given_coeffs).coeffs
    assert len(kept) == 3 and all(k is c for k, c in zip(kept, given_coeffs))


def test_coefficient_range_checked():
    s = S(1, 2, 3)
    assert s.coefficient(2) == 3
    with pytest.raises(IndexError):
        s.coefficient(3)
    with pytest.raises(IndexError):
        s.coefficient(-1)


def test_truncate_only_down():
    s = S(1, 2, 3)
    assert s.truncate(1).coeffs == (F(1), F(2))
    with pytest.raises(ValueError):
        s.truncate(5)


def test_from_polynomial_pads_and_cuts():
    assert series_from_polynomial((1, 2), 3).coeffs == (F(1), F(2), F(0), F(0))
    assert series_from_polynomial((1, 2, 3, 4), 1).coeffs == (F(1), F(2))


def test_mul_truncates_to_least_informed():
    # order-1 times order-3 only justifies coefficients through z^1
    assert (S(1, 1) * S(1, 0, 0, 5)).order == 1


def test_str_rendering():
    assert str(S(1, 0, F(-2, 3))) == "1 + -2/3*z^2 + O(z^3)"
    assert str(TruncatedSeries.zero(0)) == "0 + O(z^1)"
    assert str(S(0, 1)) == "1*z + O(z^2)"


# -- frozen operation values ----------------------------------------------


def test_reciprocal_square():
    # 1/(1+z)^2 = 1 - 2z + 3z^2 - 4z^3 + ...
    s = series_from_polynomial((1, 2, 1), 3)
    assert s.reciprocal().coeffs == (F(1), F(-2), F(3), F(-4))


def test_reciprocal_two_factor_denominator():
    # 1/((1+z)(1+z/2)) matches the expansion of z/f for b = (3/2, 1/2)
    s = series_from_polynomial(("1", "3/2", "1/2"), 3)
    assert s.reciprocal().coeffs == (F(1), F(-3, 2), F(7, 4), F(-15, 8))


def test_reciprocal_requires_unit():
    with pytest.raises(ValueError):
        S(2, 1).reciprocal()


def test_revert_koebe_gives_catalan():
    # z/(1+z)^2 = z - 2z^2 + 3z^3 - ...; its inverse carries the Catalan
    # numbers 1, 2, 5, 14
    s = S(0, 1, -2, 3, -4)
    assert s.revert().coeffs == (F(0), F(1), F(2), F(5), F(14))


def test_revert_quadratic_gives_signed_catalan():
    s = series_from_polynomial((0, 1, 1), 5)
    assert s.revert().coeffs == (F(0), F(1), F(-1), F(2), F(-5), F(14))


def test_revert_preconditions():
    with pytest.raises(ValueError):
        S(1, 1).revert()
    with pytest.raises(ValueError):
        S(0, 2).revert()


def test_log_unit_frozen():
    s = S(1, 2, 5, 14)
    assert s.log_unit().coeffs == (F(0), F(2), F(3), F(20, 3))
    with pytest.raises(ValueError):
        S(0, 1).log_unit()


def test_exp_zero_rejects_constant():
    with pytest.raises(ValueError):
        exp_zero(S(1, 1))


def test_compose_requires_zero_inner():
    with pytest.raises(ValueError):
        S(1, 1).compose(S(1, 1))


def test_derivative():
    assert S(5, 1, 3).derivative().coeffs == (F(1), F(6))
    # nothing is known past the constant, so nothing about f' either
    assert S(7).derivative().coeffs == (F(0),)


# -- properties against independent oracles -------------------------------

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def unit_series(draw, order):
    tail = draw(st.lists(fractions_st, min_size=order, max_size=order))
    return TruncatedSeries((F(1),) + tuple(tail))


def zero_linear_series(draw, order):
    tail = draw(st.lists(fractions_st, min_size=order - 1, max_size=order - 1))
    return TruncatedSeries((F(0), F(1)) + tuple(tail))


unit_st = st.integers(min_value=3, max_value=7).flatmap(
    lambda n: st.builds(
        lambda tail: TruncatedSeries((F(1),) + tuple(tail)),
        st.lists(fractions_st, min_size=n, max_size=n),
    )
)
invertible_st = st.integers(min_value=3, max_value=7).flatmap(
    lambda n: st.builds(
        lambda tail: TruncatedSeries((F(0), F(1)) + tuple(tail)),
        st.lists(fractions_st, min_size=n - 1, max_size=n - 1),
    )
)
any_st = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.builds(
        lambda cs: TruncatedSeries(tuple(cs)),
        st.lists(fractions_st, min_size=n + 1, max_size=n + 1),
    )
)


@settings(deadline=None)
@given(unit_st)
def test_reciprocal_is_inverse_and_matches_oracle(s):
    n = s.order
    assert s * s.reciprocal() == TruncatedSeries.one(n)
    assert s.reciprocal() == reciprocal_by_geometric(s)
    assert s.reciprocal().reciprocal() == s


@settings(deadline=None)
@given(invertible_st)
def test_revert_round_trip_and_lagrange(s):
    g = s.revert()
    ident = TruncatedSeries.identity(s.order)
    assert s.compose(g) == ident
    assert g.compose(s) == ident
    assert g == revert_by_lagrange(s)
    assert g.revert() == s


@settings(deadline=None)
@given(unit_st, unit_st)
def test_log_turns_products_into_sums(s, t):
    n = min(s.order, t.order)
    lhs = (s * t).log_unit()
    rhs = s.truncate(n).log_unit() + t.truncate(n).log_unit()
    assert lhs == rhs


@settings(deadline=None)
@given(unit_st)
def test_exp_log_round_trip(s):
    assert exp_zero(s.log_unit()) == s


@settings(deadline=None)
@given(any_st, any_st, any_st)
def test_ring_identities(a, b, c):
    n = min(a.order, b.order, c.order)
    a, b, c = a.truncate(n), b.truncate(n), c.truncate(n)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == TruncatedSeries.zero(n)
    assert a.scale(-1) == -a


@settings(deadline=None)
@given(any_st, any_st)
def test_derivative_product_rule(a, b):
    n = min(a.order, b.order)
    if n == 0:
        return
    a, b = a.truncate(n), b.truncate(n)
    lhs = (a * b).derivative()
    rhs = a.derivative() * b.truncate(n - 1) + a.truncate(n - 1) * b.derivative()
    assert lhs == rhs
