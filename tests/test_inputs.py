"""The input contract: every number goes through one coercion
(rootcheck.as_rational) and every lambda through one range check
(model.lambda_in_range), whichever entry point receives it."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ucv.model import NonMember, extremal_catalog, lambda_in_range, validate
from ucv.rootcheck import UnitPolynomial
from ucv.search import SearchConfig, closed_form_bound, conjecture_scan, optimize, verify_bounds
from ucv.series import TruncatedSeries, series_from_polynomial

F = Fraction
CHEAP = SearchConfig(grid_step=F(1, 10), refine_rounds=0)

TAKES_LAMBDA = {
    "validate": lambda lam: validate(lam, (F(1, 2),)),
    "extremal_catalog": lambda lam: extremal_catalog("FLambda", lam),
    "closed_form_bound": lambda lam: closed_form_bound("A3", lam, "max"),
    "optimize": lambda lam: optimize("H2F", lam, "max", CHEAP),
    "verify_bounds": lambda lam: verify_bounds([lam], CHEAP),
    "conjecture_scan": lambda lam: conjecture_scan(3, lam, CHEAP),
}

COERCES = {
    "TruncatedSeries": lambda x: TruncatedSeries((F(1), x)).coeffs[1],
    "series_from_polynomial": lambda x: series_from_polynomial((1, x), 3).coeffs[1],
    "UnitPolynomial": lambda x: UnitPolynomial.from_coeffs((1, x)).coeffs[1],
    "validate b": lambda x: validate(1, (x,)).b[0],
    "SearchConfig.grid_step": lambda x: SearchConfig(grid_step=x).grid_step,
}


@pytest.mark.parametrize("entry", TAKES_LAMBDA)
def test_every_spelling_of_a_quarter_is_one_lambda(entry):
    call = TAKES_LAMBDA[entry]
    exact = call(F(1, 4))
    assert [call(x) for x in (0.25, "0.25", "1/4")] == [exact] * 3
    assert exact != call(F(1, 2))  # the result depends on lambda, so the equality is not vacuous


@pytest.mark.parametrize("lam", [0, F(3, 2), -1], ids=["zero", "three-halves", "minus-one"])
@pytest.mark.parametrize("entry", TAKES_LAMBDA)
def test_lambda_outside_the_class_is_a_nonmember(entry, lam):
    with pytest.raises(NonMember) as info:
        TAKES_LAMBDA[entry](lam)
    assert info.value.reason == "lambda out of range"


@pytest.mark.parametrize("entry", COERCES)
def test_a_float_means_its_decimal_text(entry):
    assert COERCES[entry](0.1) == F(1, 10)


@pytest.mark.parametrize("entry", COERCES)
def test_none_is_not_a_number(entry):
    with pytest.raises(TypeError):
        COERCES[entry](None)


@pytest.mark.parametrize("lam", [F(1), F(1, 10**18)], ids=["one", "tiny"])
def test_lambda_in_range_keeps_both_ends_of_the_class(lam):
    assert lambda_in_range(lam) is lam


@pytest.mark.parametrize("lam", [F(0), F(-1, 3), F(10**18 + 1, 10**18)],
                         ids=["zero", "negative", "just-above-one"])
def test_lambda_in_range_rejects_just_outside_the_class(lam):
    with pytest.raises(NonMember) as info:
        lambda_in_range(lam)
    assert info.value.reason == "lambda out of range"
