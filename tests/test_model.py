"""Membership gates, closed-form functionals vs series oracles, the
extremal catalog, and report serialization."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ucv.model
import ucv.rootcheck
from oracles import (
    EXPANSIONS,
    an_coefficient_by_recursion,
    hankel2_from,
    hankel3_from,
    random_member,
    reciprocal_by_geometric,
    revert_by_lagrange,
    u_residual,
)
from ucv.cli import REPORT_FIELDS, decimal_str
from ucv.model import (
    _Coefficients,
    _integer_monomials,
    _monomial_plan,
    _Polynomial,
    _report_plan,
    AN_MAX,
    AN_MIN,
    CATALOG_NAMES,
    FUNCTIONALS,
    ClassMember,
    CoefficientReport,
    NonMember,
    an_functional,
    extremal_catalog,
    f_series,
    inverse_series,
    log_inverse_halved,
    validate,
)
from ucv.rootcheck import nonvanishing_in_open_disk, over_common_denominator
from ucv.series import TruncatedSeries, series_from_polynomial

F = Fraction


# -- membership gates ------------------------------------------------------


def test_validate_boundary_member():
    m = validate(1, (2, 1, 0, 0))
    assert m.b == (F(2), F(1), F(0), F(0))
    assert m.lam == 1
    assert m.lemma_sum() == 1


def test_validate_pads_to_four():
    assert validate("1/2", (F(1, 4),)).b == (F(1, 4), F(0), F(0), F(0))


def test_validate_accepts_decimal_strings_and_floats():
    m = validate(0.5, ("0.25", 0.25))
    assert m.b[:2] == (F(1, 4), F(1, 4))


def test_lambda_out_of_range():
    for lam in (0, -1, F(3, 2), 2):
        with pytest.raises(NonMember, match="lambda out of range"):
            validate(lam, (0,))


def test_negative_coefficient_rejected():
    with pytest.raises(NonMember, match="negative coefficient"):
        validate(1, (1, F(-1, 8)))


def test_lemma_sum_rejected():
    # weights are 0,1,2,3: b2 alone carries weight 1
    with pytest.raises(NonMember, match="lemma-sum exceeded"):
        validate(F(1, 2), (0, 1))
    with pytest.raises(NonMember, match="lemma-sum exceeded"):
        validate(1, (0, 0, 0, F(1, 2)))  # 3 * 1/2 > 1


def test_zero_in_disk_rejected():
    with pytest.raises(NonMember, match="zero in disk"):
        validate(F(1, 2), (F(3, 2), F(1, 4)))


def test_budget_boundary_is_exact_over_mixed_denominators():
    # 1/2 + 2 (1/12) + 3 (1/18) = 5/6 exactly: on the budget
    b = (F(1, 7), F(1, 2), F(1, 12), F(1, 18))
    m = validate(F(5, 6), b)
    assert m.lemma_sum() == F(5, 6)
    assert m.integer_form == (252, (36, 126, 21, 14))
    with pytest.raises(NonMember, match="lemma-sum exceeded"):
        validate(F(5, 6) - F(1, 10**12), b)


def test_boundary_roots_admitted():
    m = validate(F(1, 2), (F(3, 2), F(1, 2)))
    assert m.b[:2] == (F(3, 2), F(1, 2))


def test_empty_b_is_a_value_error():
    with pytest.raises(ValueError):
        validate(1, ())


def test_nonmember_reason_field():
    try:
        validate(1, (3,))
    except NonMember as exc:
        assert exc.reason == "zero in disk"
    else:
        pytest.fail("expected rejection")


# -- closed forms vs series routes ----------------------------------------


def member_fixtures():
    out = [extremal_catalog(name, lam)
           for name in CATALOG_NAMES
           for lam in (F(1, 10), F(1, 2), F(1))]
    rng = random.Random(11)
    out.extend(random_member(rng) for _ in range(40))
    return out


@pytest.mark.parametrize("member", member_fixtures(), ids=lambda m: f"lam={m.lam},b={m.b}")
def test_closed_forms_match_series(member):
    rep = CoefficientReport.from_member(member)

    def fields(*names):
        return tuple(rep.value(name) for name in names)

    fs = f_series(member, 5).coeffs[1:]  # a1..a5
    assert fs[0] == 1
    assert fields("a2", "a3", "a4", "a5") == tuple(fs[1:])

    inv = inverse_series(member, 5).coeffs[1:]  # A1..A5
    assert inv[0] == 1
    assert fields("A2", "A3", "A4") == tuple(inv[1:4])

    assert fields("gamma1", "gamma2", "gamma3") == log_inverse_halved(member, 3)

    h2f, h3f, h2inv, h3inv = fields("h2f", "h3f", "h2inv", "h3inv")
    assert h2f == hankel2_from(fs)
    assert h3f == hankel3_from(fs)
    assert h2inv == hankel2_from(inv)
    assert h3inv == hankel3_from(inv)
    assert h3inv == h3f - (fs[2] - fs[1] ** 2) ** 3

    a1, a2, a3, a4, a5 = fs
    assert fields("z23", "z24") == (a2 * a3 - a4, a2 * a4 - a5)


FACET_MEMBER = validate("3/4", ("1", "1/4", "1/4"))  # p(-1) = 0
WINDOW6_MEMBER = validate(1, ("1/3", "1/7", "1/11", "1/13", "1/29", "1/31"))
ROUTE_MEMBERS = member_fixtures() + [FACET_MEMBER, WINDOW6_MEMBER]
LARGE_PRIMES = (10007, 65537, 999983, 1000003, 2147483647, 2305843009213693951)


@st.composite
def coprime_members(draw):
    """Members whose b_n have large, pairwise coprime denominators, so d is
    their product; b_n <= 1/16 keeps the budget <= 15/16 < lambda = 1 and
    the coefficient sum <= 1, so every draw is a member."""
    dens = draw(st.permutations(LARGE_PRIMES))
    size = draw(st.integers(min_value=4, max_value=6))
    return validate(1, [F(draw(st.integers(min_value=0, max_value=q // 16)), q) for q in dens[:size]])


def _check_report_against_registry(member):
    rep = CoefficientReport.from_member(member)
    for fn in FUNCTIONALS:
        assert rep.value(fn.field) == fn.evaluate(member.b), fn.name


def _check_f_series_against_reciprocals(member):
    for n in range(1, 10):
        den = series_from_polynomial((F(1),) + member.b, n - 1)
        want = (F(0),) + den.reciprocal().coeffs
        assert (F(0),) + reciprocal_by_geometric(den).coeffs == want
        assert f_series(member, n).coeffs == want


@pytest.mark.parametrize("member", ROUTE_MEMBERS, ids=lambda m: f"lam={m.lam},b={m.b}")
def test_integer_report_matches_registry_over_fractions(member):
    _check_report_against_registry(member)


@pytest.mark.parametrize("member", ROUTE_MEMBERS, ids=lambda m: f"lam={m.lam},b={m.b}")
def test_integer_f_series_matches_reciprocal(member):
    # orders 1..9 include every order below the 6-entry window's length
    _check_f_series_against_reciprocals(member)


@settings(deadline=None, max_examples=60)
@given(coprime_members())
def test_integer_routes_on_large_coprime_denominators(member):
    d, ns = member.integer_form
    assert all(F(x, d) == bn for x, bn in zip(ns, member.b))
    _check_report_against_registry(member)
    _check_f_series_against_reciprocals(member)


def test_each_definition_equals_its_hand_expansion():
    # each registry row's definition over a_k, A_k and gamma_k, run over polynomials in b1..b4, is its hand expansion
    # as a polynomial, and so are its integer monomials, at every search width: the b1^4 terms of H2F's definition
    # cancel, and no cancelled term is left to raise deg, which is reached at e0 = 0, or L, the least denominator
    b = [_Polynomial({tuple(int(i == j) for j in range(4)): 1}) for i in range(4)]
    assert list(EXPANSIONS) == [fn.name for fn in FUNCTIONALS]
    for fn in FUNCTIONALS:
        want = {e: c for e, c in EXPANSIONS[fn.name](b).items() if c}
        assert {e: c for e, c in fn.evaluate(b).items() if c} == want, fn.name
        lcm, deg, terms = _integer_monomials(fn, 4)
        assert {e[1:]: F(c, lcm) for c, e in terms} == want and len(terms) == len(want), fn.name
        assert all(sum(e) == deg for _, e in terms) and min(e[0] for _, e in terms) == 0, fn.name
        assert lcm == math.lcm(*(c.denominator for c in map(F, want.values()))), fn.name
        for width in range(5, 8):
            assert sorted(_integer_monomials(fn, width)[2]) == sorted((c, e + (0,) * (width - 4)) for c, e in terms)


def test_registry_rows_share_one_derivation_per_width(monkeypatch):
    # the 16 rows at width 4 read a1..a5, A1..A5 and gamma1..gamma3 off one _Coefficients over polynomials, which
    # grows its e_k and its powers of u in place as the rows ask: e_1..e_4 each once, and the powers built from P^1
    # once, then grown for A3, A4 and A5 to 5 rows through z^4, each of their 25 entries computed once (a rebuild per
    # larger request took four builds and 54 entries, a fresh _Coefficients per row 14 builds); each row keeps the
    # (L, deg, terms) of a fresh derivation
    calls = {"e_k": 0, "builds": 0, "entries": 0}
    recursion, powers = ucv.model._reciprocal, ucv.model._denominator_powers

    def counted_recursion(b, e, count):
        before = len(e)
        out = recursion(b, e, count)
        calls["e_k"] += len(out) - before
        return out

    def counted_powers(member, count, order):
        before = [(row, len(row)) for row in getattr(member, "_powers", [])]
        out = powers(member, count, order)
        after = member._powers
        calls["builds"] += not before or after[0] is not before[0][0]  # P^1 built anew
        calls["entries"] += sum(map(len, after)) - sum(n for (row, n), now in zip(before, after) if now is row)
        return out

    ucv.model._integer_monomials.cache_clear()
    ucv.model._polynomial_coefficients.cache_clear()
    monkeypatch.setattr(ucv.model, "_reciprocal", counted_recursion)
    monkeypatch.setattr(ucv.model, "_denominator_powers", counted_powers)
    rows = [_integer_monomials(fn, 4) for fn in FUNCTIONALS]
    assert calls == {"e_k": 4, "builds": 1, "entries": 25}
    assert [len(row) for row in ucv.model._polynomial_coefficients(4)._powers] == [5] * 5
    b = [_Polynomial({tuple(int(i == j) for j in range(4)): 1}) for i in range(4)]
    for fn, (lcm, deg, terms) in zip(FUNCTIONALS, rows):
        fresh = {e: c for e, c in fn.evaluate(b).items() if c}  # a _Coefficients of its own
        assert {e[1:]: F(c, lcm) for c, e in terms} == fresh, fn.name
        assert deg == max(map(sum, fresh)) and lcm == math.lcm(*(F(c).denominator for c in fresh.values()))


@pytest.mark.parametrize("n", range(AN_MIN, AN_MAX + 1))
def test_an_monomials_are_its_definition(n):
    # AN(n) is defined as a_n, sign included: at every search width its integer monomials are that definition run over
    # polynomials, they give the reference recursion's a_n at rational points, and evaluate gives the modulus |a_n|
    fn, rng = an_functional(n), random.Random(n)
    for width in range(4, 8):
        b = [_Polynomial({tuple(int(i == j) for j in range(width)): 1}) for i in range(width)]
        want = {e: c for e, c in fn.definition(_Coefficients(b)).items() if c}
        lcm, deg, terms = _integer_monomials(fn, width)
        assert {e[1:]: F(c, lcm) for c, e in terms} == want and len(terms) == len(want), width
        for _ in range(5):
            point = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(width)]
            value = sum(F(c, lcm) * math.prod(x**k for x, k in zip(point, e[1:])) for c, e in terms)
            assert value == an_coefficient_by_recursion(point, n), (width, point)
            assert fn.evaluate(point) == abs(value)


@st.composite
def window_members(draw):
    """Random exact members over b1..b6: b1 <= 1/2 and b_n <= 1/(2n(n-1))
    for n >= 2 keep the budget below 3/4 and the coefficient sum below 1,
    so every draw is a member at lambda = 1."""
    size = draw(st.integers(min_value=1, max_value=6))
    b = [draw(st.fractions(min_value=0, max_value=F(1, 2), max_denominator=10**6))]
    b += [draw(st.fractions(min_value=0, max_value=F(1, 2 * n * (n - 1)), max_denominator=10**6))
          for n in range(2, size + 1)]
    return validate(1, b)


@settings(deadline=None, max_examples=80)
@given(st.one_of(window_members(), coprime_members(), st.randoms(use_true_random=False).map(random_member)))
def test_definitions_match_the_truncated_series_route(member):
    # every registry row and AN(n) against TruncatedSeries arithmetic, which shares no code with the definitions:
    # a_k by the reciprocal of u = z/f, A_k by back-substitution reversion and by the oracle's Lagrange formula,
    # gamma_k by log_unit of f^-1(w)/w, and the Hankel determinants from their definition
    order = AN_MAX
    u = series_from_polynomial((F(1),) + member.b, order - 1)
    f = TruncatedSeries((F(0),) + u.reciprocal().coeffs)  # a_0..a_order
    g = f.revert()
    assert g == revert_by_lagrange(f)
    a, A = f.coeffs, g.coeffs
    gamma = [c / 2 for c in TruncatedSeries(A[1:]).log_unit().coeffs]
    want = {"A2": A[2], "A3": A[3], "A4": A[4], "G1": gamma[1], "G2": gamma[2], "G3": gamma[3],
            "H2F": hankel2_from(a[1:]), "H3F": hankel3_from(a[1:]), "H2INV": hankel2_from(A[1:]),
            "H3INV": hankel3_from(A[1:]), "Z23": a[2] * a[3] - a[4], "Z24": a[2] * a[4] - a[5],
            "A2C": a[2], "A3C": a[3], "A4C": a[4], "A5C": a[5]}
    assert {fn.name: fn.evaluate(member.b) for fn in FUNCTIONALS} == want
    for n in range(AN_MIN, AN_MAX + 1):
        assert an_functional(n).evaluate(member.b) == abs(a[n]), n


def test_report_table_builds_each_monomial_from_an_earlier_one():
    # the report reads the registry's _monomial_plan at width 4, the one the edge pass reads: after d, N1..N4 each
    # monomial is an earlier one times d or one N_n, and the 32 monomials are the terms', each row's d^deg and their
    # parents
    steps, fields = _report_plan()
    rows = tuple(_integer_monomials(fn, 4) for fn in FUNCTIONALS)
    assert _monomial_plan(rows, 4)[0] is steps
    units = [tuple(int(i == v) for i in range(5)) for v in range(5)]
    monomials = list(units)
    for p, v in steps:
        assert p < len(monomials)
        monomials.append(tuple(x + y for x, y in zip(monomials[p], units[v])))
    assert len(set(monomials)) == len(monomials) == 32
    read = {e for *_, terms in rows for _, e in terms} | {(deg, 0, 0, 0, 0) for _, deg, _ in rows}
    assert set(monomials) == read | {monomials[p] for p, _ in steps} | set(units)
    for fn, (lcm, deg, terms), (field, plan_lcm, den, indexed) in zip(FUNCTIONALS, rows, fields, strict=True):
        assert (field, plan_lcm, monomials[den]) == (fn.field, lcm, (deg, 0, 0, 0, 0))
        assert tuple((c, monomials[i]) for c, i in indexed) == terms


def test_import_and_search_leave_the_report_table_unbuilt():
    # importing the CLI derives no definition; the sweep derives the registry's monomials, which the report shares,
    # but not the report's monomial plan
    code = ("import ucv.cli, ucv.model as m\n"
            "from ucv.search import SearchConfig, verify_bounds\n"
            "sizes = lambda: print(m._integer_monomials.cache_info().currsize, m._report_plan.cache_info().currsize)\n"
            "sizes()\n"
            "verify_bounds(['1/2'], SearchConfig(grid_step='1/10', refine_rounds=0))\n"
            "sizes()\n"
            "m.CoefficientReport.from_member(m.validate(1, (1,)))\n"
            "sizes()\n")
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["0 0", "16 0", "16 1"]  # the plan is built by the first report


def log_by_reversion(member, order):
    """gamma_1..gamma_order by back-substitution reversion and log_unit."""
    g = f_series(member, order + 1).revert()
    return tuple(c / 2 for c in TruncatedSeries(g.coeffs[1:]).log_unit().coeffs[1 : order + 1])


@pytest.mark.parametrize("member", ROUTE_MEMBERS, ids=lambda m: f"lam={m.lam},b={m.b}")
def test_lagrange_route_matches_reversion(member):
    for n in range(1, 10):
        assert inverse_series(member, n) == f_series(member, n).revert()
    for n in range(0, 8):
        assert log_inverse_halved(member, n) == log_by_reversion(member, n)


POWER_CALL_ORDERS = {
    "inverse first": [("inv", 5), ("log", 3), ("inv", 2), ("log", 6), ("inv", 7), ("log", 0)],
    "log first": [("log", 3), ("inv", 5), ("log", 6), ("inv", 1), ("inv", 7)],
    "descending": [("inv", 7), ("log", 6), ("inv", 3), ("log", 1), ("log", 0)],
    "ascending": [(kind, n) for n in range(1, 8) for kind in ("log", "inv")],
}


@pytest.mark.parametrize("member", ROUTE_MEMBERS, ids=lambda m: f"lam={m.lam},b={m.b}")
def test_shared_powers_do_not_depend_on_call_order(member):
    # each order starts from a fresh member, so its power rows are built
    # by the first call and regrown by the calls after it
    want = {("inv", n): f_series(member, n).revert() for n in range(1, 8)}
    want.update({("log", n): log_by_reversion(member, n) for n in range(0, 8)})
    route = {"inv": inverse_series, "log": log_inverse_halved}
    for calls in POWER_CALL_ORDERS.values():
        fresh = ClassMember(member.lam, member.b)
        for kind, n in calls:
            assert route[kind](fresh, n) == want[(kind, n)], (calls, kind, n)


def test_exact_route_builds_one_set_of_powers(monkeypatch):
    # the report's pair, A through w^5 then gamma through w^3, needs
    # P^1..P^5 to z^4 and P^1..P^3 to z^3: one pass of five rows
    member = ClassMember(F(1, 2), (F(1, 3), F(1, 5), F(1, 7), F(0)))
    passes = []
    real = ucv.model._denominator_powers

    def counted(m, count, order):
        before = getattr(m, "_powers", None)
        out = real(m, count, order)
        passes.append(getattr(m, "_powers") is not before)
        return out

    monkeypatch.setattr(ucv.model, "_denominator_powers", counted)
    inverse_series(member, 5)
    log_inverse_halved(member, 3)
    assert passes == [True, False]
    assert [len(row) for row in member._powers] == [5] * 5


def _gate_cases():
    """(lam, b) pairs: every route member, and non-members of each kind
    validate rejects (negative coefficient, lemma sum, zero in disk)."""
    cases = [(m.lam, m.b) for m in ROUTE_MEMBERS]
    cases += [(F(1), (F(1), F(-1, 8))), (F(1, 2), (F(0), F(1))), (F(1), (F(0), F(0), F(0), F(1, 2))),
              (F(1, 2), (F(3, 2), F(1, 4))), (F(1), (F(3),))]
    rng = random.Random(17)
    for _ in range(300):
        size = rng.randint(1, 6)
        cases.append((F(1), tuple(F(rng.randint(-4, 12), rng.randint(1, 12)) for _ in range(size))))
    return cases


def test_gate_verdict_from_the_cached_integer_form():
    reasons = set()
    for lam, b in _gate_cases():
        b = tuple(b) + (F(0),) * (4 - len(b))
        d, ns = ClassMember(lam, b).integer_form
        coeffs = (F(1),) + b
        verdict = nonvanishing_in_open_disk(coeffs)
        assert nonvanishing_in_open_disk(coeffs, (d, (d, *ns))) == verdict, b
        # any positive common denominator, not only the lcm
        assert nonvanishing_in_open_disk(coeffs, (3 * d, (3 * d, *(3 * x for x in ns)))) == verdict, b
        try:
            validate(lam, b)
        except NonMember as exc:
            reasons.add(exc.reason)
    assert reasons == {"negative coefficient", "lemma-sum exceeded", "zero in disk"}


def test_validate_lifts_a_member_once(monkeypatch):
    calls = []
    real = ucv.rootcheck.over_common_denominator

    def counted(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(ucv.model, "over_common_denominator", counted)
    monkeypatch.setattr(ucv.rootcheck, "over_common_denominator", counted)
    for lam, b in [(F(1), (F(2), F(1))), (F(3, 4), (F(1), F(1, 4), F(1, 4))), (F(1, 2), (F(3, 2), F(1, 4)))]:
        calls.clear()
        try:
            validate(lam, b)
        except NonMember:
            pass
        assert len(calls) == 1, (lam, b)


def test_integer_form_is_set_when_a_member_is_built():
    # a ClassMember built directly carries the (d, N) of one built through
    # validate, set when built; the field is left out of ==, hash and repr
    for lam, b in [(F(1), (F(2), F(1))), (F(1, 2), (F(1, 3), F(1, 5), F(1, 7))), (F(3, 4), ("0.25", "1/6", 0, "1/12"))]:
        member = validate(lam, b)
        direct = ClassMember(member.lam, member.b)
        assert "integer_form" in vars(direct)
        assert direct.integer_form == member.integer_form == over_common_denominator(member.b)
        assert direct == member and hash(direct) == hash(member)
        assert repr(direct) == repr(member) == f"ClassMember(lam={member.lam!r}, b={member.b!r})"


def test_inverse_series_needs_order_one():
    with pytest.raises(ValueError):
        inverse_series(validate(1, (2, 1)), 0)


@pytest.mark.parametrize("member", member_fixtures()[:12], ids=lambda m: f"lam={m.lam},b={m.b}")
def test_residual_rule(member):
    res = u_residual(member, 5).coeffs
    assert res[0] == 0
    assert res[1] == 0
    padded = member.b + (F(0), F(0))  # the stored window is b1..b4
    for n in range(2, 6):
        assert res[n] == -(n - 1) * padded[n - 1]


def test_residual_budget_equals_lemma_sum():
    m = validate(1, (2, 1, 0, 0))
    res = u_residual(m, 4).coeffs
    assert sum(-c for c in res) == m.lemma_sum()


# -- extremal catalog ------------------------------------------------------


def test_catalog_vectors():
    lam = F(2, 3)
    assert extremal_catalog("FLambda", lam).b == (1 + lam, lam, F(0), F(0))
    assert extremal_catalog("Bz2", lam).b == (F(0), lam, F(0), F(0))
    assert extremal_catalog("Bz4over3", lam).b == (F(0), F(0), F(0), lam / 3)
    assert extremal_catalog("H2UpperMix", lam).b == (1 - lam / 2, F(0), lam / 2, F(0))
    assert extremal_catalog("HalfZ3", lam).b == (F(0), F(0), lam / 2, F(0))
    assert extremal_catalog("H3LowerMix", lam).b == (F(0), lam / 2, F(0), lam / 6)


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("lam", [F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(1)])
def test_catalog_members_validate(name, lam):
    m = extremal_catalog(name, lam)
    assert isinstance(m, ClassMember)
    assert m.lemma_sum() <= lam


def test_catalog_rejections():
    with pytest.raises(KeyError):
        extremal_catalog("Nope", 1)
    with pytest.raises(NonMember):
        extremal_catalog("FLambda", 0)
    with pytest.raises(NonMember):
        extremal_catalog("FLambda", F(5, 4))


# -- reports and rendering -------------------------------------------------


def test_report_boundary_values():
    r = CoefficientReport.from_member(validate(1, (2, 1, 0, 0)))
    assert [r.value(k) for k in ("a2", "a3", "a4", "a5")] == [F(-2), F(3), F(-4), F(5)]
    assert [r.value(k) for k in ("A2", "A3", "A4")] == [F(2), F(5), F(14)]
    assert [r.value(k) for k in ("gamma1", "gamma2", "gamma3")] == [F(1), F(3, 2), F(10, 3)]
    assert [r.value(k) for k in ("h2f", "h3f", "h2inv", "h3inv")] == [F(-1), F(0), F(3), F(1)]
    assert [r.value(k) for k in ("z23", "z24")] == [F(-2), F(3)]


def test_report_gamma_on_half_lambda_boundary():
    r = CoefficientReport.from_member(validate(F(1, 2), (F(3, 2), F(1, 2))))
    assert [r.value(k) for k in ("gamma1", "gamma2", "gamma3")] == [F(3, 4), F(13, 16), F(21, 16)]


def test_report_value_accessor_and_fields():
    r = CoefficientReport.from_member(validate(1, (0, 1, 0, 0)))
    assert len(REPORT_FIELDS) == 16
    assert r.value("h2f") == F(-1)
    assert r.value("A3") == F(1)


def test_registry_names_and_fields():
    names = [fn.name for fn in FUNCTIONALS]
    assert len(set(names)) == len(names) == 16
    assert sorted(fn.field for fn in FUNCTIONALS) == sorted(REPORT_FIELDS)
    assert len(set(REPORT_FIELDS)) == 16


@pytest.mark.parametrize(
    "q,text",
    [
        (F(21, 16), "1.3125"),
        (F(1, 3), "1/3"),
        (F(-3, 8), "-0.375"),
        (F(5), "5"),
        (F(1, 10), "0.1"),
        (F(-7, 20), "-0.35"),
        (F(0), "0"),
        (F(1, 64), "0.015625"),
    ],
)
def test_decimal_str(q, text):
    assert decimal_str(q) == text
