"""Seeded inputs for the exact-route workload.

Every case is built from factors whose zeros are known, so the expected
verdict never comes from the program under test:

- linear factors 1 + c z with 0 <= c <= 1 (zero at -1/c, on or outside
  the circle) and quadratic factors 1 + u z + v z^2 with 0 < v <= 1 and
  u^2 < 4 v (a conjugate pair of modulus 1/sqrt(v) >= 1).  A product has
  nonnegative coefficients and no zero in the open disk, so it is a member
  whenever lambda covers its weighted budget;
- "facet" members carry the factor 1 + z, so p(-1) = 0 and the root gate
  takes its exact fallback;
- non-members: a negative coefficient, a budget above lambda, or a factor
  1 + c z with c > 1, which puts a zero inside the disk (with the weighted
  budget at most 1 such a case has p(-1) < 0).

The mix (KINDS, per 1,200 cases) is fixed, not drawn from the seed:

- a quarter non-members;
- of the members, the share on the facet p(-1) = 0 is the share of
  searched argmaxes that lie there in the seed commit's `verify --grid`
  output (expected/verify_grid.csv: 72 of 160 rows, 45%), so the exact
  fallback is taken about as often as the search's certificates need it;
- the three rejection reasons in equal parts.  Nothing in the repository
  weighs them; equal parts is a choice of this benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

KINDS = (
    ("interior", 495),
    ("facet", 405),
    ("negative", 100),
    ("budget", 100),
    ("disk", 100),
)


@dataclass(frozen=True)
class Case:
    kind: str
    lam: Fraction
    b: tuple[Fraction, ...]
    reason: str | None  # None for members, else the NonMember reason


def _mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _factor(rng: random.Random, room: int) -> list[Fraction]:
    """A linear or, when room >= 2, a quadratic factor."""
    den = rng.choice((2, 3, 4, 5, 6, 8, 10, 12))
    if room < 2 or rng.random() < 0.6:
        return [Fraction(1), Fraction(rng.randint(1, den), den)]
    v = Fraction(rng.randint(1, den // 2 + 1), den)
    # u^2 < 4 v keeps the pair complex, so both zeros have modulus 1/sqrt(v)
    k_max = 0
    while Fraction(k_max + 1, den) ** 2 < 4 * v:
        k_max += 1
    return [Fraction(1), Fraction(rng.randint(0, k_max), den), v]


def _budget(b: tuple[Fraction, ...]) -> Fraction:
    return sum(((n - 1) * x for n, x in enumerate(b, start=1)), Fraction(0))


def _product(rng: random.Random, head: list[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients b1..b4 of head times random good factors, with the
    weighted budget at most 1 and degree at most 4."""
    for _ in range(200):
        p = list(head)
        target = rng.randint(max(len(head) - 1, 2), 4)
        while len(p) - 1 < target:
            p = _mul(p, _factor(rng, target - (len(p) - 1)))
        b = tuple(p[1:]) + (Fraction(0),) * (5 - len(p))
        if _budget(b) <= 1:
            return b
    return tuple(head[1:]) + (Fraction(0),) * (5 - len(head))


def _lambda_over(rng: random.Random, floor: Fraction) -> Fraction:
    """A rational lambda in [floor, 1], never 0."""
    t = Fraction(rng.randint(0, 10), 10)
    lam = floor + (1 - floor) * t
    return lam if lam > 0 else Fraction(rng.randint(1, 10), 10)


def make_case(rng: random.Random, kind: str) -> Case:
    if kind in ("interior", "facet"):
        head = [Fraction(1), Fraction(1)] if kind == "facet" else [Fraction(1)]
        b = _product(rng, head)
        return Case(kind, _lambda_over(rng, _budget(b)), b, None)
    if kind == "negative":
        good = _product(rng, [Fraction(1)])
        b = list(good)
        b[rng.randrange(4)] = -Fraction(rng.randint(1, 12), 12)
        return Case(kind, _lambda_over(rng, _budget(good)), tuple(b), "negative coefficient")
    if kind == "budget":
        b = _product(rng, [Fraction(1)])
        while _budget(b) == 0:
            b = _product(rng, [Fraction(1), Fraction(0), Fraction(rng.randint(1, 4), 4)])
        lam = _budget(b) * Fraction(rng.randint(1, 9), 10)
        return Case(kind, lam, b, "lemma-sum exceeded")
    # a zero at -1/c strictly inside the disk
    b = _product(rng, [Fraction(1), 1 + Fraction(rng.randint(1, 12), 12)])
    return Case(kind, _lambda_over(rng, _budget(b)), b, "zero in disk")


def make_cases(seed: int, count: int) -> list[Case]:
    """`count` cases in the KINDS proportions (fixed, so that the mix
    does not vary with the seed), in seeded order."""
    rng = random.Random(seed)
    total = sum(w for _, w in KINDS)
    kinds = [k for k, w in KINDS for _ in range(count * w // total)]
    kinds += [KINDS[0][0]] * (count - len(kinds))
    rng.shuffle(kinds)
    return [make_case(rng, kind) for kind in kinds]
