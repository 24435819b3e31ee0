"""Constrained extremal search and bound certification.

The feasible set is the b-lattice of the membership model: b_n >= 0,
sum (n-1) b_n <= lambda, denominator nonvanishing in the open disk.
Every objective here is a low-degree polynomial in (b1..b4) (the
general coefficient objective AN(n) reads b1..b_{n-1}), so the search
is a deterministic lattice sweep followed by shrinking-step local
refinement; no gradients, no randomness.

Certification compares the searched extremum against the closed-form
bound for the class when one exists.  A certificate FAILs only if the
search strictly beats the bound beyond a small floating slack; a WARN
flag marks bounds the grid did not get close to (sharpness not
reproduced at this resolution).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from ucv.model import decimal_str
from ucv.rootcheck import (
    _CLUSTER_SEP,
    _NEAR_UNIT_BAND,
    DEFAULT_TOL,
    RationalIn,
    UnitPolynomial,
    as_rational,
    nonvanishing_in_open_disk,
)

# floating slack separating a genuine bound violation from root-gate and
# rounding noise, vs the much looser grid-sharpness warning threshold
FAIL_SLACK = 1e-7
WARN_GAP = 5e-3

_REFINE_WINDOW = 12
_REFINE_PASSES = 6


# -- functionals ----------------------------------------------------------


@dataclass(frozen=True)
class Functional:
    """Named polynomial objective in the b-coordinates."""

    name: str
    arity: int
    evaluate: Callable[[Sequence], object]


def _an_coefficient(b: Sequence, n: int):
    # coefficient of z^(n-1) in 1/(1 + sum b_j z^j), i.e. a_n of f;
    # written without branching so it also evaluates elementwise on arrays
    c = [b[0] * 0 + 1]
    for k in range(1, n):
        s = c[0] * 0
        for j in range(1, min(k, len(b)) + 1):
            s = s + b[j - 1] * c[k - j]
        c.append(-s)
    return c[n - 1]


def _base_functionals() -> tuple[Functional, ...]:
    return (
        Functional("A2", 1, lambda b: b[0]),
        Functional("A3", 2, lambda b: b[1] + b[0] * b[0]),
        Functional("A4", 3, lambda b: b[2] + 3 * b[0] * b[1] + b[0] * b[0] * b[0]),
        Functional("G1", 1, lambda b: b[0] / 2),
        Functional("G2", 2, lambda b: (b[1] + b[0] * b[0] / 2) / 2),
        Functional("G3", 3, lambda b: (b[2] + 2 * b[0] * b[1] + b[0] * b[0] * b[0] / 3) / 2),
        Functional("H2F", 3, lambda b: b[0] * b[2] - b[1] * b[1]),
        Functional("H3F", 4, lambda b: b[1] * b[3] - b[2] * b[2]),
        Functional("H2INV", 3, lambda b: b[0] * b[2] + b[0] * b[0] * b[1] - b[1] * b[1]),
        Functional("H3INV", 4, lambda b: b[1] * b[3] - b[2] * b[2] + b[1] * b[1] * b[1]),
        Functional("Z23", 3, lambda b: b[2] - b[0] * b[1]),
        Functional("Z24", 4, lambda b: b[0] * b[0] * b[1] - b[0] * b[2] - b[1] * b[1] + b[3]),
        Functional("A2C", 1, lambda b: -b[0]),
        Functional("A3C", 2, lambda b: b[0] * b[0] - b[1]),
        Functional("A4C", 3, lambda b: -b[2] + 2 * b[0] * b[1] - b[0] * b[0] * b[0]),
        Functional(
            "A5C",
            4,
            lambda b: -b[3] + b[1] * b[1] + 2 * b[0] * b[2] - 3 * b[0] * b[0] * b[1]
            + b[0] * b[0] * b[0] * b[0],
        ),
    )


BASE_FUNCTIONALS = _base_functionals()
FUNCTIONAL_NAMES = tuple(f.name for f in BASE_FUNCTIONALS)
_BY_NAME = {f.name: f for f in BASE_FUNCTIONALS}

AN_MIN, AN_MAX = 2, 8


def an_functional(n: int) -> Functional:
    """|a_n| of f as an objective; defined for 2 <= n <= 8."""
    if not AN_MIN <= n <= AN_MAX:
        raise ValueError(f"n must be in [{AN_MIN}, {AN_MAX}], got {n}")

    def ev(b, n=n):
        return abs(_an_coefficient(b, n))

    return Functional(f"AN({n})", n - 1, ev)


def functional_by_name(name: str) -> Functional:
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name.startswith("AN(") and name.endswith(")"):
        return an_functional(int(name[3:-1]))
    raise KeyError(name)


# -- closed-form bounds ----------------------------------------------------

BoundValue = Union[Fraction, float, None]


def bound_info(name: str, lam: RationalIn) -> dict:
    """Both-direction bound table for one functional at one lambda.

    Each entry is (value, sharp, witness): value None when the class has
    no known closed form in that direction, witness the catalog name
    attaining the value exactly (None when attainment is off-catalog or
    not established).
    """
    lam = as_rational(lam)
    zero = Fraction(0)
    none = (None, False, None)
    lo = "Bz4over3"  # b1=b2=b3=0 member, kills every A/Gamma functional
    if name == "A2":
        return {"max": (1 + lam, True, "FLambda"), "min": (zero, True, lo)}
    if name == "A3":
        return {"max": (1 + 3 * lam + lam**2, True, "FLambda"), "min": (zero, True, lo)}
    if name == "A4":
        return {"max": ((1 + lam) * (1 + 5 * lam + lam**2), True, "FLambda"), "min": (zero, True, lo)}
    if name == "G1":
        return {"max": ((1 + lam) / 2, True, "FLambda"), "min": (zero, True, lo)}
    if name == "G2":
        return {"max": ((1 + 4 * lam + lam**2) / 4, True, "FLambda"), "min": (zero, True, lo)}
    if name == "G3":
        return {"max": ((1 + lam) * (1 + 8 * lam + lam**2) / 6, True, "FLambda"), "min": (zero, True, lo)}
    if name == "H2F":
        return {"max": ((1 - lam / 2) * (lam / 2), True, "H2UpperMix"), "min": (-(lam**2), True, "Bz2")}
    if name == "H3F":
        return {"max": (lam**2 / 12, True, "H3LowerMix"), "min": (-(lam**2) / 4, True, "HalfZ3")}
    if name == "H2INV":
        return {"max": (lam * (1 + lam + lam**2), True, "FLambda"), "min": (-(lam**2), True, "Bz2")}
    if name == "H3INV":
        return {"max": (lam**3, True, "FLambda"), "min": (-(lam**2) / 4, True, "HalfZ3")}
    if name == "Z23":
        return {"max": (lam / 2, True, "HalfZ3"), "min": (-(1 + lam) * lam, True, "FLambda")}
    if name == "Z24":
        # only |a2 a4 - a5| <= lam + lam^2 + lam^3 is known, attained on
        # the positive side; no separate lower closed form
        return {"max": (lam + lam**2 + lam**3, True, "FLambda"), "min": none}
    if name == "A2C":
        return {"max": (zero, True, lo), "min": (-(1 + lam), True, "FLambda")}
    if name == "A3C":
        return {"max": (1 + lam + lam**2, True, "FLambda"), "min": (-lam, True, "Bz2")}
    if name == "A4C":
        # |a4| <= 1 + lam + lam^2 + lam^3 is attained only on the minus
        # side; the sharp maximum (4/3)sqrt(2/3) is known at lam=1 only
        mx = (4 * math.sqrt(6) / 9, True, None) if lam == 1 else none
        return {"max": mx, "min": (-(1 + lam + lam**2 + lam**3), True, "FLambda")}
    if name == "A5C":
        if lam == 1:
            return {"max": (Fraction(5), True, "FLambda"), "min": (Fraction(-9, 4), True, None)}
        return {"max": none, "min": none}
    if name.startswith("AN(") and name.endswith(")"):
        n = int(name[3:-1])
        total = sum((lam**k for k in range(n)), Fraction(0))
        return {"max": (total, True, "FLambda"), "min": none}
    raise KeyError(name)


def closed_form_bound(fn: Union[Functional, str], lam: RationalIn, direction: str) -> BoundValue:
    """Closed-form class bound, or None where no closed form exists."""
    name = fn.name if isinstance(fn, Functional) else fn
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    return bound_info(name, lam)[direction][0]


# -- search configuration and enumeration ---------------------------------


@dataclass(frozen=True)
class SearchConfig:
    dims: int = 4
    grid_step: Fraction = Fraction(1, 50)
    refine_rounds: int = 3
    root_tol: float = DEFAULT_TOL
    b1_max: Fraction | None = None  # None means 1 + lambda

    def __post_init__(self):
        if not isinstance(self.grid_step, Fraction):
            object.__setattr__(self, "grid_step", as_rational(self.grid_step))
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if self.b1_max is not None and not isinstance(self.b1_max, Fraction):
            object.__setattr__(self, "b1_max", as_rational(self.b1_max))

    def b1_cap(self, lam: Fraction) -> Fraction:
        return 1 + lam if self.b1_max is None else self.b1_max


def _width(cfg: SearchConfig) -> int:
    return max(4, cfg.dims)


def _pad(b: tuple[Fraction, ...], width: int) -> tuple[Fraction, ...]:
    return b + (Fraction(0),) * (width - len(b))


def _feasible(lam: Fraction, b: tuple[Fraction, ...], tol: float) -> bool:
    if any(x < 0 for x in b):
        return False
    if sum(((n - 1) * x for n, x in enumerate(b, start=1)), Fraction(0)) > lam:
        return False
    poly = UnitPolynomial.from_coeffs((Fraction(1),) + b)
    return nonvanishing_in_open_disk(poly, tol=tol)


def _tail_units(units_left: int, weights: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if not weights:
        yield ()
        return
    w = weights[0]
    for k in range(units_left // w + 1):
        for rest in _tail_units(units_left - k * w, weights[1:]):
            yield (k,) + rest


def _tails(units_left: int, weights: tuple[int, ...], step: Fraction) -> Iterator[tuple[Fraction, ...]]:
    for units in _tail_units(units_left, weights):
        yield tuple(k * step for k in units)


def enumerate_feasible(lam: RationalIn, cfg: SearchConfig | None = None) -> Iterator[tuple[Fraction, ...]]:
    """Feasible lattice points in deterministic lexicographic order.

    b1 runs over [0, b1_cap] in grid_step increments; b2..b_dims over the
    weighted simplex sum (n-1) b_n <= lambda; every point is filtered
    through the disk root gate.  Yields tuples padded to >= 4 entries.
    """
    cfg = cfg or SearchConfig()
    lam = as_rational(lam)
    step = cfg.grid_step
    width = _width(cfg)
    weights = tuple(range(1, cfg.dims))  # weights of b2..b_dims
    budget_units = int(lam / step)
    k1_max = int(cfg.b1_cap(lam) / step)
    for k1 in range(k1_max + 1):
        b1 = k1 * step
        for tail in _tails(budget_units, weights, step):
            b = _pad((b1,) + tail, width)
            if _feasible(lam, b, cfg.root_tol):
                yield b


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    lam: Fraction
    functional: str
    direction: str
    searched_value: float
    argmax: tuple[Fraction, ...]
    closed_form: float | None
    gap: float | None  # closed_form - searched_value
    status: str  # PASS | FAIL | NO_CLOSED_FORM
    warn: bool


def _certificate(name: str, lam: Fraction, direction: str, value: float,
                 arg: tuple[Fraction, ...]) -> BoundCertificate:
    bound = bound_info(name, lam)[direction][0]
    if bound is None:
        return BoundCertificate(lam, name, direction, value, arg, None, None, "NO_CLOSED_FORM", False)
    closed = float(bound)
    gap = closed - value
    if direction == "max":
        beats, shortfall = value > closed + FAIL_SLACK, gap
    else:
        beats, shortfall = value < closed - FAIL_SLACK, -gap
    status = "FAIL" if beats else "PASS"
    return BoundCertificate(lam, name, direction, value, arg, closed, gap, status, shortfall > WARN_GAP)


def certificate_to_dict(cert: BoundCertificate) -> dict:
    return {
        "lambda": float(cert.lam),
        "functional": cert.functional,
        "direction": cert.direction,
        "searched": cert.searched_value,
        "closed_form": cert.closed_form,
        "gap": cert.gap,
        "status": cert.status,
        "warn": cert.warn,
        "argmax": [decimal_str(x) for x in cert.argmax],
    }


CSV_HEADER = "lambda,functional,direction,searched,closed_form,gap,status,argmax"


def certificate_csv_row(cert: BoundCertificate) -> str:
    return ",".join(
        (
            decimal_str(cert.lam),
            cert.functional,
            cert.direction,
            repr(cert.searched_value),
            "" if cert.closed_form is None else repr(cert.closed_form),
            "" if cert.gap is None else repr(cert.gap),
            cert.status,
            ";".join(decimal_str(x) for x in cert.argmax),
        )
    )


def certificates_to_csv(certs: Sequence[BoundCertificate]) -> str:
    lines = [CSV_HEADER]
    lines.extend(certificate_csv_row(c) for c in certs)
    return "\n".join(lines) + "\n"


# -- sweep core ------------------------------------------------------------


def _better(value: float, arg: tuple, cur_value: float, cur_arg, sign: int) -> bool:
    # strict improvement, or an exact tie broken toward the smaller point
    if cur_arg is None:
        return True
    if sign * (value - cur_value) > 0:
        return True
    return value == cur_value and arg < cur_arg


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row of `coeffs` (ascending float coefficients, one
    degree d >= 1 for all rows, nonzero leading term) as the eigenvalues
    of stacked companion matrices, in one eigvals call."""
    n, d = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((n, d, d))
    comp[:, range(1, d), range(d - 1)] = 1.0
    comp[:, 0, :] = -coeffs[:, d - 1::-1] / coeffs[:, d:]
    return np.linalg.eigvals(comp)


def _deflate_minus_one(coeffs: np.ndarray) -> np.ndarray:
    """Divide each row of ascending int64 coefficients by (1 + z) for as
    long as it vanishes at -1 (descending synthetic division, exact);
    quotients come back zero padded to the input width."""
    q = coeffs.copy()
    alt = np.array([(-1) ** j for j in range(q.shape[1])], dtype=np.int64)
    rows = np.flatnonzero(q @ alt == 0)
    while rows.size:
        sub = q[rows]
        out = np.zeros_like(sub)
        acc = np.zeros(rows.size, dtype=np.int64)
        for k in range(sub.shape[1] - 1, 0, -1):
            acc = sub[:, k] - acc
            out[:, k - 1] = acc
        q[rows] = out
        rows = rows[out @ alt == 0]
    return q


def _facet_gate(coeffs: np.ndarray, tol: float) -> np.ndarray:
    """Disk decision for integer polynomials with p(-1) = 0 and p(0) > 0.

    A k-fold root at -1 smears into a ring of eigenvalues of radius about
    eps^(1/k), so the factor (1 + z)^m is divided out exactly first.  The
    quotients go through the companion eigenvalues by degree (degree 0 is
    (1 + z)^m alone, accepted).  A quotient with a root modulus within
    _NEAR_UNIT_BAND of 1, or two roots closer than _CLUSTER_SEP, is
    doubtful in floating point, and its polynomial goes to the scalar
    exact gate instead.
    """
    q = _deflate_minus_one(coeffs)
    width = q.shape[1]
    deg = width - 1 - np.argmax(q[:, ::-1] != 0, axis=1)
    accept = deg == 0
    for d in range(1, width):
        rows = np.flatnonzero(deg == d)
        if not rows.size:
            continue
        roots = _companion_roots(q[rows, : d + 1].astype(float))
        moduli = np.abs(roots)
        gaps = np.abs(roots[:, :, None] - roots[:, None, :])
        gaps[:, range(d), range(d)] = np.inf
        doubtful = (np.abs(moduli - 1.0) <= _NEAR_UNIT_BAND).any(axis=1)
        doubtful |= gaps.min(axis=(1, 2)) < _CLUSTER_SEP
        accept[rows] = moduli.min(axis=1) >= 1.0 - tol
        for i in rows[doubtful]:
            c0 = int(coeffs[i, 0])
            accept[i] = nonvanishing_in_open_disk([Fraction(int(c), c0) for c in coeffs[i]], tol)
    return accept


def _root_gate_mask(k1: int, tails: np.ndarray, tail_deg: np.ndarray, undecided: np.ndarray,
                    facet: np.ndarray, units: int, lut: np.ndarray, width: int,
                    tol: float) -> np.ndarray:
    """Batched disk check for the lattice points no exact pretest settled.

    Degree <= 3 survivors are feasible outright: with b >= 0, p(-1) >= 0
    and b2 + 2 b3 <= lambda <= 1, every real root is negative, an inside
    pair of real roots would force b2 > 1 through its reciprocal product,
    and an inside complex pair of a cubic gives
    b2 + 2 b3 = 1/mu^2 + (2/(mu r))(1/mu - cos t) > 1.  Degree >= 4 goes
    through stacked companion eigenvalues, one call per degree, except
    for `facet` rows (p(-1) = 0 exactly): their polynomial times
    units = 1/step is the integer polynomial units + k1 z + t2 z^2 + ...,
    which _facet_gate deflates exactly before its own eigenvalue calls.
    """
    accept = undecided & (tail_deg <= 3)
    hard = undecided & (tail_deg >= 4)
    rows = np.flatnonzero(hard & facet)
    if rows.size:
        head = np.tile(np.array([units, k1], dtype=np.int64), (rows.size, 1))
        accept[rows] = _facet_gate(np.hstack((head, tails[rows])), tol)
    plain = np.flatnonzero(hard & ~facet)
    for d in range(4, width + 1):
        rows = plain[tail_deg[plain] == d]
        if not rows.size:
            continue
        coeffs = np.empty((rows.size, d + 1))
        coeffs[:, 0] = 1.0
        coeffs[:, 1] = lut[k1]
        coeffs[:, 2:] = lut[tails[rows, : d - 1]]
        moduli = np.abs(_companion_roots(coeffs)).min(axis=1)
        accept[rows[moduli >= 1.0 - tol]] = True
    return accept


def _sweep_chunk(args) -> list:
    lam, cfg, names, k_lo, k_hi = args
    fns = [functional_by_name(nm) for nm in names]
    step = cfg.grid_step
    width = _width(cfg)
    weights = tuple(range(1, cfg.dims))
    budget_units = int(lam / step)
    tail_list = list(_tail_units(budget_units, weights))
    tails = np.array(tail_list, dtype=np.int64).reshape((len(tail_list), cfg.dims - 1))
    m, ncols = tails.shape
    ksum = tails.sum(axis=1)
    # p(-1) = 1 - b1 + b2 - b3 + ...: alternating tail sum, in step units
    signs = np.array([(-1) ** j for j in range(ncols)], dtype=np.int64)
    talt = tails @ signs
    one_units = Fraction(1) / step
    u1 = int(one_units)  # floor(1/step); all comparisons below are exact
    facet_possible = one_units == u1
    tail_deg = np.zeros(m, dtype=np.int64)
    for j in range(ncols):
        tail_deg[tails[:, j] > 0] = j + 2
    # correctly rounded lattice values, so float results match the exact
    # points regardless of step (k * float(step) can be off by one ulp)
    lut = np.array([float(k * step) for k in range(max(budget_units, k_hi - 1) + 1)])
    # per functional: [max_value, max_arg, min_value, min_arg]
    best = [[-math.inf, None, math.inf, None] for _ in fns]
    for k1 in range(k_lo, k_hi):
        # sum b_n <= 1 keeps |p(z) - 1| < 1 on the open disk: accept outright
        accept = (k1 + ksum) <= u1
        # p(0) = 1 > 0, so p(-1) < 0 forces a real root in (-1, 0): reject
        alive = (k1 - talt) <= u1
        undecided = alive & ~accept
        # p(-1) = 0 exactly needs 1/step to be an integer
        facet = (k1 - talt) == u1 if facet_possible else np.zeros(m, dtype=bool)
        accept |= _root_gate_mask(k1, tails, tail_deg, undecided, facet, u1, lut, width, cfg.root_tol)
        sel = np.flatnonzero(accept)
        if not sel.size:
            continue
        cols = [np.full(sel.size, lut[k1])]
        cols.extend(lut[tails[sel, j]] for j in range(ncols))
        cols.extend(np.zeros(sel.size) for _ in range(width - 1 - ncols))
        bf = tuple(cols)

        def lattice_point(row: int) -> tuple[Fraction, ...]:
            return _pad((k1 * step,) + tuple(int(t) * step for t in tails[row]), width)

        for i, fn in enumerate(fns):
            v = fn.evaluate(bf) + 0.0  # normalize -0.0
            slot = best[i]
            jmax = int(np.argmax(v))  # first hit = lexicographically least
            vmax = float(v[jmax])
            if vmax > slot[0]:
                slot[0], slot[1] = vmax, lattice_point(int(sel[jmax]))
            jmin = int(np.argmin(v))
            vmin = float(v[jmin])
            if vmin < slot[2]:
                slot[2], slot[3] = vmin, lattice_point(int(sel[jmin]))
    return best


def _thread_count() -> int:
    try:
        n = int(os.environ.get("UCV_THREADS", "1"))
    except ValueError:
        n = 1
    return max(1, n)


def _sweep(lam: Fraction, cfg: SearchConfig, names: Sequence[str]) -> dict:
    """Coarse lattice sweep; returns {(name, direction): (value, arg)}.

    Work may be partitioned over processes by b1-slice (UCV_THREADS);
    the merge reapplies the deterministic tie-break, so the result is
    identical for any worker count.
    """
    k1_max = int(cfg.b1_cap(lam) / cfg.grid_step)
    threads = _thread_count()
    if threads == 1 or k1_max < 8:
        chunks = [_sweep_chunk((lam, cfg, tuple(names), 0, k1_max + 1))]
    else:
        n_chunks = min(4 * threads, k1_max + 1)
        edges = [round(i * (k1_max + 1) / n_chunks) for i in range(n_chunks + 1)]
        jobs = [
            (lam, cfg, tuple(names), lo, hi)
            for lo, hi in zip(edges, edges[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_sweep_chunk, jobs))
    merged = [[-math.inf, None, math.inf, None] for _ in names]
    for chunk in chunks:
        for slot, part in zip(merged, chunk):
            if part[1] is not None and _better(part[0], part[1], slot[0], slot[1], +1):
                slot[0], slot[1] = part[0], part[1]
            if part[3] is not None and _better(part[2], part[3], slot[2], slot[3], -1):
                slot[2], slot[3] = part[2], part[3]
    out = {}
    for name, slot in zip(names, merged):
        out[(name, "max")] = (slot[0], slot[1])
        out[(name, "min")] = (slot[2], slot[3])
    return out


# -- refinement ------------------------------------------------------------


def _move_directions(dims: int) -> tuple[tuple[int, ...], ...]:
    """Integer step directions for the local polish.

    Besides single-coordinate and diagonal pair moves, the set carries the
    null-space lattice of the two constraints that saturate at extremal
    points: the weighted budget sum and the p(-1) >= 0 facet.  Coordinate
    index i holds b_{i+1} with budget weight i and sign (-1)^(i+1) in
    p(-1); the pair (b_{i+1}, b_{j+1}) moves by (j, -i)/gcd to stay on the
    budget, and the matching triple adds the b1 component that keeps
    p(-1) fixed as well.  Without these, a point with both constraints
    tight can be a local optimum of every axis or diagonal move while the
    true extremum sits further along the intersection.
    """
    moves: set[tuple[int, ...]] = set()

    def add(v: list[int]) -> None:
        moves.add(tuple(v))
        moves.add(tuple(-x for x in v))

    for i in range(dims):
        v = [0] * dims
        v[i] = 1
        add(v)
    for i in range(dims):
        for j in range(i + 1, dims):
            for sj in (+1, -1):
                v = [0] * dims
                v[i], v[j] = 1, sj
                add(v)
    for i in range(1, dims):
        for j in range(i + 1, dims):
            g = math.gcd(i, j)
            vi, vj = j // g, -(i // g)
            si, sj = (-1) ** (i + 1), (-1) ** (j + 1)
            v = [0] * dims
            v[i], v[j] = vi, vj
            add(v)
            v = list(v)
            v[0] = vi * si + vj * sj
            add(v)
    return tuple(sorted(moves))


def _refine(lam: Fraction, cfg: SearchConfig, fn: Functional, direction: str,
            arg: tuple[Fraction, ...], value: float) -> tuple[tuple[Fraction, ...], float, list[float]]:
    """Shrinking-step local polish around the coarse incumbent.

    Each round divides the step by 10 and greedily applies the move set of
    _move_directions at window scales 1..12.  Candidates are scored first
    and sent through the exact root gate only when they would improve, so
    the expensive check runs a handful of times per round.  Returns the
    round value history for monotonicity checks.
    """
    sign = +1 if direction == "max" else -1
    cap = cfg.b1_cap(lam)
    dims = cfg.dims
    width = _width(cfg)
    step = cfg.grid_step
    history = [value]
    moves = tuple(m + (0,) * (width - dims) for m in _move_directions(dims))
    best = [value, arg]

    def consider(cand: tuple[Fraction, ...]) -> bool:
        if cand[0] > cap or any(x < 0 for x in cand):
            return False
        v = fn.evaluate(tuple(float(x) for x in cand)) + 0.0
        if not _better(v, cand, best[0], best[1], sign):
            return False
        if not _feasible(lam, cand, cfg.root_tol):
            return False
        best[0], best[1] = v, cand
        return True

    for _ in range(cfg.refine_rounds):
        step = step / 10
        for _ in range(_REFINE_PASSES):
            improved = False
            for move in moves:
                for k in range(1, _REFINE_WINDOW + 1):
                    delta = k * step
                    cand = tuple(x + m * delta for x, m in zip(best[1], move))
                    improved |= consider(cand)
            if not improved:
                break
        history.append(best[0])
    return best[1], best[0], history


# -- public search API -----------------------------------------------------


@dataclass(frozen=True)
class OptimizeDetail:
    certificate: BoundCertificate
    coarse_value: float
    round_values: tuple[float, ...]


def _optimize_detail(fn: Union[Functional, str], lam: RationalIn, direction: str,
                     cfg: SearchConfig | None = None) -> OptimizeDetail:
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    fn = functional_by_name(fn) if isinstance(fn, str) else fn
    lam = as_rational(lam)
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must be in (0, 1], got {lam}")
    cfg = cfg or SearchConfig()
    coarse = _sweep(lam, cfg, [fn.name])[(fn.name, direction)]
    arg, value, history = _refine(lam, cfg, fn, direction, coarse[1], coarse[0])
    cert = _certificate(fn.name, lam, direction, value, arg)
    return OptimizeDetail(cert, coarse[0], tuple(history))


def optimize(fn: Union[Functional, str], lam: RationalIn, direction: str,
             cfg: SearchConfig | None = None) -> BoundCertificate:
    """Grid sweep plus refinement for one (functional, direction) pair."""
    return _optimize_detail(fn, lam, direction, cfg).certificate


def verify_bounds(lambda_grid: Sequence[RationalIn], cfg: SearchConfig | None = None) -> list[BoundCertificate]:
    """Certify every named functional in both directions over a lambda grid.

    One shared coarse sweep per lambda feeds all rows (the sweep itself is
    the pointwise never-exceed check: each incumbent dominates every
    feasible grid point).  Row order: grid order, then functional order,
    then max before min.
    """
    cfg = cfg or SearchConfig()
    certs: list[BoundCertificate] = []
    for raw in lambda_grid:
        lam = as_rational(raw)
        if not 0 < lam <= 1:
            raise ValueError(f"lambda must be in (0, 1], got {lam}")
        incumbents = _sweep(lam, cfg, FUNCTIONAL_NAMES)
        for name in FUNCTIONAL_NAMES:
            fn = _BY_NAME[name]
            for direction in ("max", "min"):
                value, arg = incumbents[(name, direction)]
                arg2, value2, _ = _refine(lam, cfg, fn, direction, arg, value)
                certs.append(_certificate(name, lam, direction, value2, arg2))
    return certs


def conjecture_scan(n: int, lam: RationalIn, cfg: SearchConfig | None = None) -> BoundCertificate:
    """Maximize |a_n| and compare against 1 + lambda + ... + lambda^(n-1).

    A FAIL marks a counterexample candidate for the coefficient growth
    conjecture (to be re-checked at finer resolution, never trusted raw).
    Search dimensionality grows to n-1 so the coefficient recursion sees
    every coordinate it reads.
    """
    if not AN_MIN <= n <= AN_MAX:
        raise ValueError(f"n must be in [{AN_MIN}, {AN_MAX}], got {n}")
    cfg = cfg or SearchConfig()
    cfg = replace(cfg, dims=max(cfg.dims, n - 1))
    return optimize(an_functional(n), lam, "max", cfg)
