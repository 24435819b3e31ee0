"""Tests of the benchmark itself: seeded inputs, tracer hygiene, and
deterministic traced counts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy  # noqa: E402
import ucv.cli  # noqa: E402
import ucv.model  # noqa: E402
import ucv.rootcheck  # noqa: E402
import ucv.search  # noqa: E402
from ucv.model import CoefficientReport  # noqa: E402
from ucv.series import TruncatedSeries  # noqa: E402

import layers  # noqa: E402
import members  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import BRACKET, SpeedSampler, reference_loop  # noqa: E402
from tracer import Tracer, install_ucv_wrappers  # noqa: E402

PATCHED = [
    (ucv.cli, "main"), (ucv.cli, "verify_bounds"), (ucv.cli, "conjecture_scan"),
    (ucv.search, "nonvanishing_in_open_disk"), (ucv.model, "nonvanishing_in_open_disk"),
    (ucv.model, "validate"), (ucv.rootcheck, "min_root_modulus"),
    (numpy, "roots"), (numpy.linalg, "eigvals"),
]
PATCHED_METHODS = ["__mul__", "reciprocal", "compose", "revert", "log_unit"]


def _originals():
    mods = {(id(owner), attr): getattr(owner, attr) for owner, attr in PATCHED}
    mods["from_member"] = CoefficientReport.__dict__["from_member"]
    mods.update({m: TruncatedSeries.__dict__[m] for m in PATCHED_METHODS})
    return mods


def _counts(tracer, passes) -> dict:
    return {(p, name): (agg.calls, agg.true_count, agg.raised)
            for p, _ in passes for name, agg in tracer.aggregate(p).items()}


def test_same_seed_same_exact_route_inputs():
    assert members.make_cases(7, 200) == members.make_cases(7, 200)
    assert members.make_cases(7, 200) != members.make_cases(8, 200)


def test_generator_yields_facet_members_and_non_members():
    cases = members.make_cases(3, 1000)
    facets = [c for c in cases if c.kind == "facet"]
    assert facets and all(c.reason is None for c in facets)
    # p(-1) = 1 - b1 + b2 - b3 + b4 = 0 on every facet member
    assert all(1 - c.b[0] + c.b[1] - c.b[2] + c.b[3] == 0 for c in facets)
    reasons = {c.reason for c in cases if c.reason is not None}
    assert reasons == {"negative coefficient", "lemma-sum exceeded", "zero in disk"}
    share = sum(c.reason is not None for c in cases) / len(cases)
    assert 0.15 < share < 0.35


def test_facet_share_of_members_matches_seed_argmaxes():
    weights = dict(members.KINDS)
    rows = (HERE / "expected" / "verify_grid.csv").read_text().splitlines()[1:]
    facet_rows = 0
    for row in rows:
        b = [Fraction(x) for x in row.rsplit(",", 1)[1].split(";")]
        facet_rows += 1 - b[0] + b[1] - b[2] + b[3] == 0
    assert Fraction(weights["facet"], weights["facet"] + weights["interior"]) == Fraction(facet_rows, len(rows))
    assert Fraction(sum(weights.values()) - weights["facet"] - weights["interior"], sum(weights.values())) == Fraction(1, 4)


def test_wrappers_restore_originals_even_on_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            install_ucv_wrappers(tracer)
            assert ucv.model.validate is not before[(id(ucv.model), "validate")]
            assert TruncatedSeries.__dict__["__mul__"] is not before["__mul__"]
            raise RuntimeError("boom")
    assert _originals() == before
    assert all(_originals()[k] is v for k, v in before.items())


def test_speed_sampler_samples_and_restores_the_alarm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            reference_loop()
    assert len(sampler.samples) >= 3 and sampler.reference_s() > 0
    assert len(sampler.bracket) == 2 * BRACKET
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_sampler_keeps_a_divisor_while_the_pass_has_children():
    import subprocess
    import time

    # started before the sampler, so the pass has a child throughout
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.8)"])
    try:
        with SpeedSampler() as sampler:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                reference_loop()
    finally:
        child.wait()
    assert not sampler.samples
    assert len(sampler.bracket) == 2 * BRACKET and sampler.reference_s() > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.pass_name = "p"
    inner = tracer._wrap(lambda: sum(range(20000)), "inner")
    outer = tracer._wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    agg = tracer.aggregate("p")
    assert agg["inner"].calls == 3 and agg["outer"].calls == 1
    assert agg["outer"].self_s == pytest.approx(agg["outer"].total_s - agg["inner"].total_s)


def test_exact_route_traced_counts_repeat(monkeypatch):
    monkeypatch.setattr(workloads.ExactRoute, "BATCH", 120)
    passes = run.SEARCH_PASSES[:1]
    first = _counts(run.trace_passes(workloads.ExactRoute(4), passes)[0], passes)
    assert first == _counts(run.trace_passes(workloads.ExactRoute(4), passes)[0], passes)
    assert first[("full", "model.validate")][0] == 120


def test_exact_route_check_passes(monkeypatch):
    monkeypatch.setattr(workloads.ExactRoute, "BATCH", 150)
    work = workloads.ExactRoute(9)
    result = work.run_pass()
    work.check(result)
    assert result.failed == 0
    assert work.detail["accepted"] + work.detail["rejected"] == 150


def test_search_traced_counts_repeat_and_split():
    argv = ["verify", "--lambda", "1", "--step", "1/5", "--format", "csv"]

    def work():
        return workloads.CliWorkload(argv, 1, 32, workloads.lattice_points([Fraction(1)], 4))

    tracer, runs = run.trace_passes(work(), run.SEARCH_PASSES)
    again, _ = run.trace_passes(work(), run.SEARCH_PASSES)
    assert _counts(tracer, run.SEARCH_PASSES) == _counts(again, run.SEARCH_PASSES)
    metrics = layers.per_layer(tracer, 1.0, 1, 1, runs["full"].wall_s, runs["full"].wall_s, 0.0)
    assert metrics["search.sweep_gate_calls"] > 0 and metrics["search.refine_gate_calls"] > 0
    assert metrics["rootcheck.gate_calls"] == (metrics["search.sweep_gate_calls"]
                                               + metrics["search.refine_gate_calls"])
    assert set(metrics) == {name for name, _ in run.PER_LAYER}


@pytest.mark.parametrize("lam, dims", [(Fraction(1, 10), 4), (Fraction(1, 5), 5)])
def test_lattice_points_matches_enumeration(lam, dims):
    from itertools import product

    step = ucv.search.SearchConfig().grid_step
    budget = int(lam / step)
    tails = sum(1 for ks in product(range(budget + 1), repeat=dims - 1)
                if sum(j * k for j, k in enumerate(ks, start=1)) <= budget)
    assert workloads.lattice_points([lam], dims) == (int((1 + lam) / step) + 1) * tails


def test_benchmark_json_names_match_run():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
