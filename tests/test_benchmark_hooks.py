"""The names the benchmark harness under perfbench/ reads from ucv still
resolve.

The harness wraps ucv's layer boundaries with its tracer and counts
lattice points with SearchConfig.b1_cap, which nothing in ucv calls.  Its
own suite is not part of the default test run, so a deletion of such a
name would otherwise pass here and break only the benchmark.  These
tests import perfbench/ and change nothing in it.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_tracer_wraps_every_hook_and_restores_it(perfbench):
    from tracer import Tracer, install_ucv_wrappers

    with Tracer() as tracer:
        install_ucv_wrappers(tracer)  # AttributeError or KeyError for a name that is gone
        patches = list(tracer._patches)
        assert patches
        assert all(vars(owner)[attr] is not original for owner, attr, original in patches)
    assert all(vars(owner)[attr] is original for owner, attr, original in patches)


def test_lattice_point_count_reads_the_b1_cap(perfbench):
    from workloads import lattice_points

    # 101 values of b1 in [0, 2] at step 1/50 times 4,248 tails at budget 50, dims 4
    assert lattice_points([Fraction(1)], 4) == 101 * 4248
