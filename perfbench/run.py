"""ucv benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

A single workload runs in this interpreter after set-up; `all` starts
one fresh interpreter per workload and prints a table.  For a single
workload the last line of stdout is one JSON object {"correct",
"attempted", "failed", "metrics"}; the line before it carries details
that are not metrics (pass count, error_rate, CSV identity flags).  See
README.md for the metric map.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, so a BLAS pool cannot change the load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# set-up is timed against a fresh interpreter that imports these stdlib
# modules (pure Python and C extensions, as numpy and ucv.cli are), which
# no change to ucv can move; setup_s is in seconds on a machine where this
# reference import takes NOMINAL_REFERENCE_IMPORT_S
REFERENCE_IMPORT = "import fractions, decimal, json, argparse, email.message, xml.dom.minidom, csv, sqlite3"
NOMINAL_REFERENCE_IMPORT_S = 0.075
WORKLOADS = ("verify-grid", "conjecture-n6", "exact-route", "verify-pair-2w")

# times other than set-up are in reference units ("ref"): seconds divided
# by the duration of speed.reference_loop measured during the same pass
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("items_per_ref", "1/ref"),
    ("op_p50_ref", "ref"),
    ("op_p99_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("search.lattice_points", "count"),
    ("search.sweep_s", "s"),
    ("search.sweep_self_s", "s"),
    ("search.eigen_gate_calls", "count"),
    ("search.eigen_gate_s", "s"),
    ("search.sweep_gate_calls", "count"),
    ("search.sweep_gate_s", "s"),
    ("search.refine_s", "s"),
    ("search.refine_gate_calls", "count"),
    ("search.refine_gate_s", "s"),
    ("search.refine_accept_ratio", "ratio"),
    ("search.pool_speedup", "ratio"),
    ("rootcheck.gate_calls", "count"),
    ("rootcheck.numeric_calls", "count"),
    ("rootcheck.numeric_s", "s"),
    ("rootcheck.np_roots_calls", "count"),
    ("rootcheck.roots_per_numeric", "ratio"),
    ("model.validate_calls", "count"),
    ("model.validate_s", "s"),
    ("model.rejected", "count"),
    ("model.report_s", "s"),
    ("series.mul_calls", "count"),
    ("series.mul_s", "s"),
    ("series.reciprocal_s", "s"),
    ("series.compose_s", "s"),
    ("series.revert_s", "s"),
    ("series.log_unit_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _time_interpreter(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - t0


def measure_setup() -> tuple[float, dict]:
    """Time for a fresh interpreter to import ucv.cli and numpy.  Each of
    SETUP_REPEATS imports follows a fresh interpreter that runs
    REFERENCE_IMPORT; the median ratio of the two, times
    NOMINAL_REFERENCE_IMPORT_S, is set-up time in seconds at a fixed machine
    speed.  Also returns the raw medians, for the details line."""
    ratios, raw, reference = [], [], []
    for _ in range(SETUP_REPEATS):
        reference.append(_time_interpreter(REFERENCE_IMPORT))
        raw.append(_time_interpreter("import numpy, ucv.cli"))
        ratios.append(raw[-1] / reference[-1])
    return statistics.median(ratios) * NOMINAL_REFERENCE_IMPORT_S, {
        "setup_raw_s": statistics.median(raw),
        "setup_reference_s": statistics.median(reference),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def sampled_pass(work, **kwargs):
    """One pass with the speed sampler running; sets its reference_s."""
    from speed import SpeedSampler

    with SpeedSampler() as sampler:
        result = work.run_pass(**kwargs)
    result.reference_s = sampler.reference_s()
    result.reference_samples = len(sampler.samples)
    return result


def measure(work, seconds: float) -> tuple[dict, int, int, dict]:
    """Untraced passes until `seconds` have elapsed (at least one), each
    timed in seconds and in reference units (speed.py)."""
    work.warm_up()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result = sampled_pass(work)
        work.check(result)
        passes.append(result)
    extra_failed = work.finish(passes)
    wall_ref = statistics.median(p.wall_s / p.reference_s for p in passes)
    # each operation's latency is its median over the passes, so that a
    # stall during one pass does not set the tail
    ops = [statistics.median(p.op_s[i] / p.reference_s for p in passes)
           for i in range(len(passes[0].op_s))]
    metrics = {
        "wall_ref": wall_ref,
        "cpu_ref": statistics.median(p.cpu_s / p.reference_s for p in passes),
        "items_per_ref": work.items / wall_ref,
        "op_p50_ref": statistics.median(ops),
        "op_p99_ref": percentile(ops, 99),
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = sum(p.items for p in passes)
    failed = min(attempted, sum(p.failed for p in passes) + extra_failed)
    wall_s = statistics.median(p.wall_s for p in passes)
    detail = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "wall_s": wall_s,
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "items_per_s": work.items / wall_s,
        "reference_ms": statistics.median(p.reference_s for p in passes) * 1e3,
        "reference_samples_in_pass": min(p.reference_samples for p in passes),
    }
    return metrics, attempted, failed, detail


SEARCH_PASSES = (("full", ()), ("sweep", ("--refine", "0")))
POOL_PAIRS = 3


def trace_passes(work, passes, **kwargs):
    """Run each (name, extra CLI flags) pass once with the wrappers in
    place and the speed sampler running, as in the untraced passes;
    returns the tracer and the PassResult of each pass."""
    from tracer import Tracer, install_ucv_wrappers

    tracer, runs = Tracer(), {}
    for pass_name, extra in passes:
        tracer.pass_name = pass_name
        with tracer:
            install_ucv_wrappers(tracer)
            runs[pass_name] = sampled_pass(work, **kwargs, **({"extra": extra} if extra else {}))
    return tracer, runs


def traced(work, workload: str, seed: int) -> tuple[dict, int, int, dict]:
    """One untraced pass, then the same pass traced.  The search workloads
    add a traced sweep-only pass (--refine 0); the pool workload adds
    untraced sweep-only passes at 1 and at its own worker count.  Traced
    passes run in one process, so the wrappers see every call."""
    import layers
    from workloads import CliWorkload

    search = isinstance(work, CliWorkload)
    single = {"threads": 1} if search else {}
    work.warm_up()
    plain = sampled_pass(work, **single)
    work.check(plain)
    tracer, runs = trace_passes(work, SEARCH_PASSES if search else SEARCH_PASSES[:1], **single)
    work.check(runs["full"])
    failed = plain.failed + runs["full"].failed
    speedup = 0.0
    if search and work.threads > 1:
        # adjacent pairs, median ratio: the host's speed changes slowly
        ratios, same = [], True
        for _ in range(POOL_PAIRS):
            one = work.run_pass(threads=1, extra=("--refine", "0"))
            many = work.run_pass(extra=("--refine", "0"))
            ratios.append(one.wall_s / many.wall_s)
            same &= one.outcome == many.outcome
        speedup = statistics.median(ratios)
        work.detail["sweep_csv_matches_1_worker"] = same
        failed += 0 if same else work.items
    output_bytes = len(runs["full"].outcome[1].encode()) if search else 0
    # the traced wall time rescaled to the machine speed of the untraced pass
    traced_wall = runs["full"].wall_s * plain.reference_s / runs["full"].reference_s
    sweep_scale = runs["full"].reference_s / runs["sweep"].reference_s if search else 1.0
    metrics = layers.per_layer(tracer, sweep_scale, work.lattice, output_bytes, traced_wall, plain.wall_s,
                               speedup)
    out = HERE / "out" / f"trace-{workload}.json"
    tracer.write(out, {"workload": workload, "seed": seed})
    attempted = plain.items + runs["full"].items
    detail = {"traced_wall_s": runs["full"].wall_s, "untraced_wall_s": plain.wall_s,
              "reference_ms": [plain.reference_s * 1e3, runs["full"].reference_s * 1e3],
              "reference_samples_in_pass": [plain.reference_samples, runs["full"].reference_samples],
              "spans": len(tracer.spans), "trace_file": str(out.relative_to(ROOT))}
    return metrics, attempted, min(failed, attempted), detail


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "ucv" / "__init__.py").is_file():
        print(f"run.py: no ucv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    work = workloads.make(workload, seed)
    if trace:
        metrics, attempted, failed, detail = traced(work, workload, seed)
        units = dict(PER_LAYER)
    else:
        # set-up runs last, so that peak_rss_mb has not seen its children
        metrics, attempted, failed, detail = measure(work, seconds)
        metrics["setup_s"], setup_detail = measure_setup()
        detail.update(setup_detail)
        units = dict(END_TO_END)
    detail.update(work.detail)
    detail["error_rate"] = failed / attempted
    print(json.dumps({"workload": workload, "seed": seed, "trace": int(trace), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh interpreter of its own; one table."""
    rows, code = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        code |= not result["correct"]
        rows.append((workload, detail, result))
    for workload, detail, result in rows:
        print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={detail['error_rate']:g}")
        for name, metric in result["metrics"].items():
            print(f"   {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
