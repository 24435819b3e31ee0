"""Per-layer metrics from the traced passes.

Span names come from tracer.install_ucv_wrappers.  The sweep/refinement
split uses only public configuration: the "sweep" pass is the same CLI
call with --refine 0, which runs the identical sweep and no refinement,
so refinement is the full pass minus the sweep pass, for times and counts.
Sweep-pass times are first rescaled to the machine speed of the full pass
(speed.py), since the host's speed can change between the two passes.
Counts split exactly; a refinement time is a difference of two passes and
carries the residual noise of the larger term.
"""

from __future__ import annotations


def per_layer(tracer, sweep_scale: float, lattice_points: int, output_bytes: int,
              traced_wall_s: float, untraced_wall_s: float, pool_speedup: float) -> dict:
    """`sweep_scale` is the full pass's reference time over the sweep
    pass's; the tracing overhead is traced_wall_s - untraced_wall_s."""
    full = tracer.aggregate("full")
    sweep = tracer.aggregate("sweep")
    sweep_run_s = sweep["search.run"].total_s * sweep_scale
    sweep_gate_s = sweep["search.gate"].total_s * sweep_scale
    eigen_s = sweep["search.eigvals"].total_s * sweep_scale
    refine_gate_calls = full["search.gate"].calls - sweep["search.gate"].calls
    refine_accepted = full["search.gate"].true_count - sweep["search.gate"].true_count
    numeric_calls = full["rootcheck.numeric"].calls
    return {
        "search.lattice_points": lattice_points,
        "search.sweep_s": sweep_run_s,
        "search.sweep_self_s": sweep_run_s - eigen_s - sweep_gate_s,
        "search.eigen_gate_calls": sweep["search.eigvals"].calls,
        "search.eigen_gate_s": eigen_s,
        "search.sweep_gate_calls": sweep["search.gate"].calls,
        "search.sweep_gate_s": sweep_gate_s,
        "search.refine_s": full["search.run"].total_s - sweep_run_s,
        "search.refine_gate_calls": refine_gate_calls,
        "search.refine_gate_s": full["search.gate"].total_s - sweep_gate_s,
        "search.refine_accept_ratio": refine_accepted / refine_gate_calls if refine_gate_calls else 0.0,
        "search.pool_speedup": pool_speedup,
        "rootcheck.gate_calls": full["search.gate"].calls + full["model.gate"].calls,
        "rootcheck.numeric_calls": numeric_calls,
        "rootcheck.numeric_s": full["rootcheck.numeric"].total_s,
        "rootcheck.np_roots_calls": full["rootcheck.np_roots"].calls,
        "rootcheck.roots_per_numeric": full["rootcheck.np_roots"].calls / numeric_calls
        if numeric_calls else 0.0,
        "model.validate_calls": full["model.validate"].calls,
        "model.validate_s": full["model.validate"].total_s,
        "model.rejected": full["model.validate"].raised,
        "model.report_s": full["model.report"].total_s,
        "series.mul_calls": full["series.mul"].calls,
        "series.mul_s": full["series.mul"].self_s,
        "series.reciprocal_s": full["series.reciprocal"].self_s,
        "series.compose_s": full["series.compose"].self_s,
        "series.revert_s": full["series.revert"].self_s,
        "series.log_unit_s": full["series.log_unit"].self_s,
        "cli.self_s": full["cli.main"].self_s,
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
