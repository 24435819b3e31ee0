"""Span tracer that wraps public functions at the module boundaries of ucv.

Nothing under src/ changes: the tracer replaces module attributes and
class attributes with timing wrappers for the duration of a `with`
block and puts every original back on exit, error or not.  Spans are
kept in memory as [name, parent, start, end, pass, outcome] lists and
written out by the caller at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    true_count: int = 0
    raised: int = 0


class Tracer:
    """Collects spans from wrapped callables; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_name = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self.pass_name, None]
            spans.append(rec)
            stack.append(idx)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if isinstance(result, bool):
                rec[5] = result
            return result

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr with a traced wrapper until the tracer exits.

        For a class the raw entry of its __dict__ is saved, so that a
        classmethod comes back as the same descriptor.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
        else:
            original = getattr(owner, attr)
            replacement = self._wrap(original, name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def aggregate(self, pass_name: str) -> dict[str, Aggregate]:
        """Per span name: calls, inclusive time, self time (inclusive minus
        the time of direct child spans), True results and exceptions."""
        child_s = defaultdict(float)
        for rec in self.spans:
            if rec[1] >= 0:
                child_s[rec[1]] += rec[3] - rec[2]
        out: dict[str, Aggregate] = defaultdict(Aggregate)
        for idx, rec in enumerate(self.spans):
            if rec[4] != pass_name:
                continue
            agg = out[rec[0]]
            dur = rec[3] - rec[2]
            agg.calls += 1
            agg.total_s += dur
            agg.self_s += dur - child_s[idx]
            if rec[5] is True:
                agg.true_count += 1
            elif isinstance(rec[5], str):
                agg.raised += 1
        return out

    def write(self, path, meta: dict) -> None:
        """One JSON document: run metadata plus every span, times in
        seconds relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [
            [name, parent, round(start - t0, 9), round(end - t0, 9), pass_name, outcome]
            for name, parent, start, end, pass_name, outcome in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "span_fields": ["name", "parent", "start_s", "end_s", "pass", "outcome"],
                       "spans": rows}, fh, separators=(",", ":"))


def install_ucv_wrappers(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    import numpy
    import ucv.cli
    import ucv.model
    import ucv.rootcheck
    import ucv.search
    from ucv.model import CoefficientReport
    from ucv.series import TruncatedSeries

    tracer.patch(ucv.cli, "main", "cli.main")
    tracer.patch(ucv.cli, "verify_bounds", "search.run")
    tracer.patch(ucv.cli, "conjecture_scan", "search.run")
    tracer.patch(ucv.search, "nonvanishing_in_open_disk", "search.gate")
    tracer.patch(numpy.linalg, "eigvals", "search.eigvals")
    tracer.patch(ucv.model, "validate", "model.validate")
    tracer.patch(CoefficientReport, "from_member", "model.report")
    tracer.patch(ucv.model, "nonvanishing_in_open_disk", "model.gate")
    tracer.patch(ucv.rootcheck, "min_root_modulus", "rootcheck.numeric")
    tracer.patch(numpy, "roots", "rootcheck.np_roots")
    for method in ("__mul__", "reciprocal", "compose", "revert", "log_unit"):
        tracer.patch(TruncatedSeries, method, f"series.{method.strip('_')}")
