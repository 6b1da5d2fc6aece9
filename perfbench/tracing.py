"""In-memory spans around the benchmark's calls into xxchain.

A span is (name, start, end, parent span index, op id).  Spans stay in
memory during a run and are written out once at the end; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

# Layer spans the benchmark records; every per-layer metric derives from these.
SPAN_NAMES = (
    "chain.build_single_particle",
    "spectral.diagonalize",
    "amplitudes.propagator",
    "fidelity.average_fidelity_exact",
    "fidelity.average_fidelity_approx",
    "fidelity.haar_average_mc",
    "fidelity.worst_case_fidelity",
    "protocol.find_transfer_time",
    "cli.spectrum",
    "cli.perturb",
    "cli.transfer-time",
    "cli.scan",
    "cli.amplitudes",
    "cli.fidelity",
    "cli.verify",
)

_NULL = contextlib.nullcontext()


class NoTrace:
    """Tracing off: every span is the same no-op context manager."""

    op_id = None

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """calls, self seconds per pass and median call duration per span name."""
        durations = {name: [] for name in SPAN_NAMES}
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            if name in durations:
                durations[name].append(end - start)
                self_s[name] += own
        out = {}
        for name in SPAN_NAMES:
            d = durations[name]
            out[f"{name}.calls"] = len(d)
            out[f"{name}.self_s"] = self_s[name] / passes
            out[f"{name}.p50_us"] = statistics.median(d) * 1e6 if d else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
