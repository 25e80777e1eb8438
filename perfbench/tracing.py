"""Span tracing of the tosda layers from outside the package.

The package calls its own layers through module attributes
(``coarray.to_eca``, ``geometry.build_generator``, the stage calls inside
``monte_carlo``), so replacing those attributes with recording shims sees
every call without touching the package source.  Spans stay in memory
and are written once, when the benchmark ends.

The traced run is single-threaded: the parent of a span is the span
open on the one call stack.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

# Public functions wrapped per layer; ``cli`` only parses arguments and
# writes files, so it is not traced.
TRACED = {
    "geometry": ("build_to_sda", "build_generator", "build_gtoa"),
    "coarray": ("to_eca", "toca", "report_from_multiset", "index_lag_map"),
    "designer": ("dof_sweep", "brute_force_split", "split_closed_form"),
    "metrics": ("coupling_matrix",),
    "simulator": (
        "monte_carlo",
        "synthesize_snapshots",
        "sample_third_cumulants",
        "virtual_array_vector",
        "ss_music",
    ),
}

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists
# them.  "Per pass" means per monte_carlo call in mc-* and per full sweep
# in design-sweep; percentiles are over single calls.
PER_LAYER = (
    ("simulator.synthesize_snapshots.self_s", "s"),
    ("simulator.sample_third_cumulants.self_s.p50", "s"),
    ("simulator.sample_third_cumulants.self_s.p90", "s"),
    ("simulator.virtual_array_vector.self_s", "s"),
    ("simulator.ss_music.self_s.p50", "s"),
    ("simulator.ss_music.self_s.p90", "s"),
    ("simulator.ss_music.first_s", "s"),
    ("simulator.ss_music.calls", "count"),
    ("simulator.ss_music.padded", "count"),
    ("simulator.parallel_eff", "ratio"),
    ("coarray.index_lag_map.s", "s"),
    ("coarray.index_lag_map.calls", "count"),
    ("coarray.to_eca.calls", "count"),
    ("coarray.to_eca.self_s", "s"),
    ("coarray.toca.s", "s"),
    ("coarray.report_from_multiset.s", "s"),
    ("designer.brute_force_split.s.p50", "s"),
    ("designer.brute_force_split.s.p90", "s"),
    ("designer.feasible_ratio", "ratio"),
    ("designer.disagreements", "count"),
    ("geometry.build_generator.calls", "count"),
    ("geometry.build_generator.failed", "count"),
    ("geometry.build_gtoa.calls", "count"),
    ("metrics.coupling_matrix.calls", "count"),
    ("metrics.coupling_matrix.s", "s"),
    ("trace_overhead_frac", "ratio"),
)

_NAME, _START, _END, _PARENT, _TRIAL, _PHASE, _FAILED, _NOTE = range(8)


class Tracer:
    """Records one span per call of the functions in :data:`TRACED`.

    A span is ``[name, start, end, parent, trial, phase, failed, note]``.
    ``trial`` increments each time ``trial_start`` is entered, so all
    spans of one Monte-Carlo trial or one sweep row share it.  ``note``
    holds ``peaks_padded`` for ``ss_music`` spans.
    """

    def __init__(self, package, trial_start: str):
        self.package = package
        self.trial_start = trial_start
        self.spans: list[list] = []
        self.phase = "setup"
        self._trial = -1
        self._stack: list[int] = []
        self._originals: dict[tuple[str, str], object] = {}

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self._trial,
                self.phase, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == self.trial_start:
                self._trial += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_FAILED] = True
                raise
            finally:
                self._close(span)
            if name == "simulator.ss_music":
                span[_NOTE] = bool(result.peaks_padded)
            return result

        return traced

    @contextmanager
    def active(self):
        """Install the shims for the duration of the block."""
        for module_name, names in TRACED.items():
            module = getattr(self.package, module_name)
            for attr in names:
                original = getattr(module, attr)
                self._originals[(module_name, attr)] = original
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))
        try:
            yield self
        finally:
            for (module_name, attr), original in self._originals.items():
                setattr(getattr(self.package, module_name), attr, original)
            self._originals.clear()

    @contextmanager
    def span(self, name: str):
        """A span owned by the benchmark itself, such as one pass."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def dump(self, path) -> None:
        columns = ("name", "start", "end", "parent", "trial", "phase",
                   "failed", "note")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": columns, "spans": self.spans}, fh)


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(spans, passes: int, stages, threads: int,
                  pass_walls, single_thread_walls, disagreements: int) -> dict:
    """Per-layer metrics of the run phase of a traced run.

    ``pass_walls`` are the untraced wall times of the traced passes at the
    workload's thread count and ``single_thread_walls`` those of the same
    passes untraced on one thread.  ``stages`` name the spans that make up
    the blocking work of a pass.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[_PARENT] >= 0:
            child_time[s[_PARENT]] += s[_END] - s[_START]
    # record per run-phase span: (duration, self time, span, pass number);
    # spans are stored in start order, so a span belongs to the last pass
    # span that started before it
    by_name: dict[str, list[tuple[float, float, list, int]]] = {}
    pass_no = -1
    for i, s in enumerate(spans):
        if s[_PHASE] == "run":
            pass_no += s[_NAME] == "bench.pass"
            dur = s[_END] - s[_START]
            by_name.setdefault(s[_NAME], []).append((dur, dur - child_time[i], s, pass_no))

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def total(name, column):
        return sum(rec[column] for rec in by_name.get(name, ())) / passes

    def pct(name, column, q):
        return _quantile([rec[column] for rec in by_name.get(name, ())], q)

    def flagged(name, column):
        return sum(1 for rec in by_name.get(name, ()) if rec[2][column]) / passes

    first_music = next((s for s in spans if s[_NAME] == "simulator.ss_music"), None)
    # Stage busy time ÷ (wall × threads).  Busy time comes from the traced
    # single-thread pass; it is taken as a share of that pass so tracing
    # overhead cancels, and scaled to the untraced single-thread wall.
    traced_walls = [rec[0] for rec in by_name["bench.pass"]]
    busy = [0.0] * passes
    for name in stages:
        for rec in by_name.get(name, ()):
            busy[rec[3]] += rec[0]
    efficiency = [b / t * w1 / (w * threads) for b, t, w1, w in
                  zip(busy, traced_walls, single_thread_walls, pass_walls)]
    overhead = [t / w1 - 1.0 for t, w1 in zip(traced_walls, single_thread_walls)]
    generator_calls = calls("geometry.build_generator")

    values = {
        "simulator.synthesize_snapshots.self_s": total("simulator.synthesize_snapshots", 1),
        "simulator.sample_third_cumulants.self_s.p50": pct("simulator.sample_third_cumulants", 1, 0.5),
        "simulator.sample_third_cumulants.self_s.p90": pct("simulator.sample_third_cumulants", 1, 0.9),
        "simulator.virtual_array_vector.self_s": total("simulator.virtual_array_vector", 1),
        "simulator.ss_music.self_s.p50": pct("simulator.ss_music", 1, 0.5),
        "simulator.ss_music.self_s.p90": pct("simulator.ss_music", 1, 0.9),
        "simulator.ss_music.first_s": (
            first_music[_END] - first_music[_START] if first_music else 0.0
        ),
        "simulator.ss_music.calls": calls("simulator.ss_music"),
        "simulator.ss_music.padded": flagged("simulator.ss_music", _NOTE),
        "simulator.parallel_eff": statistics.median(efficiency),
        "coarray.index_lag_map.s": total("coarray.index_lag_map", 0),
        "coarray.index_lag_map.calls": calls("coarray.index_lag_map"),
        "coarray.to_eca.calls": calls("coarray.to_eca"),
        "coarray.to_eca.self_s": total("coarray.to_eca", 1),
        "coarray.toca.s": total("coarray.toca", 0),
        "coarray.report_from_multiset.s": total("coarray.report_from_multiset", 0),
        "designer.brute_force_split.s.p50": pct("designer.brute_force_split", 0, 0.5),
        "designer.brute_force_split.s.p90": pct("designer.brute_force_split", 0, 0.9),
        "designer.feasible_ratio": (
            calls("geometry.build_gtoa") / generator_calls if generator_calls else 0.0
        ),
        "designer.disagreements": disagreements,
        "geometry.build_generator.calls": calls("geometry.build_generator"),
        "geometry.build_generator.failed": flagged("geometry.build_generator", _FAILED),
        "geometry.build_gtoa.calls": calls("geometry.build_gtoa"),
        "metrics.coupling_matrix.calls": calls("metrics.coupling_matrix"),
        "metrics.coupling_matrix.s": total("metrics.coupling_matrix", 0),
        "trace_overhead_frac": statistics.median(overhead),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
