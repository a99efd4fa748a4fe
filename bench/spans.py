"""Timing spans around csrecon's public functions, recorded from outside the library.

:func:`install` replaces each traced function in every ``csrecon`` module
that binds it with a wrapper that records a span (name, start, end, parent,
operation id) in memory; :func:`uninstall` puts the originals back. The
three leaf kernels also record their peak Python-visible allocation with
``tracemalloc``, which sees numpy's array buffers.

csrecon runs single-threaded and queues nothing, so a span's time is all
busy time: there is no wait time to report.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Functions wrapped in the traced run, as "<module>.<function>" under csrecon.
TRACED = (
    "recon_core.initial_dft",
    "recon_core.build_cs_matrix",
    "recon_core.ls_solve",
    "recon_core.detect_positions",
    "recon_core.effective_threshold",
    "recon_core.idft",
    "recon_core.reconstruct",
    "recon_core.write_spectrum_csv",
    "recon_core.write_detection_csv",
    "hw_datapath.reconstruct_hardware",
    "hw_datapath.part1_pipeline",
    "hw_datapath.comparator",
    "hw_datapath.threshold_fixed",
    "hw_datapath.write_trace_csv",
    "hw_primitives.lut_log2",
    "hw_primitives.nr_sqrt",
    "signal_model.random_pattern",
    "signal_model.synthesize",
    "signal_model.read_signal_csv",
    "montecarlo.derive_trial_seed",
    "montecarlo.run_variance_calibration",
    "montecarlo.run_threshold_xcheck",
    "montecarlo.run_recovery_trials",
    "montecarlo.compute_metrics",
    "cli.main",
    "cli.cmd_calibrate",
    "cli.cmd_xcheck",
    "cli.cmd_recon",
)

# Leaf kernels whose peak allocation is measured.
ALLOC_TRACED = frozenset(
    {"recon_core.initial_dft", "recon_core.build_cs_matrix", "recon_core.ls_solve"}
)

ROOT = "op"

_BUILD = "recon_core.build_cs_matrix"
_SOLVE = "recon_core.ls_solve"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for an operation root
    op: int


class Recorder:
    """In-memory span log plus the counters taken at the same boundaries.

    ``truth`` is the true support of the step being run; the benchmark sets
    it so that solved columns can be split into useful and wasted ones.
    With ``measure_alloc`` the leaf kernels run under ``tracemalloc``, which
    slows allocation-heavy Python code, so timings come from a recorder
    without it.
    """

    def __init__(self, measure_alloc: bool = False) -> None:
        self.measure_alloc = measure_alloc
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self.truth: frozenset[int] = frozenset()
        self.errors: Counter[str] = Counter()
        self.peak_alloc: dict[str, int] = {}
        self.solved_cols = 0
        self.useful_cols = 0
        self._pending_useful = 0

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        """Root span around one benchmark operation."""
        self._op = op_id
        index = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(index)

    def wrap(self, name: str, fn):
        measure_alloc = self.measure_alloc and name in ALLOC_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_alloc = measure_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self._exit(index)
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc.get(name, 0), peak)
            if name == _BUILD:
                pos = args[2] if len(args) > 2 else kwargs["pos"]
                self._pending_useful = len(self.truth.intersection(int(k) for k in pos))
            elif name == _SOLVE:
                self.solved_cols += int(result.size)
                self.useful_cols += self._pending_useful
            return result

        return traced


class Untraced:
    """Stand-in for :class:`Recorder` when tracing is off."""

    truth: frozenset[int] = frozenset()

    @contextmanager
    def operation(self, op_id: int):
        yield


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every traced function wherever a csrecon module binds it.

    Several modules import these functions by name, so each binding is
    replaced, not only the defining one. Returns what :func:`uninstall`
    needs to restore the originals.
    """
    modules = [
        mod for key, mod in list(sys.modules.items())
        if key == "csrecon" or key.startswith("csrecon.")
    ]
    patched = []
    for name in TRACED:
        module_name, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"csrecon.{module_name}"), attr)
        wrapper = recorder.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for mod, key, original in reversed(patched):
        setattr(mod, key, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [
        (span.end - span.start) - _covered(children[i]) for i, span in enumerate(spans)
    ]


def per_layer(recorder: Recorder, n_ops: int, peak_alloc: dict[str, int]) -> dict[str, float]:
    """Per-operation means of self time and calls for every traced name,
    and the largest peak allocation of each leaf kernel."""
    selfs = self_times(recorder.spans)
    self_sum: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for span, own in zip(recorder.spans, selfs):
        self_sum[span.name] += own
        calls[span.name] += 1
    out = {}
    for name in (*TRACED, ROOT):
        out[f"{name}.self_ms"] = 1e3 * self_sum[name] / n_ops
        out[f"{name}.calls"] = calls[name] / n_ops
    for name in ALLOC_TRACED:
        out[f"{name}.peak_alloc_mb"] = peak_alloc.get(name, 0) / 2**20
    out[f"{_SOLVE}.errors"] = float(recorder.errors[_SOLVE])
    out[f"{_SOLVE}.useful_col_ratio"] = (
        recorder.useful_cols / recorder.solved_cols if recorder.solved_cols else 0.0
    )
    out[f"{ROOT}.traced_ms"] = 1e3 * sum(
        s.end - s.start for s in recorder.spans if s.name == ROOT
    ) / n_ops
    return out


def write_spans(path, spans: list[Span]) -> None:
    """One JSON object per line: name, start, end, parent, op."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
