"""Spans around the package's public functions, and the per-layer metrics.

`install` wraps the functions listed in TRACED wherever a module of the
package holds them, so calls made inside the package are seen too. Spans are
kept in memory; `layer_metrics` reads each metric from the spans of the
workload that the README assigns it to.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from afdm_pim import channel, detection, optimizer

PROBE_ALPHABETS = 8  # alphabets on which the optimizer's scorers are timed
PROBE_SEED = 0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    size: int = 0  # work the call was given, where counted (matrices for eigvalsh)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, size: int = 0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, size))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn, sizer=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, sizer(*args) if sizer else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def _matrices(a, *_):
    return int(np.prod(np.shape(a)[:-2], dtype=np.int64))


# (owner, attribute, span name, sizer): module functions are patched in every
# module of the package that holds them; class attributes on the class.
TRACED = (
    (detection.MLDetector, "detect", "detect", None),
    (detection.MLDetector, "candidate_images", "candidate_images", None),
    (channel.ChannelRealization, "__init__", "ChannelRealization", None),
    ("afdm_pim", "codeword_table", "codeword_table", None),
    ("afdm_pim", "codeword_time_signals", "codeword_time_signals", None),
    ("afdm_pim", "run_ber_sweep", "run_ber_sweep", None),
    ("afdm_pim", "count_bit_errors", "count_bit_errors", None),
    ("afdm_pim", "path_image_tensor", "path_image_tensor", None),
    ("afdm_pim", "abep_curve_jakes", "abep_curve_jakes", None),
    ("afdm_pim", "build_objective_context", "build_objective_context", None),
    (np.linalg, "eigvalsh", "eigvalsh", _matrices),
)


def install(tracer: Tracer):
    """Wrap every TRACED function; returns a function that undoes it."""
    undo = []
    for owner, attr, name, sizer in TRACED:
        if isinstance(owner, str):
            mods = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == owner]
            original = next(getattr(m, attr) for m in mods if hasattr(m, attr))
            targets = [m for m in mods if getattr(m, attr, None) is original]
        else:
            original, targets = getattr(owner, attr), [owner]
        wrapped = tracer.wrap(name, original, sizer)
        for target in targets:
            setattr(target, attr, wrapped)
            undo.append((target, attr, original))

    def restore() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


def probe_scorers(design, tracer: Tracer) -> None:
    """Time the optimizer's two public scorers on a fixed set of alphabets."""
    rng = np.random.default_rng(PROBE_SEED)
    alphabets = np.sort(rng.uniform(0.0, 1.0, (PROBE_ALPHABETS, design.cfg.alphabet_size)), axis=1)
    for values in alphabets:
        with tracer.span("min_pair_objective"):
            optimizer.min_pair_objective(values, design.ctx)
        with tracer.span("collision_score"):
            optimizer.collision_score(values, design.ctx)


class _Phases:
    """Span lookups within the top-level span of one phase, such as block:ber_fig8."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.top: list[int] = []
        for k, s in enumerate(spans):
            if s.parent is None:
                self.top.append(k)
            else:
                self.child_time[s.parent] += s.end - s.start
                self.top.append(self.top[s.parent])

    def within(self, phase: str, name: str) -> list[int]:
        return [
            k for k, s in enumerate(self.spans)
            if s.name == name and self.spans[self.top[k]].name == phase
        ]

    def total(self, idx) -> float:
        return sum(self.spans[k].end - self.spans[k].start for k in idx)

    def self_total(self, idx) -> float:
        return self.total(idx) - sum(self.child_time[k] for k in idx)

    def mean(self, idx) -> float:
        return self.total(idx) / len(idx)


# name: (unit, better)
LAYER_METRICS = {
    "detection.detect_calls": ("count", "lower"),
    "detection.candidate_images_us": ("us/call", "lower"),
    "detection.metric_us": ("us/call", "lower"),
    "detection.tables_s": ("s", "lower"),
    "detection.candidates_mib": ("MiB", "lower"),
    "mapping.codeword_table_s": ("s", "lower"),
    "simulate.sweep_self_us": ("us/frame", "lower"),
    "simulate.count_bit_errors_us": ("us/call", "lower"),
    "channel.realization_us": ("us/frame", "lower"),
    "analysis.images_ms": ("ms/call", "lower"),
    "analysis.images_calls": ("count", "lower"),
    "analysis.eig_s": ("s", "lower"),
    "analysis.eig_matrices": ("count", "lower"),
    "analysis.scan_self_s": ("s", "lower"),
    "optimizer.context_s": ("s", "lower"),
    "optimizer.min_pair_objective_ms": ("ms/alphabet", "lower"),
    "optimizer.collision_score_ms": ("ms/alphabet", "lower"),
}


def layer_metrics(tracer: Tracer, workloads: dict) -> dict[str, float]:
    """Per-layer values from one traced pass over every workload."""
    ph = _Phases(tracer.spans)
    fig7, fig8, fig4, design = "ber_fig7", "ber_fig8", "bound_fig4", "design_fig7"
    detect = ph.within(f"block:{fig7}", "detect")
    frames8 = ph.within(f"block:{fig8}", "detect")
    images = ph.within(f"block:{fig4}", "path_image_tensor")
    eig = ph.within(f"block:{fig4}", "eigvalsh")
    return {
        "detection.detect_calls": len(detect),
        "detection.candidate_images_us": 1e6 * ph.mean(ph.within(f"block:{fig7}", "candidate_images")),
        "detection.metric_us": 1e6 * ph.self_total(detect) / len(detect),
        "detection.tables_s": ph.self_total(ph.within(f"setup:{fig7}", "codeword_time_signals")[:1]),
        # computed from the array's size, not measured
        "detection.candidates_mib": workloads[fig7].detector.candidates.nbytes / 2**20,
        "mapping.codeword_table_s": ph.total(ph.within(f"setup:{fig7}", "codeword_table")[:1]),
        "simulate.sweep_self_us": 1e6 * ph.self_total(ph.within(f"block:{fig8}", "run_ber_sweep")) / len(frames8),
        "simulate.count_bit_errors_us": 1e6 * ph.mean(ph.within(f"block:{fig8}", "count_bit_errors")),
        "channel.realization_us": 1e6 * ph.total(ph.within(f"block:{fig8}", "ChannelRealization")) / len(frames8),
        "analysis.images_ms": 1e3 * ph.mean(images),
        "analysis.images_calls": len(images),
        "analysis.eig_s": ph.total(eig),
        "analysis.eig_matrices": sum(tracer.spans[k].size for k in eig),
        "analysis.scan_self_s": ph.self_total(ph.within(f"block:{fig4}", "abep_curve_jakes")),
        "optimizer.context_s": ph.total(ph.within(f"setup:{design}", "build_objective_context")),
        "optimizer.min_pair_objective_ms": 1e3 * statistics.median(
            tracer.spans[k].end - tracer.spans[k].start
            for k in ph.within(f"probe:{design}", "min_pair_objective")
        ),
        "optimizer.collision_score_ms": 1e3 * statistics.median(
            tracer.spans[k].end - tracer.spans[k].start
            for k in ph.within(f"probe:{design}", "collision_score")
        ),
    }
