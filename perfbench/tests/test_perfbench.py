"""Tests of the benchmark itself: reduced workloads and the checks' teeth.

    python3 -m pytest perfbench/tests -q

Each workload runs at a reduced fixed size through the same code path as the
benchmark, and each correctness check is shown to reject a wrong output.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def small_ber_fig7():
    return workloads.BerWorkload(
        "fig7_pim", 3, (10.0,), frames=2,
        noiseless_frames=2, sample_frames=1, sample_snr_db=10.0, bound_frames=0,
    )


def small_ber_fig8():
    return workloads.BerWorkload(
        "fig8_hi", 3, None, frames=1024,
        noiseless_frames=256, sample_frames=8, sample_snr_db=10.0, bound_frames=1024,
    )


def small_bound():
    return workloads.BoundWorkload("fig8_lo", None, ("fig8_lo",))


def small_design():
    return workloads.DesignWorkload(particles=2, iterations=1, swarm_seed=42)


@pytest.fixture(scope="module")
def fig8():
    wl = small_ber_fig8()
    wl.setup()
    return wl


@pytest.fixture(scope="module")
def design():
    wl = small_design()
    wl.setup()
    return wl


@pytest.mark.parametrize("make", [small_ber_fig7, small_ber_fig8, small_bound, small_design])
def test_reduced_workload_passes_its_checks(make):
    wl = make()
    wl.setup()
    res = worker.measure(wl, seconds=0.0)
    assert res["problems"] == []
    assert res["failed"] == 0 and len(res["block_s"]) == 1
    assert res["items_per_block"] > 0 and res["peak_rss_mib"] > 0


def test_benchmark_sizes():
    assert workloads.make("ber_fig7", 1).frames == 16
    bound = workloads.make("bound_fig4", 1)
    bound.setup()
    assert bound.items_per_block == 523_776 * 20
    assert len(bound.reference) == 6
    design = workloads.make("design_fig7", 1)
    assert design.items_per_block == 4 * 2


def test_repeated_blocks_must_agree(design):
    out = design.block()
    other = replace(out, fitness=out.fitness + 1.0)
    problems, failed = worker.check_blocks(design, [out, out, other])
    assert failed == 1 and problems == ["block 2 differs from block 0"]


def test_partial_sweep_is_rejected(fig8):
    points = fig8.block()
    bits = points[0].bits - fig8.bits_per_frame
    short = [replace(points[0], bits=bits, ber=points[0].errors / bits)] + points[1:]
    assert checks.bit_counts(short, fig8.scenario.snr_grid_db, points[1].bits)
    assert checks.bit_counts(points[:-1], fig8.scenario.snr_grid_db, points[1].bits)
    assert fig8.check_output(points) == []


def test_noiseless_errors_are_rejected(fig8):
    point = SimpleNamespace(snr_db=math.inf, bits=60, errors=1, kind="simulation")
    assert checks.noiseless([point], 60) == ["noiseless point has 1 bit errors"]
    assert checks.noiseless([replace_ns(point, errors=0)], 60) == []


def test_flipped_decision_bit_is_rejected(fig8):
    detected, searched = fig8.sample_detections()
    assert checks.detections_match(detected, searched) == []
    bits, metric = detected[0]
    flipped = bits.copy()
    flipped[0] ^= 1
    assert checks.detections_match([(flipped, metric)] + detected[1:], searched)
    assert checks.detections_match([(bits, metric * (1 + 1e-6))] + detected[1:], searched)


def test_perturbed_bound_is_rejected(fig8):
    scenario = fig8.scenario
    curve = [p.ber for p in workloads.simulate.theory_points(scenario)]
    reference = workloads.oracle_curve(scenario)
    assert checks.curves_match(curve, reference, "fig8_hi") == []
    wrong = list(curve)
    wrong[3] *= 1 + 1e-6
    assert checks.curves_match(wrong, reference, "fig8_hi")
    assert checks.curve_shape(curve) == []
    assert checks.curve_shape(curve[:3] + [curve[2] * 1.01] + curve[4:])
    assert checks.curve_shape([0.0] + curve[1:])


def test_bound_below_simulation_is_rejected(fig8):
    points = fig8.block()
    theory = workloads.simulate.theory_points(fig8.scenario)
    assert checks.below_bound(points, theory) == []
    low = [replace(t, ber=t.ber / 10) if t.snr_db == 20.0 else t for t in theory]
    assert len(checks.below_bound(points, low)) == 1


def test_swapped_alphabet_value_is_rejected(design):
    out = design.block()
    assert design.check_output(out) == []
    values = list(out.alphabet.values)
    values[0], values[1] = values[1], values[0]
    swapped = SimpleNamespace(
        alphabet=SimpleNamespace(values=tuple(values)), fitness=out.fitness, history=out.history
    )
    assert any("not sorted" in p for p in design.check_output(swapped))


def test_wrong_fitness_and_falling_history_are_rejected(design):
    out = design.block()
    assert design.check_output(replace(out, fitness=out.fitness * (1 + 1e-9)))
    history = out.history + ((len(out.history), out.history[-1][1] - 1.0),)
    assert checks.history_monotone(history)


def test_oracles_agree_with_fast_detector(fig8):
    frames, payloads = oracles.codeword_frames(fig8.scenario.cfg, fig8.scenario.alphabet)
    assert np.allclose(frames, fig8.detector.candidates, rtol=0, atol=1e-12)
    assert np.array_equal(payloads, fig8.detector.payload_bits)


def test_traced_pass_reports_every_layer_metric():
    wls = {
        "ber_fig7": small_ber_fig7(),
        "ber_fig8": small_ber_fig8(),
        "bound_fig4": small_bound(),
        "design_fig7": small_design(),
    }
    before = (workloads.simulate.run_ber_sweep, np.linalg.eigvalsh, workloads.detection.MLDetector.detect)
    res = worker.trace_pass(wls)
    assert res["problems"] == [] and res["failed"] == 0 and res["attempted"] == 4
    metrics = res["layer_metrics"]
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert metrics["detection.detect_calls"]["value"] == 2
    # fig8_lo: 2 reachable cells, so 4 geometries of 3 paths, one path image each
    assert metrics["analysis.images_calls"]["value"] == 4
    assert metrics["analysis.eig_matrices"]["value"] == 2016 * 4
    after = (workloads.simulate.run_ber_sweep, np.linalg.eigvalsh, workloads.detection.MLDetector.detect)
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # ber_fig8 and bound_fig4 run in the traced pass only: their end-to-end figures are not steady
    assert [w["name"] for w in spec["workloads"]] == ["ber_fig7", "design_fig7"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {"items_per_s", "setup_s", "peak_rss_mb"}


def test_run_without_package_source_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ber_fig8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def replace_ns(ns, **changes):
    return SimpleNamespace(**dict(vars(ns), **changes))
