"""Correctness checks on the outputs of the benchmark's timed blocks.

Every check returns a list of problems; an empty list means it passed. The
checks compare against a computation made apart from the fast path (see
oracles.py) or against a property the method must have.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

ORACLE_RTOL = 1e-9  # fast path against a per-pair or brute-force oracle
METRIC_RTOL = 1e-9  # detector metric against the brute-force search
REDUCED_RTOL = 1e-12  # PSO fitness against the per-pair reduced objectives


def bit_counts(points, snr_grid: Sequence[float], bits_per_point: int) -> list[str]:
    """One simulation point per SNR, each with exactly its fixed bit count."""
    got = [p.snr_db for p in points]
    if got != list(snr_grid):
        return [f"sweep returned SNR points {got}, expected {list(snr_grid)}"]
    return [
        f"{p.snr_db} dB: {p.bits} bits, expected {bits_per_point}"
        for p in points
        if p.bits != bits_per_point or p.kind != "simulation"
    ]


def noiseless(points, bits_per_point: int) -> list[str]:
    """A noiseless point must be detected without a single error."""
    problems = bit_counts(points, [math.inf], bits_per_point)
    problems += [f"noiseless point has {p.errors} bit errors" for p in points if p.errors]
    return problems


def below_bound(points, theory) -> list[str]:
    """Every simulated BER lies strictly below the union bound at its SNR."""
    bound = {t.snr_db: t.ber for t in theory}
    problems = []
    for p in points:
        if p.snr_db not in bound:
            problems.append(f"no bound at {p.snr_db} dB")
        elif not p.ber < bound[p.snr_db]:
            problems.append(f"{p.snr_db} dB: BER {p.ber:.4g} >= bound {bound[p.snr_db]:.4g}")
    return problems


def detections_match(detected, searched) -> list[str]:
    """Detector decisions equal the brute-force search's, frame by frame.

    Both are sequences of (payload bits, metric)."""
    problems = []
    for k, ((bits, metric), (ref_bits, ref_metric)) in enumerate(zip(detected, searched)):
        if not np.array_equal(bits, ref_bits):
            problems.append(f"frame {k}: detector payload {bits} != search payload {ref_bits}")
        if not math.isclose(metric, ref_metric, rel_tol=METRIC_RTOL, abs_tol=1e-12):
            problems.append(f"frame {k}: detector metric {metric!r} != search metric {ref_metric!r}")
    if len(detected) != len(searched):
        problems.append(f"{len(detected)} detections against {len(searched)} searches")
    return problems


def curve_shape(curve: Sequence[float]) -> list[str]:
    """The bound lies in (0, 1] and falls over the SNR grid.

    It falls strictly wherever it is below 1; above that the union bound is
    clipped to 1, so equal leading values are allowed."""
    problems = [f"bound value {b!r} outside (0, 1]" for b in curve if not 0.0 < b <= 1.0]
    for k, (a, b) in enumerate(zip(curve, curve[1:])):
        if b > a or (a < 1.0 and not b < a):
            problems.append(f"bound does not fall from point {k} to {k + 1}: {a!r} -> {b!r}")
    return problems


def curves_match(curve: Sequence[float], reference: Sequence[float], what: str) -> list[str]:
    curve, reference = np.asarray(curve, dtype=float), np.asarray(reference, dtype=float)
    if curve.shape != reference.shape:
        return [f"{what}: {curve.size} values against {reference.size}"]
    if np.allclose(curve, reference, rtol=ORACLE_RTOL, atol=0.0):
        return []
    worst = float(np.max(np.abs(curve - reference) / np.abs(reference)))
    return [f"{what}: relative gap {worst:.3g} exceeds {ORACLE_RTOL:g}"]


def alphabet_valid(values: Sequence[float]) -> list[str]:
    problems = [f"value {v!r} outside (0, 1)" for v in values if not 0.0 < v < 1.0]
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append(f"alphabet {tuple(values)} is not sorted and distinct")
    return problems


def fitness_consistent(fitness: float, rescored: float, pair_minimum: float) -> list[str]:
    """The reported fitness is the public scorer's value of the alphabet, exactly,
    and the minimum of the per-pair reduced objectives to REDUCED_RTOL."""
    problems = []
    if fitness != rescored:
        problems.append(f"fitness {fitness!r} != min_pair_objective {rescored!r}")
    if not math.isclose(fitness, pair_minimum, rel_tol=REDUCED_RTOL):
        problems.append(f"fitness {fitness!r} != min reduced_objective {pair_minimum!r}")
    return problems


def history_monotone(history) -> list[str]:
    values = [best for _, best in history]
    return [
        f"best fitness falls at iteration {k + 1}: {a!r} -> {b!r}"
        for k, (a, b) in enumerate(zip(values, values[1:]))
        if b < a
    ]
