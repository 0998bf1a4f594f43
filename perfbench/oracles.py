"""Slow reference computations that the benchmark's checks compare against.

Each oracle is built apart from the fast path it checks: codeword frames come
from the single-frame path (`enumerate_codewords` and `modulate`) and path
images from the dense `time_domain_operator`, never from the cached codebook
tables or `path_image_tensor`. They are slow by design.

Run as a script to recompute the stored fig4 reference curve:

    python3 perfbench/oracles.py --write-reference

It takes about 15 minutes on one core and rewrites
perfbench/reference/fig4_bound.json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "fig4_bound.json"
REFERENCE_COMMAND = "python3 perfbench/oracles.py --write-reference"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from afdm_pim.analysis import jakes_geometry_mixture, pairwise_difference, upep  # noqa: E402
from afdm_pim.channel import ChannelRealization, time_domain_operator  # noqa: E402
from afdm_pim.mapping import enumerate_codewords  # noqa: E402
from afdm_pim.simulate import make_preset, noise_variance_from_snr_db  # noqa: E402
from afdm_pim.transceiver import modulate  # noqa: E402


def codeword_frames(cfg, alphabet) -> tuple[np.ndarray, np.ndarray]:
    """(prefix-free frames (C, N), payload bits (C, B)) of every codeword, in
    payload order, through `bits_to_frame` and `modulate` one codeword at a time."""
    frames, payloads = [], []
    for frame in enumerate_codewords(cfg, alphabet):
        frames.append(modulate(frame.symbols, cfg, alphabet, frame.pcpg))
        payloads.append(frame.payload_bits)
    return np.array(frames), np.array(payloads)


def unit_path_operator(cfg, delay: int, doppler: int) -> np.ndarray:
    """Dense (N, N) operator of one unit-gain path."""
    ch = ChannelRealization(gains=[1.0], delays=[delay], dopplers=[doppler])
    return time_domain_operator(ch, cfg)


def ml_search(frames: np.ndarray, received: np.ndarray, ch, cfg) -> tuple[int, float]:
    """Exhaustive ML search: (index of the closest codeword image, its metric).

    Ties go to the lowest index, as in the detector."""
    images = frames @ time_domain_operator(ch, cfg).T
    metrics = np.sum(np.abs(received[None, :] - images) ** 2, axis=1)
    best = int(np.argmin(metrics))
    return best, float(metrics[best])


def bound_by_pairs(cfg, alphabet, p_paths: int, n0_values) -> np.ndarray:
    """Union bound on the ABEP under the Jakes geometry law, one pair at a time.

    For every geometry of `jakes_geometry_mixture`, every unordered codeword
    pair is scored with `pairwise_difference` and `upep`. A cell that holds m
    paths carries gain variance m/P, so its column is scaled by sqrt(m) and
    `upep` divides by P.
    """
    frames, payload = codeword_frames(cfg, alphabet)
    count, b_total = payload.shape
    n0s = [float(n0) for n0 in n0_values]
    acc = np.zeros(len(n0s))
    for support, mult, weight in jakes_geometry_mixture(cfg, p_paths):
        phi = np.stack(
            [
                math.sqrt(m) * (frames @ unit_path_operator(cfg, d, a).T)
                for (d, a), m in zip(support, mult)
            ],
            axis=2,
        )
        for i in range(count - 1):
            for j in range(i + 1, count):
                pair = pairwise_difference(phi[i], phi[j])
                tau = int(np.count_nonzero(payload[i] != payload[j]))
                for k, n0 in enumerate(n0s):
                    acc[k] += weight * 2.0 * tau * upep(pair, p_paths, n0)
    return np.clip(acc / (b_total * 2.0**b_total), 0.0, 1.0)


def theory_grid(scenario) -> tuple[list[float], list[float]]:
    """The finite SNR points of a scenario and their noise variances."""
    snrs = [s for s in scenario.snr_grid_db if not math.isinf(s)]
    return snrs, [noise_variance_from_snr_db(s) for s in snrs]


def write_reference(path: Path = REFERENCE) -> dict:
    scenario = make_preset("fig4")
    snrs, n0s = theory_grid(scenario)
    start = time.perf_counter()
    bound = bound_by_pairs(scenario.cfg, scenario.alphabet, scenario.p_paths, n0s)
    record = {
        "preset": "fig4",
        "what": "union bound of theory_points('fig4'), recomputed one codeword pair "
        "at a time by perfbench/oracles.py:bound_by_pairs",
        "command": REFERENCE_COMMAND,
        "snr_db": snrs,
        "bound": [float(b) for b in bound],
        "seconds": round(time.perf_counter() - start, 1),
        "numpy": np.__version__,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true", required=True)
    parser.parse_args()
    print(json.dumps(write_reference()))
