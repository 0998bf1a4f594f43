"""The benchmark's workloads: set-up, one fixed-work timed block, and checks.

A workload object is made for one seed and size. `setup()` does what every
CLI call pays before the first item (codebook, detector tables, objective
context, all with cold caches), `block()` runs one fixed amount of work and
returns its output, `check_output()` checks one block's output and
`check_run()` runs the checks that need extra computation. Calls into the
package go through module attributes, so a traced run sees them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from afdm_pim import analysis, detection, mapping, optimizer, simulate
from afdm_pim.channel import apply_channel_time, sample_channel
from afdm_pim.transceiver import add_cpp, modulate, remove_cpp

import checks
import oracles

# A min_errors that never stops a sweep, so the bit budget fixes the frame count.
NO_ERROR_STOP = 2**62
SAMPLE_STREAM = 7  # random stream of the detector-check frames, apart from the sweep's


class BerWorkload:
    """`run_ber_sweep` on a preset with a fixed frame count at each SNR point."""

    def __init__(
        self,
        preset: str,
        seed: int,
        snr_grid_db: tuple[float, ...] | None,
        frames: int,
        noiseless_frames: int,
        sample_frames: int,
        sample_snr_db: float,
        bound_frames: int,
    ) -> None:
        self.preset, self.seed = preset, seed
        self.snr_grid_db = snr_grid_db
        self.frames = frames
        self.noiseless_frames = noiseless_frames
        self.sample_frames = sample_frames
        self.sample_snr_db = sample_snr_db
        self.bound_frames = bound_frames  # frames per point of the sweep checked against the bound

    def setup(self) -> None:
        base = simulate.make_preset(self.preset, self.seed)
        self.bits_per_frame = mapping.frame_bit_count(base.cfg)
        self.scenario = replace(
            base,
            snr_grid_db=self.snr_grid_db or base.snr_grid_db,
            min_bits=self.frames * self.bits_per_frame,
            min_errors=NO_ERROR_STOP,
            include_theory=False,
        )
        self.detector = detection.MLDetector(base.cfg, base.alphabet)

    @property
    def items_per_block(self) -> int:
        """Frames detected per block."""
        return len(self.scenario.snr_grid_db) * self.frames

    def block(self):
        return simulate.run_ber_sweep(self.scenario)

    def check_output(self, points) -> list[str]:
        sc = self.scenario
        return checks.bit_counts(points, sc.snr_grid_db, self.frames * self.bits_per_frame)

    def check_run(self) -> list[str]:
        noiseless = replace(
            self.scenario,
            snr_grid_db=(math.inf,),
            min_bits=self.noiseless_frames * self.bits_per_frame,
        )
        problems = checks.noiseless(
            simulate.run_ber_sweep(noiseless), self.noiseless_frames * self.bits_per_frame
        )
        if self.bound_frames:
            # a longer sweep than a block, so that no seed's error burst crosses the bound
            longer = replace(self.scenario, min_bits=self.bound_frames * self.bits_per_frame)
            problems += checks.below_bound(
                simulate.run_ber_sweep(longer), simulate.theory_points(self.scenario)
            )
        return problems + checks.detections_match(*self.sample_detections())

    def sample_detections(self):
        """Detector and brute-force decisions on frames built one at a time
        through the single-frame public path."""
        sc = self.scenario
        cfg, alphabet = sc.cfg, sc.alphabet
        frames, payloads = oracles.codeword_frames(cfg, alphabet)
        n0 = simulate.noise_variance_from_snr_db(self.sample_snr_db)
        rng = np.random.default_rng([self.seed, SAMPLE_STREAM])
        detected, searched = [], []
        for _ in range(self.sample_frames):
            frame = mapping.bits_to_frame(rng.integers(0, 2, self.bits_per_frame), cfg, alphabet)
            tx = add_cpp(modulate(frame.symbols, cfg, alphabet, frame.pcpg), cfg)
            ch = sample_channel(cfg, sc.p_paths, rng)
            body = remove_cpp(apply_channel_time(tx, ch, cfg, rng, n0), cfg)
            detected.append(self.detector.detect(body, ch))
            best, metric = oracles.ml_search(frames, body, ch, cfg)
            searched.append((payloads[best], metric))
        return detected, searched


class BoundWorkload:
    """`theory_points` of a preset: the union bound under the Jakes law."""

    def __init__(self, preset: str, reference, oracle_presets: tuple[str, ...]):
        self.preset = preset
        self.reference = reference  # stored curve, or None to recompute it here
        self.oracle_presets = oracle_presets

    def setup(self) -> None:
        self.scenario = simulate.make_preset(self.preset)
        detection.codeword_time_signals(self.scenario.cfg, self.scenario.alphabet)

    @property
    def items_per_block(self) -> int:
        """Codeword pairs times geometries of the Jakes mixture."""
        sc = self.scenario
        count = 2 ** mapping.frame_bit_count(sc.cfg)
        geometries = len(analysis.jakes_geometry_mixture(sc.cfg, sc.p_paths))
        return count * (count - 1) // 2 * geometries

    def block(self) -> list[float]:
        return [p.ber for p in simulate.theory_points(self.scenario)]

    def check_output(self, curve) -> list[str]:
        reference = self.reference
        if reference is None:
            reference = oracle_curve(self.scenario)
        return checks.curve_shape(curve) + checks.curves_match(
            curve, reference, f"{self.preset} against its per-pair reference"
        )

    def check_run(self) -> list[str]:
        problems = []
        for preset in self.oracle_presets:
            scenario = simulate.make_preset(preset)
            fast = [p.ber for p in simulate.theory_points(scenario)]
            problems += checks.curves_match(
                fast, oracle_curve(scenario), f"{preset} against the per-pair oracle"
            )
        return problems


def oracle_curve(scenario) -> np.ndarray:
    _, n0s = oracles.theory_grid(scenario)
    return oracles.bound_by_pairs(scenario.cfg, scenario.alphabet, scenario.p_paths, n0s)


def fig4_reference() -> list[float]:
    record = oracles.load_reference()
    snrs, _ = oracles.theory_grid(simulate.make_preset("fig4"))
    if record["snr_db"] != snrs:
        raise ValueError(f"stored fig4 reference is on {record['snr_db']}, not {snrs}")
    return record["bound"]


class DesignWorkload:
    """`pso_optimize` on the fig7 geometry with a small swarm and a fixed seed."""

    def __init__(self, particles: int, iterations: int, swarm_seed: int):
        self.params = optimizer.PsoParams(n_particles=particles, max_iterations=iterations)
        self.swarm_seed = swarm_seed

    def setup(self) -> None:
        scenario = simulate.make_preset("fig7_pim")
        self.cfg = scenario.cfg
        self.ctx = optimizer.build_objective_context(scenario.cfg, scenario.p_paths)

    @property
    def items_per_block(self) -> int:
        """Particle evaluations: particles times (iterations + 1)."""
        return self.params.n_particles * (self.params.max_iterations + 1)

    def block(self):
        rng = np.random.default_rng(self.swarm_seed)
        return optimizer.pso_optimize(self.cfg, self.ctx, self.params, rng)

    def check_output(self, result) -> list[str]:
        values = tuple(result.alphabet.values)
        problems = checks.alphabet_valid(values)
        pair_minimum = min(
            optimizer.reduced_objective(values, self.ctx, pair) for pair in self.ctx.pairs
        )
        problems += checks.fitness_consistent(
            result.fitness, optimizer.min_pair_objective(values, self.ctx), pair_minimum
        )
        return problems + checks.history_monotone(result.history)

    def check_run(self) -> list[str]:
        return []


NAMES = ("ber_fig7", "ber_fig8", "bound_fig4", "design_fig7")


def make(name: str, seed: int):
    """The workload at its benchmark size. The seed draws the BER workloads'
    payloads, channels and noise; the bound and the design have no random
    input apart from the swarm's fixed seed, so it does not change them."""
    if name == "ber_fig7":
        return BerWorkload(
            "fig7_pim", seed, (10.0,), frames=16,
            noiseless_frames=64, sample_frames=8, sample_snr_db=10.0, bound_frames=0,
        )
    if name == "ber_fig8":
        return BerWorkload(
            "fig8_hi", seed, None, frames=1024,
            noiseless_frames=6144, sample_frames=64, sample_snr_db=10.0, bound_frames=8192,
        )
    if name == "bound_fig4":
        return BoundWorkload("fig4", fig4_reference(), ("fig8_lo", "fig8_hi"))
    if name == "design_fig7":
        return DesignWorkload(particles=4, iterations=1, swarm_seed=42)
    raise ValueError(f"unknown workload {name!r}; choices: {', '.join(NAMES)}")
