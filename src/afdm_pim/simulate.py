"""Monte-Carlo BER sweeps, published-scenario presets, and CSV emission."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, TextIO

import numpy as np

from .analysis import abep_curve_jakes, bound_supports
from .channel import ChannelRealization, apply_channel_batch, complex_awgn, draw_paths
from .config import RandomSource, SystemConfig, read_section, system_config_from_items
from .detection import MLDetector, count_bit_errors
from .mapping import PreChirpAlphabet, bits_to_int, frame_bit_count, load_alphabet
from .transceiver import add_cpp

CSV_HEADER = "scheme,snr_db,kind,bits,errors,ber,seed"

_CHUNK_FRAMES = 128

# published candidate alphabets by size
TABLE_ALPHABETS: dict[int, tuple[float, ...]] = {
    2: (0.20, 0.60),
    3: (0.29, 0.62, 0.93),
    4: (0.01, 0.20, 0.41, 0.80),
}


@dataclass(frozen=True)
class Scenario:
    """One reproducible BER experiment."""

    name: str
    cfg: SystemConfig
    alphabet: PreChirpAlphabet
    p_paths: int
    snr_grid_db: tuple[float, ...]
    min_bits: int = 100_000
    min_errors: int = 100
    seed: int = 1
    include_theory: bool = True

    def __post_init__(self) -> None:
        if self.p_paths < 1:
            raise ValueError("p_paths must be >= 1")
        grid = tuple(float(s) for s in self.snr_grid_db)
        object.__setattr__(self, "snr_grid_db", grid)
        if not grid:
            raise ValueError("snr_grid_db is empty: no SNR point to simulate")
        for snr_db in grid:
            # +inf is the noiseless point; NaN or -inf has no noise variance to run
            if math.isnan(snr_db) or snr_db == -math.inf:
                raise ValueError(f"snr_grid_db holds {snr_db}: an SNR must be finite or +inf")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        for name in ("min_bits", "min_errors"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.min_errors < 100 and self.min_bits < 100_000:
            raise ValueError(
                "stopping rule too weak: need min_errors >= 100 or min_bits >= 1e5"
            )
        if len(self.alphabet) != self.cfg.alphabet_size:
            raise ValueError("alphabet size does not match the configuration")


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    bits: int
    errors: int
    ber: float
    kind: str  # simulation | theory

    def __post_init__(self) -> None:
        if self.kind not in ("simulation", "theory"):
            raise ValueError(f"unknown point kind {self.kind!r}")
        if not (0.0 <= self.ber <= 1.0):
            raise ValueError(f"ber {self.ber} outside [0, 1]")
        if self.kind == "simulation" and self.bits > 0:
            if abs(self.ber - self.errors / self.bits) > 1e-15:
                raise ValueError("ber must equal errors/bits")


def noise_variance_from_snr_db(snr_db: float) -> float:
    """SNR is 1/N0; an infinite SNR is the exact noiseless case."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return 10.0 ** (-snr_db / 10.0)


class SweepInterrupted(KeyboardInterrupt):
    """An interrupt ended a sweep early; `points` holds the simulation points
    accumulated until then, and no theory point."""

    def __init__(self, points: list[BerPoint]) -> None:
        super().__init__(f"interrupted after {len(points)} simulation points")
        self.points = points


def run_ber_sweep(scenario: Scenario) -> list[BerPoint]:
    """Simulate every SNR point until the stopping rule is met.

    Each frame sees a fresh channel realization (block fading). All draws
    come from streams keyed by (seed, point index, chunk index), so the
    output is a pure function of the scenario. An interrupt raises
    `SweepInterrupted` carrying the points finished so far plus the partially
    accumulated one.
    """
    cfg, alphabet = scenario.cfg, scenario.alphabet
    b_total = frame_bit_count(cfg)
    source = RandomSource(scenario.seed)
    points: list[BerPoint] = []
    bits = 0
    try:
        # an interrupt while the codebook tables are built ends the sweep too
        detector = MLDetector(cfg, alphabet)
        for point_idx, snr_db in enumerate(scenario.snr_grid_db):
            errors = bits = chunk_idx = 0
            n0 = noise_variance_from_snr_db(snr_db)
            while errors < scenario.min_errors and bits < scenario.min_bits:
                rng = source.generator(point_idx, chunk_idx)
                chunk_idx += 1
                payload = rng.integers(0, 2, size=(_CHUNK_FRAMES, b_total)).astype(np.int8)
                gains, delays, dopplers = draw_paths(
                    cfg, scenario.p_paths, rng, (_CHUNK_FRAMES,)
                )
                # only the frames the bit budget can reach are channelled; the whole
                # chunk's noise is still drawn, so no seeded stream depends on it
                frames = min(_CHUNK_FRAMES, -(-(scenario.min_bits - bits) // b_total))
                codeword_idx = bits_to_int(payload[:frames])
                prefixed = add_cpp(detector.candidates[codeword_idx], cfg)
                received = apply_channel_batch(
                    prefixed, gains[:frames], delays[:frames], dopplers[:frames], cfg
                )
                if n0 > 0.0:
                    received += complex_awgn(rng, (_CHUNK_FRAMES, prefixed.shape[1]), n0)[:frames]
                body = received[:, cfg.cpp_length :]

                for f in range(frames):
                    ch = ChannelRealization(gains[f], delays[f], dopplers[f])
                    detected, _ = detector.detect(body[f], ch)
                    errors += count_bit_errors(payload[f], detected)
                    bits += b_total
                    if errors >= scenario.min_errors or bits >= scenario.min_bits:
                        break
            points.append(_simulation_point(snr_db, bits, errors))
    except KeyboardInterrupt:
        # the point in progress, unless the interrupt came after its append
        if bits > 0 and len(points) == point_idx:
            points.append(_simulation_point(snr_db, bits, errors))
        raise SweepInterrupted(points) from None
    return points


def _simulation_point(snr_db: float, bits: int, errors: int) -> BerPoint:
    return BerPoint(
        snr_db=snr_db, bits=bits, errors=errors, ber=errors / bits, kind="simulation"
    )


def theory_points(scenario: Scenario) -> list[BerPoint]:
    """Union-bound curve over the scenario's SNR grid, averaged over the same
    geometry law the simulated channel draws from (coincident cells merged)."""
    finite = [s for s in scenario.snr_grid_db if math.isfinite(s)]
    if not finite:  # the bound has no noiseless point: no scan
        return []
    n0s = [noise_variance_from_snr_db(s) for s in finite]
    bounds = abep_curve_jakes(scenario.cfg, scenario.alphabet, scenario.p_paths, n0s)
    return [
        BerPoint(snr_db=s, bits=0, errors=0, ber=float(b), kind="theory")
        for s, b in zip(finite, bounds)
    ]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_csv(
    points: Sequence[BerPoint], scheme: str, seed: int, fileobj: TextIO
) -> None:
    """Emit rows in the stable schema scheme,snr_db,kind,bits,errors,ber,seed."""
    fileobj.write(CSV_HEADER + "\n")
    for p in points:
        fileobj.write(
            f"{scheme},{_fmt(p.snr_db)},{p.kind},{p.bits},{p.errors},{_fmt(p.ber)},{seed}\n"
        )


def run_scenario(scenario: Scenario) -> list[BerPoint]:
    """Simulation points plus, when enabled, the matching theory rows.

    An interrupt, in the sweep or in the theory rows, raises `SweepInterrupted`
    carrying the simulation points so far and no theory point. A theory scan
    that cannot finish (`bound_supports`) is refused before the sweep.
    """
    if scenario.include_theory and any(map(math.isfinite, scenario.snr_grid_db)):
        bound_supports(scenario.cfg, scenario.p_paths)
    points = run_ber_sweep(scenario)
    if scenario.include_theory:
        try:
            points += theory_points(scenario)
        except KeyboardInterrupt:
            raise SweepInterrupted(points) from None
    return points


# --- published-scenario presets -------------------------------------------


def _bpsk(n, g, lam, d_max, a_max):
    """BPSK (the default constellation) with the shortest prefix, cpp_length = d_max."""
    return SystemConfig(
        n_subcarriers=n, n_groups=g, alphabet_size=lam,
        max_delay=d_max, max_doppler=a_max, cpp_length=d_max,
    )


_DEFAULT_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)

# Scenario(name, cfg, alphabet, p_paths, snr_grid_db, ...), _bpsk(N, G, lambda, d_max, a_max)
PRESETS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "fig4", _bpsk(6, 2, 3, 1, 1), PreChirpAlphabet(TABLE_ALPHABETS[3]), 3, _DEFAULT_GRID
        ),
        # theory disabled: the bound's pair enumeration is quadratic in 2^16
        Scenario(
            "fig7_pim", _bpsk(8, 2, 4, 1, 2), PreChirpAlphabet(TABLE_ALPHABETS[4]), 3,
            _DEFAULT_GRID, include_theory=False,
        ),
        Scenario(
            "fig8_lo", _bpsk(4, 2, 2, 0, 1), PreChirpAlphabet(TABLE_ALPHABETS[2]), 3, _DEFAULT_GRID
        ),
        Scenario(
            "fig8_hi", _bpsk(4, 2, 2, 0, 2), PreChirpAlphabet(TABLE_ALPHABETS[2]), 3, _DEFAULT_GRID
        ),
        # classic single-pre-chirp waveform at spectral efficiency 2 (QPSK, N=8);
        # with one alphabet value the index machinery collapses (b2 = 0)
        Scenario(
            "baseline_afdm",
            SystemConfig(
                n_subcarriers=8, n_groups=1, alphabet_size=1, constellation_order=4,
                max_delay=2, max_doppler=2, cpp_length=2,
            ),
            PreChirpAlphabet((0.5,)), 4, _DEFAULT_GRID, include_theory=False,
        ),
    )
}


def make_preset(name: str, seed: int | None = None) -> Scenario:
    try:
        scenario = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}") from None
    return scenario if seed is None else replace(scenario, seed=seed)


# --- scenario assembly from configuration files ----------------------------


def _snr_range(start: float = 0.0, stop: float = 25.0, step: float = 5.0) -> tuple[float, ...]:
    if step <= 0:
        raise ValueError("snr_db_step must be positive")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def alphabet_from_items(items: dict[str, str], expected_size: int) -> PreChirpAlphabet:
    """[alphabet] section: inline values, an alphabet file, or the published table."""
    fields = read_section(items, "alphabet")
    if "values" in fields:
        return PreChirpAlphabet(fields["values"])
    if "file" in fields:
        return load_alphabet(fields["file"])
    if expected_size in TABLE_ALPHABETS:
        return PreChirpAlphabet(TABLE_ALPHABETS[expected_size])
    raise ValueError(
        f"no alphabet given and no published table entry for alphabet_size={expected_size}"
    )


def scenario_from_sections(
    sections: dict[str, dict[str, str]], name: str = "custom"
) -> Scenario:
    """Assemble a Scenario from parsed config-file sections.

    `snr_db` lists the grid; without it, snr_db_start/stop/step span it.
    """
    if "system" not in sections:
        raise ValueError("configuration is missing the [system] section")
    cfg = system_config_from_items(sections["system"])
    alphabet = alphabet_from_items(sections.get("alphabet", {}), cfg.alphabet_size)
    fields = {"name": name, "p_paths": 1}
    fields.update(read_section(sections.get("channel", {}), "channel"))
    fields.update(read_section(sections.get("simulation", {}), "simulation"))
    ramp = {key: fields.pop(key) for key in ("start", "stop", "step") if key in fields}
    if "snr_grid_db" not in fields:
        fields["snr_grid_db"] = _snr_range(**ramp)
    return Scenario(cfg=cfg, alphabet=alphabet, **fields)
