"""Doubly dispersive channel: sampling, time-domain application, the channel operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .transceiver import add_cpp

_LOC_INT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """P propagation paths: complex gain, integer delay, integer Doppler shift."""

    gains: np.ndarray  # (P,) complex
    delays: np.ndarray  # (P,) int, in [0, d_max]
    dopplers: np.ndarray  # (P,) int, in [-a_max, a_max]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gains", np.asarray(self.gains, dtype=complex))
        object.__setattr__(self, "delays", np.asarray(self.delays, dtype=int))
        object.__setattr__(self, "dopplers", np.asarray(self.dopplers, dtype=int))
        if not (len(self.gains) == len(self.delays) == len(self.dopplers)):
            raise ValueError("gains, delays, and dopplers must have equal length")
        if len(self.gains) == 0:
            raise ValueError("a channel realization needs at least one path")

    @property
    def geometry(self) -> tuple[tuple[int, int], ...]:
        """The (delay, Doppler) cell of each path."""
        return tuple((int(d), int(a)) for d, a in zip(self.delays, self.dopplers))


def draw_paths(
    cfg: SystemConfig, p_paths: int, rng: np.random.Generator, frames: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains, delays and Dopplers of shape frames + (p_paths,): CN(0, 1/P) gains,
    Jakes-spectrum integer Dopplers, delays uniform on {0, ..., d_max}.

    The draw order is fixed here: gains (real parts, then imaginary), angles,
    delays.
    """
    if p_paths < 1:
        raise ValueError("p_paths must be >= 1")
    shape = tuple(frames) + (p_paths,)
    scale = np.sqrt(1.0 / (2 * p_paths))
    gains = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    theta = rng.uniform(-np.pi, np.pi, shape)
    dopplers = np.floor(cfg.max_doppler * np.cos(theta)).astype(int)
    delays = rng.integers(0, cfg.max_delay + 1, shape)
    return gains, delays, dopplers


def sample_channel(
    cfg: SystemConfig, p_paths: int, rng: np.random.Generator
) -> ChannelRealization:
    """Draw one realization (see `draw_paths`)."""
    gains, delays, dopplers = draw_paths(cfg, p_paths, rng)
    return ChannelRealization(gains=gains, delays=delays, dopplers=dopplers)


def apply_channel_batch(
    prefixed: np.ndarray,
    gains: np.ndarray,
    delays: np.ndarray,
    dopplers: np.ndarray,
    cfg: SystemConfig,
) -> np.ndarray:
    """Noise-free sample-level channel on prefixed frames (F, N+L), each with its
    own paths (F, P): r[n] = sum_p h_p s[n-d_p] e^{-j2pi (a_p/N) n}.

    The Doppler phase is referenced to the first post-prefix sample (n = 0), and
    samples before the frame start are zero; the prefix absorbs the delay tail.
    A negative delay, a delay beyond the prefix or a Doppler outside
    [-a_max, a_max] raises ValueError.
    """
    frames, total = prefixed.shape
    n = cfg.n_subcarriers
    if cfg.cpp_length < int(np.max(delays)):
        raise ValueError("prefix shorter than the realization's maximum delay")
    if int(np.min(delays)) < 0:
        raise ValueError("path delays must be non-negative")
    if int(np.max(np.abs(dopplers))) > cfg.max_doppler:
        # the delay-Doppler grid ends at max_doppler; beyond it a Doppler aliases modulo N
        raise ValueError(f"path Dopplers must lie in [-{cfg.max_doppler}, {cfg.max_doppler}]")
    time_rel = np.arange(total) - cfg.cpp_length
    # L zeros before each frame: sample n - d_p is padded[n + L - d_p], and d_p <= L
    lead = cfg.cpp_length - delays
    padded = np.concatenate([np.zeros((frames, cfg.cpp_length), complex), prefixed], axis=1)
    index = np.arange(total)[None, None, :] + lead[:, :, None]  # (F, P, N+L)
    shifted = np.take_along_axis(padded[:, None, :], index, axis=2)
    phase = np.exp(-2j * np.pi * (dopplers[:, :, None] / n) * time_rel[None, None, :])
    # sums over the path axis in path order
    return np.sum(gains[:, :, None] * shifted * phase, axis=1)


def complex_awgn(
    rng: np.random.Generator, shape: tuple[int, ...], noise_variance: float
) -> np.ndarray:
    """CN(0, noise_variance) samples of the given shape: all real parts, then
    all imaginary parts, each in C order."""
    sigma = np.sqrt(noise_variance / 2.0)
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def apply_channel_time(
    s_prefixed: np.ndarray,
    ch: ChannelRealization,
    cfg: SystemConfig,
    rng: np.random.Generator | None,
    noise_variance: float,
) -> np.ndarray:
    """`apply_channel_batch` on one prefixed frame (N+L,), plus CN(0, noise_variance)
    noise drawn from rng."""
    s_prefixed = np.asarray(s_prefixed, dtype=complex)
    total = cfg.n_subcarriers + cfg.cpp_length
    if s_prefixed.shape != (total,):
        raise ValueError(f"expected a prefixed frame of length {total}")
    paths = (ch.gains[None], ch.delays[None], ch.dopplers[None])
    received = apply_channel_batch(s_prefixed[None], *paths, cfg)[0]
    if noise_variance > 0.0:
        if rng is None:
            raise ValueError("rng required when noise_variance > 0")
        received = received + complex_awgn(rng, received.shape, noise_variance)
    return received


def path_offset(cfg: SystemConfig, delay: int, doppler: int) -> int:
    """Cyclic column offset of one path, (alpha + 2*N*c1*d) mod N.

    Requires 2*N*c1*d to be an integer, which holds for the default post-chirp.
    """
    n = cfg.n_subcarriers
    step = 2 * n * cfg.post_chirp * delay
    if abs(step - round(step)) > _LOC_INT_TOL:
        raise ValueError(
            f"2*N*c1*d = {step} is not an integer; analytic placement undefined"
        )
    return (doppler + round(step)) % n


def time_domain_operator(ch: ChannelRealization, cfg: SystemConfig) -> np.ndarray:
    """Circular operator H (N, N), r = H s on prefix-free frames (no noise): column k
    is the prefix-free body that `apply_channel_batch` returns for the prefixed unit
    frame e_k under every path, so the prefix correction comes from `add_cpp` itself."""
    n = cfg.n_subcarriers
    paths = (np.broadcast_to(v, (n, len(v))) for v in (ch.gains, ch.delays, ch.dopplers))
    bodies = apply_channel_batch(add_cpp(np.eye(n), cfg), *paths, cfg)[:, cfg.cpp_length :]
    return np.ascontiguousarray(bodies.T)


def delay_doppler_cells(cfg: SystemConfig) -> tuple[tuple[int, int], ...]:
    """All (delay, Doppler) grid cells within the configured bounds."""
    return tuple(
        (d, a)
        for d in range(cfg.max_delay + 1)
        for a in range(-cfg.max_doppler, cfg.max_doppler + 1)
    )
