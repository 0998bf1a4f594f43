"""Chirp-domain transform matrices, modulation, and the chirp-periodic prefix."""

from __future__ import annotations

import numpy as np

from .config import SystemConfig
from .mapping import PreChirpAlphabet, PreChirpPatternGroup


def chirp_basis(n: int, c1: float, c2: float | np.ndarray) -> np.ndarray:
    """The N chirp subcarriers (N, N) as rows: row m is
    e^{i2pi(c2[m] m^2 + m k / N + c1 k^2)} / sqrt(N) over the samples k.

    c2 is one pre-chirp for every subcarrier or one value per subcarrier.
    """
    m = np.arange(n)
    pre = np.exp(2j * np.pi * c2 * m**2)
    idft = np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
    post = np.exp(2j * np.pi * c1 * m**2)
    return pre[:, None] * idft * post


def build_daft(
    cfg: SystemConfig, alphabet: PreChirpAlphabet, pcpg: PreChirpPatternGroup
) -> np.ndarray:
    """The forward transform A = Lambda_c2 @ F @ Lambda_c1 (N, N) for one frame's
    pre-chirp pattern: the conjugate of its `chirp_basis`."""
    n = cfg.n_subcarriers
    if len(pcpg.assignment) != n:
        raise ValueError("pattern length does not match n_subcarriers")
    return chirp_basis(n, cfg.post_chirp, pcpg.values(alphabet)).conj()


def modulate(
    x: np.ndarray,
    cfg: SystemConfig,
    alphabet: PreChirpAlphabet,
    pcpg: PreChirpPatternGroup,
) -> np.ndarray:
    """Time-domain samples s = A^H x (no prefix)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (cfg.n_subcarriers,):
        raise ValueError(f"x must have length {cfg.n_subcarriers}")
    a = build_daft(cfg, alphabet, pcpg)
    return a.conj().T @ x


def add_cpp(s: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Prepend the chirp-periodic prefix: s[n] = s[N+n] e^{-j2pi c1 (N^2+2Nn)}, n<0.

    Takes one frame (N,) or a batch of frames (F, N).
    """
    s = np.asarray(s, dtype=complex)
    n = cfg.n_subcarriers
    if s.ndim not in (1, 2) or s.shape[-1] != n:
        raise ValueError(f"expected prefix-free frames of length {n}")
    l_cp = cfg.cpp_length
    if l_cp == 0:
        return s.copy()
    neg = np.arange(-l_cp, 0)
    prefix = s[..., n + neg] * np.exp(-2j * np.pi * cfg.post_chirp * (n**2 + 2 * n * neg))
    return np.concatenate([prefix, s], axis=-1)


def remove_cpp(r: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Drop the first cpp_length samples."""
    r = np.asarray(r, dtype=complex)
    n, l_cp = cfg.n_subcarriers, cfg.cpp_length
    if r.shape != (n + l_cp,):
        raise ValueError(f"expected a prefixed frame of length {n + l_cp}")
    return r[l_cp:].copy()
