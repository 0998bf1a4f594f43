"""Joint ML detection of (symbol vector, pre-chirp pattern) with perfect CSI."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .channel import ChannelRealization, cpp_phase_profile, path_offset
from .config import SystemConfig
from .mapping import (
    DEFAULT_ENUMERATION_CAP,
    PreChirpAlphabet,
    PreChirpPatternGroup,
    codeword_table,
)

Geometry = Sequence[tuple[int, int]]


@dataclass(frozen=True, eq=False)
class CodewordChannel:
    """Gain-free codeword-channel matrix: column p equals H_p x."""

    phi: np.ndarray  # (N, P) complex


def phi_tensor(
    symbols: np.ndarray,
    assignments: np.ndarray,
    geometry: Geometry,
    cfg: SystemConfig,
    alphabet_values: np.ndarray,
) -> np.ndarray:
    """Codeword-channel columns for a batch of codewords: (C, N, P).

    Entry [c, n, p] is (H_p x_c)[n] for the unit-gain path at geometry[p].
    """
    symbols = np.atleast_2d(np.asarray(symbols, dtype=complex))
    assignments = np.atleast_2d(np.asarray(assignments))
    n = cfg.n_subcarriers
    row = np.arange(n)
    vals = np.asarray(alphabet_values, dtype=float)[assignments]  # (C, N)
    quad = vals * row**2  # (C, N), c2[m] * m^2 per codeword
    out = np.empty((symbols.shape[0], n, len(geometry)), dtype=complex)
    for p, (d, a) in enumerate(geometry):
        loc = path_offset(cfg, d, a)
        col = (row + loc) % n
        phase = np.exp(
            2j
            * np.pi
            * (quad[:, col] - quad[:, row] + cfg.post_chirp * d * d - col * d / n)
        )
        out[:, :, p] = phase * symbols[:, col]
    return out


def build_phi(
    x: np.ndarray,
    pcpg: PreChirpPatternGroup,
    geometry: Geometry,
    cfg: SystemConfig,
    alphabet: PreChirpAlphabet,
) -> CodewordChannel:
    """Codeword-channel matrix for one codeword; gains are not consumed."""
    phi = phi_tensor(
        np.asarray(x, dtype=complex)[None, :],
        np.asarray(pcpg.assignment)[None, :],
        geometry,
        cfg,
        alphabet.array,
    )[0]
    return CodewordChannel(phi=phi)


def codeword_time_signals(
    cfg: SystemConfig,
    alphabet: PreChirpAlphabet,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> np.ndarray:
    """Prefix-free time-domain frames of every codeword, (C, N), in payload order."""
    return _codeword_time_signals(cfg, alphabet, cap)


# keyed positionally, so calls that pass or omit the default cap share one entry
@lru_cache(maxsize=8)
def _codeword_time_signals(cfg: SystemConfig, alphabet: PreChirpAlphabet, cap: int) -> np.ndarray:
    table = codeword_table(cfg, alphabet, cap)
    n = cfg.n_subcarriers
    m = np.arange(n)
    c2 = alphabet.array[table.assignments]  # (C, N)
    pre = table.symbols * np.exp(2j * np.pi * c2 * m**2)
    idft = np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
    signals = (pre @ idft) * np.exp(2j * np.pi * cfg.post_chirp * m**2)
    signals.flags.writeable = False  # shared as `candidates` by every detector
    return signals


def path_image_tensor(
    cfg: SystemConfig,
    alphabet: PreChirpAlphabet,
    geometry: Geometry,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> np.ndarray:
    """Unit-gain received images of every codeword, per path, in one common frame.

    Entry [c, n, p] is the time-domain sample n of codeword c's frame after the
    unit-gain path geometry[p]. Differences of these tensors measure exactly
    the distances the ML metric sees, for any pair of codewords (including
    pairs whose pre-chirp patterns differ).
    """
    signals = codeword_time_signals(cfg, alphabet, cap)
    n = cfg.n_subcarriers
    idx = np.arange(n)
    out = np.empty(signals.shape + (len(geometry),), dtype=complex)
    for p, (d, a) in enumerate(geometry):
        phases = cpp_phase_profile(cfg, d) * np.exp(-2j * np.pi * (a / n) * idx)
        out[:, :, p] = phases[None, :] * signals[:, (idx - d) % n]
    return out


class MLDetector:
    """Exhaustive joint detector over all 2**B codewords, metric in the time domain.

    Candidate time-domain frames are precomputed once; each detection maps all
    candidates through the (known) channel operator H in one matrix product
    and picks the closest image, breaking ties toward the lowest payload value.
    """

    def __init__(
        self,
        cfg: SystemConfig,
        alphabet: PreChirpAlphabet,
        cap: int = DEFAULT_ENUMERATION_CAP,
    ) -> None:
        self.cfg = cfg
        self.alphabet = alphabet
        table = codeword_table(cfg, alphabet, cap)
        self.payload_bits = table.payload_bits
        self.candidates = codeword_time_signals(cfg, alphabet, cap)
        self._cells: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _cell(self, delay: int, doppler: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit-gain path operator of one (delay, Doppler) cell, one entry per row:
        (flat positions in the N x N operator, prefix correction x Doppler ramp)."""
        key = (delay, doppler)
        cell = self._cells.get(key)
        if cell is None:
            n = self.cfg.n_subcarriers
            idx = np.arange(n)
            entries = cpp_phase_profile(self.cfg, delay) * np.exp(
                -2j * np.pi * (doppler / n) * idx
            )
            cell = self._cells[key] = (idx * n + (idx - delay) % n, entries)
        return cell

    def candidate_images(self, ch: ChannelRealization) -> np.ndarray:
        """All candidate received frames (C, N) under the given channel, noise-free."""
        n = self.cfg.n_subcarriers
        op = np.zeros(n * n, dtype=complex)
        for h, d, a in zip(ch.gains.tolist(), ch.delays.tolist(), ch.dopplers.tolist()):
            pos, entries = self._cell(d, a)
            op[pos] += h * entries
        return self.candidates @ op.reshape(n, n).T

    def detect(self, r: np.ndarray, ch: ChannelRealization) -> tuple[np.ndarray, float]:
        """Return (payload bits, squared-distance metric) of the ML codeword."""
        residual = self.candidate_images(ch)
        residual -= np.asarray(r, dtype=complex)
        parts = residual.view(float)  # (C, 2N): real and imaginary parts
        metrics = np.einsum("ij,ij->i", parts, parts)
        best = int(np.argmin(metrics))  # argmin takes the first = lowest payload
        return self.payload_bits[best].copy(), float(metrics[best])


@lru_cache(maxsize=4)
def _cached_detector(
    cfg: SystemConfig, alphabet: PreChirpAlphabet, cap: int
) -> MLDetector:
    return MLDetector(cfg, alphabet, cap)


def ml_detect(
    r: np.ndarray,
    ch: ChannelRealization,
    cfg: SystemConfig,
    alphabet: PreChirpAlphabet,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[np.ndarray, float]:
    """One-shot ML detection of a prefix-free received frame."""
    return _cached_detector(cfg, alphabet, cap).detect(r, ch)


def count_bit_errors(tx: Sequence[int], rx: Sequence[int]) -> int:
    """Hamming distance between two equal-length bit sequences."""
    tx = np.asarray(tx)
    rx = np.asarray(rx)
    if tx.shape != rx.shape:
        raise ValueError(f"length mismatch: {tx.shape} vs {rx.shape}")
    return int(np.count_nonzero(tx != rx))
