"""Joint ML detection of (symbol vector, pre-chirp pattern) with perfect CSI."""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .channel import ChannelRealization, path_time_operator
from .config import SystemConfig
from .mapping import DEFAULT_ENUMERATION_CAP, PreChirpAlphabet, codeword_table, row_blocks

Geometry = Sequence[tuple[int, int]]


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
    signals = _time_frames(cfg, alphabet, table.symbols, table.assignments)
    signals.flags.writeable = False  # shared as `candidates` by every detector
    return signals


def factor_time_signals(
    cfg: SystemConfig,
    alphabet: PreChirpAlphabet,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[np.ndarray, int]:
    """Head and tail parts of the codeword frames, stacked, and the head count C_h.

    The codebook is a product over payload factors: groups when the alphabet
    has more than one value, subcarriers otherwise (b2 = 0). The payload splits
    at the factor boundary nearest half its bits, the head taking the middle
    factor of an odd count, so a single group gives C_t = 1. Each part keeps
    only its own subcarriers of the pre-chirped vector, and the modulation is
    linear in that vector, so codeword c = i*C_t + j has the frame
    parts[i] + parts[C_h + j].
    """
    return _factor_time_signals(cfg, alphabet, cap)


@lru_cache(maxsize=8)
def _factor_time_signals(
    cfg: SystemConfig, alphabet: PreChirpAlphabet, cap: int
) -> tuple[np.ndarray, int]:
    table = codeword_table(cfg, alphabet, cap)
    count, b_total = table.payload_bits.shape
    factor = cfg.group_size if cfg.alphabet_size > 1 else 1
    n_factors = cfg.n_subcarriers // factor
    head_factors = (n_factors + 1) // 2
    n_tail = 2 ** (b_total // n_factors * (n_factors - head_factors))
    n_head = count // n_tail
    head_carriers = head_factors * factor
    # rows i*C_t hold head value i with a zero tail, rows j < C_t the reverse
    symbols = np.concatenate([table.symbols[::n_tail], table.symbols[:n_tail]])
    assignments = np.concatenate([table.assignments[::n_tail], table.assignments[:n_tail]])
    symbols[:n_head, head_carriers:] = 0.0
    symbols[n_head:, :head_carriers] = 0.0
    parts = _time_frames(cfg, alphabet, symbols, assignments)
    parts.flags.writeable = False
    return parts, n_head


def _time_frames(
    cfg: SystemConfig, alphabet: PreChirpAlphabet, symbols: np.ndarray, assignments: np.ndarray
) -> np.ndarray:
    """Prefix-free time-domain frames of subcarrier vectors under their patterns,
    computed in row blocks (see `row_blocks`)."""
    n = cfg.n_subcarriers
    m = np.arange(n)
    idft = np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
    post = np.exp(2j * np.pi * cfg.post_chirp * m**2)
    frames = np.empty(symbols.shape, dtype=complex)
    for rows in row_blocks(len(symbols)):
        c2 = alphabet.array[assignments[rows]]
        pre = symbols[rows] * np.exp(2j * np.pi * c2 * m**2)
        np.matmul(pre, idft, out=frames[rows])
        frames[rows] *= post
    return frames


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
        col = (idx - d) % n
        out[:, :, p] = path_time_operator(cfg, d, a)[idx, col] * signals[:, col]
    return out


class MLDetector:
    """Exhaustive joint detector over all 2**B codewords, metric in the time domain.

    Every candidate frame is a head part plus a tail part (see
    `factor_time_signals`), so under the channel operator H its image is
    a_i + b_j for codeword c = i*C_t + j. Each detection maps the C_h + C_t
    parts through H in one matrix product, and one C_h x C_t product of the
    parts with their norms appended gives every |r - a_i - b_j|^2 / 2. The
    search stays exhaustive at (C_h + C_t) N^2 complex products instead of
    C N^2; argmin over the row-major (C_h, C_t) metrics is payload order, so
    ties go to the lowest payload value.
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
        self.parts, self.n_head = factor_time_signals(cfg, alphabet, cap)
        # homogeneous columns: a head row becomes (x, |x|^2/2, 1) and a tail row
        # (y, 1, |y|^2/2), so their dot product is |x + y|^2 / 2
        head = (np.arange(len(self.parts)) < self.n_head)[:, None]
        self._norm_weight = np.where(head, [0.5, 0.0], [0.0, 0.5])
        self._unit = np.where(head, [0.0, 1.0], [1.0, 0.0])
        self._cells: dict[tuple[int, int], np.ndarray] = {}

    def candidate_images(self, ch: ChannelRealization) -> np.ndarray:
        """Noise-free images (C_h + C_t, N) of the head and tail parts under the channel."""
        n = self.cfg.n_subcarriers
        op = np.zeros((n, n), dtype=complex)
        for h, d, a in zip(ch.gains.tolist(), ch.delays.tolist(), ch.dopplers.tolist()):
            cell = self._cells.get((d, a))
            if cell is None:
                cell = self._cells[(d, a)] = path_time_operator(self.cfg, d, a)
            op += h * cell
        return self.parts @ op.T

    def detect(self, r: np.ndarray, ch: ChannelRealization) -> tuple[np.ndarray, float]:
        """Return (payload bits, squared-distance metric) of the ML codeword."""
        k = self.n_head
        images = self.candidate_images(ch)
        images[:k] -= r  # codeword c's residual is then -(head row i + tail row j)
        parts = images.view(float)  # real and imaginary parts side by side
        norms = np.einsum("ij,ij->i", parts, parts)
        rows = np.concatenate([parts, norms[:, None] * self._norm_weight + self._unit], axis=1)
        metrics = rows[:k] @ rows[k:].T
        best = int(metrics.argmin())  # row-major is payload order: the first is the lowest
        # the expanded metric cancels to about 1e-15, so return the winner's own residual
        i, j = divmod(best, metrics.shape[1])
        residual = parts[i] + parts[k + j]
        return self.payload_bits[best].copy(), float(residual.dot(residual))


def ml_detect(
    r: np.ndarray,
    ch: ChannelRealization,
    cfg: SystemConfig,
    alphabet: PreChirpAlphabet,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[np.ndarray, float]:
    """One-shot ML detection of a prefix-free received frame."""
    return MLDetector(cfg, alphabet, cap).detect(r, ch)


def count_bit_errors(tx: Sequence[int], rx: Sequence[int]) -> int:
    """Hamming distance between two equal-length bit sequences."""
    tx = np.asarray(tx)
    rx = np.asarray(rx)
    if tx.shape != rx.shape:
        raise ValueError(f"length mismatch: {tx.shape} vs {rx.shape}")
    return int(np.count_nonzero(tx != rx))
