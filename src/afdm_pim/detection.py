"""Joint ML detection of (symbol vector, pre-chirp pattern) with perfect CSI."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channel import ChannelRealization, delay_doppler_cells, time_domain_operator
from .config import SystemConfig
from .mapping import (
    PreChirpAlphabet,
    codeword_count,
    codeword_rows,
    codeword_table,
    frame_bit_count,
)
from .transceiver import chirp_basis

Geometry = Sequence[tuple[int, int]]

INJECTIVE_TOL = 1e-9  # head or tail values this close in every entry give two payloads one frame


@lru_cache(maxsize=8)
def codeword_time_signals(cfg: SystemConfig, alphabet: PreChirpAlphabet, /) -> np.ndarray:
    """Prefix-free time-domain frames of every codeword, (C, N), in payload order
    (cached, read-only): the sums x_i B_h + y_j B_t of `factor_tables`."""
    signals = _codeword_sums(factor_tables(cfg, alphabet), _synthesis(cfg))
    signals.flags.writeable = False  # shared as `candidates` by every detector
    return signals


def _codeword_sums(t: FactorTables, e: np.ndarray) -> np.ndarray:
    """The sums x_i E_h + y_j E_t (C, N) of every codeword c = i*C_t + j, for
    images E (N, N) of the unit subcarriers, head subcarriers first."""
    k = t.n_head
    sums = np.add((t.head[:, :k] @ e[:k])[:, None], (t.tail @ e[k:])[None])
    return sums.reshape(-1, e.shape[1])


@dataclass(frozen=True, eq=False)
class FactorTables:
    """The codebook as a product of head and tail coefficient tables.

    The codebook is a product over payload factors: groups when the alphabet
    has more than one value, subcarriers otherwise (b2 = 0). The payload splits
    at the factor boundary nearest half its bits, the head taking the middle
    factor of an odd count, so a single group gives C_t = 1. The head owns the
    first n_h subcarriers and the tail the other n_t = N - n_h. Row i of `head`
    holds the pre-chirped head values x_i shared by the codewords
    c = i*C_t + j, then -1 (the coefficient of the received frame); row j of
    `tail` holds the tail values y_j. The modulation is linear in the
    pre-chirped vector, so codeword c has the frame x_i B_h + y_j B_t, where
    the rows of B are the frames of the unit subcarriers. `cells` holds B under
    the unit-gain path of every delay-Doppler grid cell, and `head_forms` /
    `tail_forms` give every row's quadratic form in a Gram matrix (see
    `MLDetector.detect`).
    """

    head: np.ndarray  # (C_h, n_h + 1) complex
    tail: np.ndarray  # (C_t, n_t) complex
    head_forms: np.ndarray  # (C_h, 2 (n_h + 1)(N + 1)) real
    tail_forms: np.ndarray  # (C_t, 2 n_t (N + 1)) real
    cells: np.ndarray  # (grid cells, N * N) complex, flattened B H_cell^T
    cell_index: Mapping[tuple[int, int], int]  # (delay, Doppler) -> row of `cells`

    @property
    def n_head(self) -> int:
        """Head subcarriers n_h."""
        return self.head.shape[1] - 1

    def cell_rows(self, cells: Iterable[tuple[int, int]]) -> list[int]:
        """Rows of `cells` for (delay, Doppler) cells; ValueError for one outside the grid."""
        try:
            return [self.cell_index[(d, a)] for d, a in cells]
        except KeyError as err:
            (d, a), (d_max, a_max) = err.args[0], max(self.cell_index)
            raise ValueError(
                f"path (delay {d}, Doppler {a}) is outside the grid: delays in "
                f"[0, {d_max}], Dopplers in [-{a_max}, {a_max}]"
            ) from None


@lru_cache(maxsize=8)
def factor_tables(cfg: SystemConfig, alphabet: PreChirpAlphabet, /) -> FactorTables:
    """Cached, read-only head and tail tables of the codebook (see `FactorTables`)."""
    count = codeword_count(cfg)
    n = cfg.n_subcarriers
    factor = cfg.group_size if cfg.alphabet_size > 1 else 1
    n_factors = n // factor
    head_factors = (n_factors + 1) // 2
    n_tail = 2 ** (frame_bit_count(cfg) // n_factors * (n_factors - head_factors))
    k = head_factors * factor
    # codewords i*C_t hold head value i with tail value 0, codewords j < C_t the reverse
    heads = _prechirped(alphabet, *codeword_rows(cfg, np.arange(0, count, n_tail)))
    head = np.concatenate([heads[:, :k], -np.ones((len(heads), 1))], axis=1)
    tails = _prechirped(alphabet, *codeword_rows(cfg, np.arange(n_tail)))
    tail = np.ascontiguousarray(tails[:, k:])
    for part, rows, step in (("head", heads[:, :k], n_tail), ("tail", tail, 1)):
        if (shared := _shared_row(rows)) is not None:
            first, second = (f"{row * step:0{frame_bit_count(cfg)}b}" for row in shared)
            raise ValueError(
                f"the codebook cannot carry its bits: payloads {first} and {second} "
                f"share one frame (their {part} values agree within {INJECTIVE_TOL:g})"
            )
    basis = _synthesis(cfg)
    grid = delay_doppler_cells(cfg)
    unit_paths = (ChannelRealization([1.0], [d], [a]) for d, a in grid)
    cells = np.stack([(basis @ time_domain_operator(ch, cfg).T).ravel() for ch in unit_paths])
    tables = FactorTables(
        head=head,
        tail=tail,
        head_forms=_form_rows(head, 0, n + 1),
        tail_forms=_form_rows(tail, k + 1, n + 1),
        cells=cells,
        cell_index=MappingProxyType({cell: row for row, cell in enumerate(grid)}),
    )
    for array in (head, tail, tables.head_forms, tables.tail_forms, cells):
        array.flags.writeable = False
    return tables


def _shared_row(rows: np.ndarray) -> tuple[int, int] | None:
    """Two rows that agree within INJECTIVE_TOL in every entry, or None. Such rows
    have weighted entry sums within INJECTIVE_TOL * sum(w), so only rows that close
    in a sort by that sum are compared, one offset at a time: no table of row pairs."""
    w = np.linspace(1.0, 2.0, 2 * rows.shape[1])
    keys = np.concatenate([rows.real, rows.imag], axis=1) @ w
    order = np.argsort(keys)
    keys = keys[order]
    for shift in range(1, len(rows)):
        near = np.flatnonzero(keys[shift:] - keys[:-shift] <= INJECTIVE_TOL * w.sum())
        if near.size == 0:
            return None
        gaps = np.abs(rows[order[near + shift]] - rows[order[near]]).max(axis=1)
        hits = near[gaps <= INJECTIVE_TOL]
        if hits.size:
            return tuple(sorted((int(order[hits[0]]), int(order[hits[0] + shift]))))
    return None


def _form_rows(values: np.ndarray, first: int, width: int) -> np.ndarray:
    """Rows q with q @ gram[first:first + n].view(float).ravel() = x G x^H / 2 for
    each row x of values (n entries), G = gram[first:first + n, first:first + n]
    and gram having `width` columns."""
    count, size = values.shape
    forms = np.zeros((count, size, width), dtype=complex)
    # the float views dot to Re(sum conj(q) * gram), hence the conjugated coefficient
    forms[:, :, first : first + size] = 0.5 * values.conj()[:, :, None] * values[:, None, :]
    return forms.reshape(count, size * width).view(float)


def _prechirped(
    alphabet: PreChirpAlphabet, symbols: np.ndarray, assignments: np.ndarray
) -> np.ndarray:
    """Subcarrier vectors times their pattern's pre-chirp e^{i2pi c2 m^2}."""
    m = np.arange(symbols.shape[1])
    return symbols * np.exp(2j * np.pi * alphabet.array[assignments] * m**2)


def _synthesis(cfg: SystemConfig) -> np.ndarray:
    """The frames B (N, N) of the unit subcarriers, the inverse DFT times the
    post-chirp: the prefix-free frame of pre-chirped values x is x @ B."""
    return chirp_basis(cfg.n_subcarriers, cfg.post_chirp, 0.0)


def path_image_tensor(
    cfg: SystemConfig, alphabet: PreChirpAlphabet, geometry: Geometry
) -> np.ndarray:
    """Unit-gain received images of every codeword, per path, in one common frame.

    Entry [c, n, p] is the time-domain sample n of codeword c's frame after the
    unit-gain path geometry[p]. Differences of these tensors measure exactly
    the distances the ML metric sees, for any pair of codewords (including
    pairs whose pre-chirp patterns differ). They are the sums of
    `factor_tables` cell images that `MLDetector` scores; a path outside the
    delay-Doppler grid, or an empty placement, raises ValueError.
    """
    if len(geometry) == 0:
        raise ValueError("the empty placement () holds no path")
    t = factor_tables(cfg, alphabet)
    n = cfg.n_subcarriers
    images = t.cells[t.cell_rows(geometry)].reshape(-1, n, n)
    return np.stack([_codeword_sums(t, e) for e in images], axis=-1)


class MLDetector:
    """Exhaustive joint detector over all 2**B codewords, metric in the
    coefficient space of the head and tail subcarriers.

    Codeword c = i*C_t + j has the frame x_i B_h + y_j B_t (see
    `FactorTables`), so under the channel operator H its image is
    x_i E_h + y_j E_t with E = B H^T, the N subcarrier images. With the
    received frame r as a row of M = [E_h; r; E_t] and its Gram matrix
    G = M M^H, half the squared distance of codeword c is

        |r - x_i E_h - y_j E_t|^2 / 2 = alpha_i + beta_j + Re(x~_i G_ht y_j^H),

    where x~_i = (x_i, -1), alpha_i = x~_i G_hh x~_i^H / 2 over the head and r
    rows, beta_j = y_j G_tt y_j^H / 2 over the tail rows, and G_ht is the
    block between them. alpha and beta are linear in G, and one C_h x C_t real
    product over 2 n_t + 2 columns gives every metric. The search stays
    exhaustive. The expanded metric rounds at about 1e-15, so distances that close
    may go either way. `factor_tables` refuses two payloads with one frame, so under
    Gaussian gains (H invertible with probability one) an exact tie has probability zero.
    """

    def __init__(self, cfg: SystemConfig, alphabet: PreChirpAlphabet) -> None:
        self.cfg = cfg
        self.alphabet = alphabet
        self.payload_bits = codeword_table(cfg)
        self.candidates = codeword_time_signals(cfg, alphabet)
        self.tables = factor_tables(cfg, alphabet)
        # homogeneous coordinates: a head row ends (alpha_i, 1) and a tail column
        # (1, beta_j); the tail is kept as columns, since a transposed operand
        # makes the metric product about 1.5x slower
        tail = self.tables.tail
        self._head_rows = np.zeros((len(self.tables.head), 2 * tail.shape[1] + 2))
        self._head_rows[:, -1] = 1.0
        self._tail_cols = np.concatenate(
            [tail.view(float).T, np.ones((1, len(tail))), np.zeros((1, len(tail)))]
        )

    def candidate_images(self, ch: ChannelRealization) -> np.ndarray:
        """Noise-free images (N, N) of the unit subcarriers under the channel,
        head subcarriers first."""
        rows = self.tables.cell_rows(zip(ch.delays.tolist(), ch.dopplers.tolist()))
        n = self.cfg.n_subcarriers
        return np.dot(ch.gains, self.tables.cells[rows]).reshape(n, n)

    def detect(self, r: np.ndarray, ch: ChannelRealization) -> tuple[np.ndarray, float]:
        """Return (payload bits, squared-distance metric) of the ML codeword."""
        t = self.tables
        k = t.n_head
        images = self.candidate_images(ch)
        # r between the head and tail images keeps each quadratic form's Gram rows contiguous
        rows = np.concatenate([images[:k], r[None, :], images[k:]])
        gram = rows @ rows.T.conj()
        head, tail = self._head_rows.copy(), self._tail_cols.copy()
        np.matmul(t.head, gram[: k + 1, k + 1 :], out=head[:, :-2].view(complex))
        np.matmul(t.head_forms, gram[: k + 1].view(float).ravel(), out=head[:, -2])
        np.matmul(t.tail_forms, gram[k + 1 :].view(float).ravel(), out=tail[-1])
        metrics = head @ tail
        best = int(metrics.argmin())  # row-major is payload order
        # the expanded metric cancels to about 1e-15, so return the winner's own residual
        i, j = divmod(best, metrics.shape[1])
        residual = np.concatenate([t.head[i], t.tail[j]]) @ rows
        return self.payload_bits[best].copy(), float(np.vdot(residual, residual).real)


def count_bit_errors(tx: Sequence[int], rx: Sequence[int]) -> int:
    """Hamming distance between two equal-length bit sequences."""
    tx = np.asarray(tx)
    rx = np.asarray(rx)
    if tx.shape != rx.shape:
        raise ValueError(f"length mismatch: {tx.shape} vs {rx.shape}")
    return int(np.count_nonzero(tx != rx))
