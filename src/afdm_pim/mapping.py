"""Bit mapping: payload bits <-> (symbol vector, pre-chirp pattern)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from typing import Iterator, Sequence

import numpy as np

from .config import SystemConfig, constellation_for

# the largest codebook any table or scan enumerates: ML detection and the
# union bound both visit all 2^B codewords, and configs come from outside.
# It also caps the optimizer's pattern pairs: their Hamming tensor holds about
# two N-entry rows per pair, as a codebook table holds N-entry rows per
# codeword, so one limit bounds both tables' memory and build time alike.
MAX_CODEWORDS = 2**20


class EnumerationCapExceeded(RuntimeError):
    """Raised when a codebook has more than `MAX_CODEWORDS` codewords."""


@dataclass(frozen=True)
class PreChirpAlphabet:
    """The candidate pre-chirp values, strictly increasing and inside (0, 1)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise ValueError("alphabet must contain at least one value")
        if any(not (0.0 < v < 1.0) for v in vals):
            raise ValueError(f"alphabet values must lie in (0, 1): {vals}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"alphabet values must be strictly increasing: {vals}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def load_alphabet(path: str) -> PreChirpAlphabet:
    """Read an alphabet file: one decimal value per line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, text) for n, text in enumerate(map(str.strip, fh), start=1) if text]
    values = []
    for lineno, text in lines:
        try:
            values.append(float(text))
        except ValueError:
            raise ValueError(f"{path}, line {lineno}: cannot read {text!r} as float") from None
    return PreChirpAlphabet(tuple(values))


def save_alphabet(alphabet: PreChirpAlphabet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in alphabet.values:
            fh.write(f"{v:.12g}\n")


@dataclass(eq=False)
class Frame:
    """Payload bits with the derived symbol vector and pre-chirp pattern: pcpg (N,)
    int8 holds each subcarrier's alphabet index, the frame's `group_pattern_codebook`
    rows group after group."""

    payload_bits: np.ndarray
    symbols: np.ndarray
    pcpg: np.ndarray


def index_bits_per_group(alphabet_size: int, group_size: int) -> int:
    """Index bits b2 carried by one group's pre-chirp pattern: floor(log2(N_c!))
    for the permutations of lambda = N_c values, none for lambda = 1."""
    return math.floor(math.log2(math.factorial(group_size))) if alphabet_size > 1 else 0


def frame_bit_count(cfg: SystemConfig) -> int:
    """Total payload bits per frame, B = G*(N_c*log2(M) + b2)."""
    b1 = cfg.group_size * cfg.bits_per_symbol
    b2 = index_bits_per_group(cfg.alphabet_size, cfg.group_size)
    return cfg.n_groups * (b1 + b2)


def bits_to_int(bits) -> np.ndarray:
    """The unsigned integers whose MSB-first binary forms are the rows of bits
    (..., w): shape (...), one numpy integer for one row, zeros for w = 0."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64))


def int_to_bits(values, width: int) -> np.ndarray:
    """The width-bit binary forms of values (...), MSB first: int8 rows (..., width)."""
    # each value's 8 big-endian bytes, of which the last ceil(width / 8) hold its bits
    n_bytes = -(-width // 8)
    octets = np.asarray(values, dtype=">u8")[..., None].view(np.uint8)[..., 8 - n_bytes :]
    bits = np.unpackbits(octets, axis=-1)[..., 8 * n_bytes - width :]
    return np.ascontiguousarray(bits).view(np.int8)


@lru_cache(maxsize=8)
def group_pattern_codebook(alphabet_size: int, group_size: int) -> np.ndarray:
    """One group's 2**b2 legitimate patterns (2**b2, N_c) int8, row w the pattern
    of index word w (cached, read-only).

    The rows are the lexicographically first permutations of the sorted
    assignment, in which each alphabet index fills N_c / lambda subcarriers:
    for lambda == N_c the permutations of 0, ..., N_c - 1, for lambda = 1
    (b2 = 0) the one all-zero row, the two that `SystemConfig` admits. More
    than `MAX_CODEWORDS` rows raise `EnumerationCapExceeded` before any is built.
    """
    lam, n_c = alphabet_size, group_size
    b2 = index_bits_per_group(lam, n_c)
    if 2**b2 > MAX_CODEWORDS:
        raise EnumerationCapExceeded(
            f"2^{b2} pre-chirp patterns per group exceed the enumeration limit {MAX_CODEWORDS}"
        )
    sorted_assignment = [m // (n_c // lam) for m in range(n_c)]
    table = np.array(list(islice(permutations(sorted_assignment), 2**b2)), dtype=np.int8)
    table.flags.writeable = False  # shared by every caller of the cache
    return table


def bits_to_frame(
    payload: Sequence[int], cfg: SystemConfig, alphabet: PreChirpAlphabet
) -> Frame:
    """The frame of one payload: per group, its symbol bits then its index bits."""
    if len(alphabet) != cfg.alphabet_size:
        raise ValueError("alphabet length does not match cfg.alphabet_size")
    payload = np.asarray(payload, dtype=np.int8)
    b_total = frame_bit_count(cfg)
    if payload.shape != (b_total,):
        raise ValueError(f"payload must have exactly {b_total} bits, got {payload.shape}")
    points = constellation_for(cfg)
    n_c, k = cfg.group_size, cfg.bits_per_symbol
    b1 = n_c * k
    b2 = index_bits_per_group(cfg.alphabet_size, n_c)
    codebook = group_pattern_codebook(cfg.alphabet_size, n_c)
    symbols = np.empty(cfg.n_subcarriers, dtype=complex)
    pcpg = np.empty(cfg.n_subcarriers, dtype=np.int8)
    for g in range(cfg.n_groups):
        chunk = payload[g * (b1 + b2) : (g + 1) * (b1 + b2)]
        group = slice(g * n_c, (g + 1) * n_c)
        symbols[group] = points[bits_to_int(chunk[:b1].reshape(n_c, k))]
        pcpg[group] = codebook[bits_to_int(chunk[b1:])]
    return Frame(payload_bits=payload, symbols=symbols, pcpg=pcpg)


def codeword_count(cfg: SystemConfig) -> int:
    """The codebook size 2**B; raises `EnumerationCapExceeded` above `MAX_CODEWORDS`."""
    b_total = frame_bit_count(cfg)
    if 2**b_total > MAX_CODEWORDS:
        raise EnumerationCapExceeded(
            f"2^{b_total} codewords exceed the enumeration limit {MAX_CODEWORDS}"
        )
    return 2**b_total


def enumerate_codewords(cfg: SystemConfig, alphabet: PreChirpAlphabet) -> Iterator[Frame]:
    """Yield all 2**B legitimate frames exactly once, in payload order."""
    b_total = frame_bit_count(cfg)
    for value in range(codeword_count(cfg)):
        yield bits_to_frame(int_to_bits(value, b_total), cfg, alphabet)


def codeword_rows(cfg: SystemConfig, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symbols (R, N) complex and patterns (R, N) int8 of the codewords whose
    payloads are the B-bit forms of values (R,), as in `bits_to_frame`."""
    rows = len(values)
    n, n_c, k = cfg.n_subcarriers, cfg.group_size, cfg.bits_per_symbol
    b1 = n_c * k
    b2 = index_bits_per_group(cfg.alphabet_size, n_c)
    per_group = int_to_bits(values, frame_bit_count(cfg)).reshape(rows, cfg.n_groups, b1 + b2)
    labels = bits_to_int(per_group[:, :, :b1].reshape(rows, cfg.n_groups, n_c, k))
    words = bits_to_int(per_group[:, :, b1:])
    symbols = constellation_for(cfg)[labels].reshape(rows, n)
    return symbols, group_pattern_codebook(cfg.alphabet_size, n_c)[words].reshape(rows, n)


@lru_cache(maxsize=8)
def codeword_table(cfg: SystemConfig, /) -> np.ndarray:
    """The codebook's payloads (C, B) int8 in payload order, row c the B-bit form
    of c (cached, read-only); `codeword_rows` derives any rows' symbols and patterns."""
    count = codeword_count(cfg)
    payload = int_to_bits(np.arange(count), frame_bit_count(cfg))
    payload.flags.writeable = False  # shared by every caller of the cache
    return payload
