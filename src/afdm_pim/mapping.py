"""Bit mapping: payload bits <-> (symbol vector, pre-chirp pattern group)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .config import SystemConfig, constellation_for

# the largest codebook any table or scan enumerates: ML detection and the
# union bound both visit all 2^B codewords, and configs come from outside
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
        values = [float(line) for line in fh if line.strip()]
    return PreChirpAlphabet(tuple(values))


def save_alphabet(alphabet: PreChirpAlphabet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in alphabet.values:
            fh.write(f"{v:.12g}\n")


@dataclass(frozen=True)
class PreChirpPatternGroup:
    """Frame-wide assignment of alphabet indices, one per subcarrier."""

    assignment: tuple[int, ...]
    group_size: int

    def __post_init__(self) -> None:
        if len(self.assignment) % self.group_size != 0:
            raise ValueError("assignment length must be a multiple of group_size")

    def values(self, alphabet: PreChirpAlphabet) -> np.ndarray:
        """Per-subcarrier pre-chirp values c2[m]."""
        return alphabet.array[np.asarray(self.assignment)]


@dataclass(eq=False)
class Frame:
    """Payload bits with the derived symbol vector and pattern group."""

    payload_bits: np.ndarray
    symbols: np.ndarray
    pcpg: PreChirpPatternGroup


def index_bits_per_group(alphabet_size: int, group_size: int) -> int:
    """Index bits b2 carried by one group's pre-chirp pattern."""
    lam, n_c = alphabet_size, group_size
    if lam < 1 or n_c < 1:
        raise ValueError("alphabet_size and group_size must be >= 1")
    c = math.comb(max(lam, n_c), min(lam, n_c))
    if lam >= n_c:
        return math.floor(math.log2(c * math.factorial(n_c)))
    if n_c % lam == 0:
        return math.floor(math.log2(math.factorial(lam))) * (n_c // lam)
    return math.floor(math.log2(c * math.factorial(lam) * lam ** (n_c - lam)))


def frame_bit_count(cfg: SystemConfig) -> int:
    """Total payload bits per frame, B = G*(N_c*log2(M) + b2)."""
    b1 = cfg.group_size * cfg.bits_per_symbol
    b2 = index_bits_per_group(cfg.alphabet_size, cfg.group_size)
    return cfg.n_groups * (b1 + b2)


def _perm_unrank(rank: int, n: int) -> tuple[int, ...]:
    """The rank-th permutation of (0, ..., n-1) in lexicographic order."""
    pool = list(range(n))
    out = []
    for i in range(n, 0, -1):
        f = math.factorial(i - 1)
        idx, rank = divmod(rank, f)
        out.append(pool.pop(idx))
    return tuple(out)


def bits_to_int(bits: Sequence[int]) -> int:
    """Interpret a bit sequence as an unsigned integer, MSB first."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Unsigned integer to a width-bit array, MSB first."""
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.int8)


@lru_cache(maxsize=8)
def group_pattern_codebook(alphabet_size: int, group_size: int) -> tuple[tuple[int, ...], ...]:
    """The 2**b2 legitimate per-group patterns, in index-word order.

    These are the lexicographically first permutations of (0, ..., n_c - 1);
    only alphabet_size == group_size is supported.
    """
    lam, n_c = alphabet_size, group_size
    if lam != n_c:
        raise ValueError(
            f"pattern mapping requires alphabet_size == group_size, got {lam} != {n_c}"
        )
    b2 = index_bits_per_group(lam, n_c)
    return tuple(_perm_unrank(r, n_c) for r in range(2**b2))


def index_bits_to_group_pattern(
    bits: Sequence[int], alphabet_size: int, group_size: int
) -> tuple[int, ...]:
    """Map b2 index bits to one group's pattern (a permutation of alphabet indices)."""
    codebook = group_pattern_codebook(alphabet_size, group_size)
    b2 = index_bits_per_group(alphabet_size, group_size)
    if len(bits) != b2:
        raise ValueError(f"expected {b2} index bits, got {len(bits)}")
    return codebook[bits_to_int(bits)]


def bits_to_frame(
    payload: Sequence[int], cfg: SystemConfig, alphabet: PreChirpAlphabet
) -> Frame:
    """Split payload into per-group symbol bits and index bits; build the frame."""
    if len(alphabet) != cfg.alphabet_size:
        raise ValueError("alphabet length does not match cfg.alphabet_size")
    payload = np.asarray(payload, dtype=np.int8)
    b_total = frame_bit_count(cfg)
    if payload.shape != (b_total,):
        raise ValueError(f"payload must have exactly {b_total} bits, got {payload.shape}")
    const = constellation_for(cfg)
    n_c, k = cfg.group_size, cfg.bits_per_symbol
    b1 = n_c * k
    b2 = index_bits_per_group(cfg.alphabet_size, n_c)
    symbols = np.empty(cfg.n_subcarriers, dtype=complex)
    assignment: list[int] = []
    for g in range(cfg.n_groups):
        chunk = payload[g * (b1 + b2) : (g + 1) * (b1 + b2)]
        labels = [bits_to_int(chunk[i * k : (i + 1) * k]) for i in range(n_c)]
        symbols[g * n_c : (g + 1) * n_c] = const.points[labels]
        if cfg.alphabet_size == 1:
            assignment.extend([0] * n_c)
        else:
            assignment.extend(index_bits_to_group_pattern(chunk[b1:], cfg.alphabet_size, n_c))
    pcpg = PreChirpPatternGroup(assignment=tuple(assignment), group_size=n_c)
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


def _value_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Rows of the width-bit binary forms of values, MSB first (int8)."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(np.int8)


def _group_patterns(cfg: SystemConfig) -> np.ndarray:
    """One group's legitimate patterns (2**b2, N_c), in index-word order."""
    if cfg.alphabet_size == 1:  # b2 = 0: every group's index word is 0, the all-zero pattern
        return np.zeros((1, cfg.group_size), dtype=np.int8)
    return np.array(group_pattern_codebook(cfg.alphabet_size, cfg.group_size), dtype=np.int8)


def codeword_rows(cfg: SystemConfig, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symbols (R, N) complex and pattern assignments (R, N) int8 of the codewords
    whose payloads are the B-bit forms of values (R,), as in `bits_to_frame`."""
    values = np.asarray(values, dtype=np.int64)
    rows = len(values)
    const = constellation_for(cfg)
    n, n_c, k = cfg.n_subcarriers, cfg.group_size, cfg.bits_per_symbol
    b1 = n_c * k
    b2 = index_bits_per_group(cfg.alphabet_size, n_c)
    weights = (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
    w2 = (1 << np.arange(b2 - 1, -1, -1)).astype(np.int64)
    per_group = _value_bits(values, frame_bit_count(cfg)).reshape(rows, cfg.n_groups, b1 + b2)
    sym_bits = per_group[:, :, :b1].reshape(rows, cfg.n_groups, n_c, k)
    labels = np.tensordot(sym_bits, weights, axes=([3], [0]))
    words = np.tensordot(per_group[:, :, b1:], w2, axes=([2], [0]))
    symbols = const.points[labels].reshape(rows, n)
    return symbols, _group_patterns(cfg)[words].reshape(rows, n)


@lru_cache(maxsize=8)
def codeword_table(cfg: SystemConfig, /) -> np.ndarray:
    """The codebook's payloads (C, B) int8 in payload order, row c the B-bit form
    of c (cached, read-only); `codeword_rows` derives any rows' symbols and patterns."""
    count = codeword_count(cfg)
    _group_patterns(cfg)  # rejects an unsupported pattern mapping before any row is built
    b_total = frame_bit_count(cfg)
    # codeword c = i * 2^(B - b_h) + j: the b_h bits of i, then the bits of j
    b_head = b_total // 2
    n_head = 2**b_head
    payload = np.empty((count, b_total), dtype=np.int8)
    pairs = payload.reshape(n_head, count // n_head, b_total)
    pairs[:, :, :b_head] = _value_bits(np.arange(n_head), b_head)[:, None]
    pairs[:, :, b_head:] = _value_bits(np.arange(count // n_head), b_total - b_head)[None]
    payload.flags.writeable = False  # shared by every caller of the cache
    return payload
