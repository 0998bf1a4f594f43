import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afdm_pim.config import SystemConfig
from afdm_pim.mapping import (
    EnumerationCapExceeded,
    PreChirpAlphabet,
    PreChirpPatternGroup,
    bits_to_frame,
    codeword_rows,
    codeword_table,
    enumerate_codewords,
    frame_bit_count,
    frame_to_bits,
    group_pattern_to_index_bits,
    index_bits_per_group,
    index_bits_to_group_pattern,
    int_to_bits,
    load_alphabet,
    save_alphabet,
)

BPSK42 = SystemConfig(n_subcarriers=4, n_groups=2, alphabet_size=2, max_doppler=1)
AL2 = PreChirpAlphabet((0.20, 0.60))

# index bits and the pattern codebook, published 16-row table for N_c = lambda = 4
TABLE_ROWS = [
    (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1),
    (0, 3, 1, 2), (0, 3, 2, 1), (1, 0, 2, 3), (1, 0, 3, 2),
    (1, 2, 0, 3), (1, 2, 3, 0), (1, 3, 0, 2), (1, 3, 2, 0),
    (2, 0, 1, 3), (2, 0, 3, 1), (2, 1, 0, 3), (2, 1, 3, 0),
]


@pytest.mark.parametrize(
    "lam,n_c,expected",
    [(4, 4, 4), (2, 4, 2), (4, 2, 3), (1, 4, 0), (3, 3, 2), (2, 2, 1), (1, 1, 0)],
)
def test_index_bits_per_group(lam, n_c, expected):
    assert index_bits_per_group(lam, n_c) == expected


def test_frame_bit_count():
    assert frame_bit_count(BPSK42) == 6
    cfg = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_doppler=1)
    assert frame_bit_count(cfg) == 10
    cfg1 = SystemConfig(n_subcarriers=2, n_groups=1, alphabet_size=2)
    assert frame_bit_count(cfg1) == 3


def test_pattern_codebook_matches_published_table():
    for row, expected in enumerate(TABLE_ROWS):
        bits = int_to_bits(row, 4)
        assert index_bits_to_group_pattern(bits, 4, 4) == expected
        assert np.array_equal(group_pattern_to_index_bits(expected, 4, 4), bits)


def test_pattern_examples():
    assert index_bits_to_group_pattern([0, 0, 0, 0], 4, 4) == (0, 1, 2, 3)
    assert index_bits_to_group_pattern([1, 1, 1, 1], 4, 4) == (2, 1, 3, 0)
    assert index_bits_to_group_pattern([0], 2, 2) == (0, 1)


def test_pattern_mapping_rejections():
    with pytest.raises(ValueError, match="alphabet_size == group_size"):
        index_bits_to_group_pattern([0, 0], 4, 2)
    with pytest.raises(ValueError, match="alphabet_size == group_size"):
        codeword_table(
            SystemConfig(n_subcarriers=4, n_groups=1, alphabet_size=2),
            PreChirpAlphabet((0.2, 0.6)),
        )
    with pytest.raises(ValueError, match="not a permutation"):
        group_pattern_to_index_bits((1, 1, 0, 2), 4, 4)
    # a valid permutation outside the first 2**b2 codewords
    with pytest.raises(ValueError, match="outside the codebook"):
        group_pattern_to_index_bits((2, 1, 0), 3, 3)


def test_all_zero_payload():
    frame = bits_to_frame(np.zeros(6, dtype=int), BPSK42, AL2)
    assert np.allclose(frame.symbols, np.ones(4))
    assert frame.pcpg.assignment == (0, 1, 0, 1)


def test_roundtrip_exhaustive_and_distinct():
    seen = set()
    for frame in enumerate_codewords(BPSK42, AL2):
        key = (tuple(np.round(frame.symbols.real, 9)), frame.pcpg.assignment)
        assert key not in seen
        seen.add(key)
        back = frame_to_bits(frame, BPSK42, AL2)
        assert np.array_equal(back, frame.payload_bits)
    assert len(seen) == 64


def test_enumerate_counts_and_cap():
    cfg1 = SystemConfig(n_subcarriers=2, n_groups=1, alphabet_size=2)
    assert sum(1 for _ in enumerate_codewords(cfg1, AL2)) == 8
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_codewords(BPSK42, AL2, cap=32))


def test_wrong_payload_length_rejected():
    with pytest.raises(ValueError, match="exactly 6 bits"):
        bits_to_frame(np.zeros(5, dtype=int), BPSK42, AL2)


def test_illegal_pcpg_rejected_on_inverse():
    frame = bits_to_frame(np.zeros(6, dtype=int), BPSK42, AL2)
    bad = PreChirpPatternGroup(assignment=(1, 1, 0, 1), group_size=2)
    frame.pcpg = bad
    with pytest.raises(ValueError, match="not a permutation"):
        frame_to_bits(frame, BPSK42, AL2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_roundtrip_random_payload_qpsk(value):
    cfg = SystemConfig(
        n_subcarriers=8, n_groups=2, alphabet_size=4, constellation_order=4, max_doppler=2
    )
    alphabet = PreChirpAlphabet((0.01, 0.20, 0.41, 0.80))
    b = frame_bit_count(cfg)
    payload = int_to_bits(value % 2**b, b)
    frame = bits_to_frame(payload, cfg, alphabet)
    assert np.array_equal(frame_to_bits(frame, cfg, alphabet), payload)


def test_single_value_alphabet_collapses_index_bits():
    cfg = SystemConfig(n_subcarriers=8, n_groups=1, alphabet_size=1, constellation_order=4)
    assert frame_bit_count(cfg) == 16
    alphabet = PreChirpAlphabet((0.5,))
    frame = bits_to_frame(np.zeros(16, dtype=int), cfg, alphabet)
    assert frame.pcpg.assignment == (0,) * 8


def test_codeword_table_arrays_are_read_only():
    payload = codeword_table(BPSK42, AL2).payload_bits
    with pytest.raises(ValueError, match="read-only"):
        payload[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        payload += 1


def test_codeword_table_matches_iterator():
    table = codeword_table(BPSK42, AL2)
    symbols, assignments = codeword_rows(BPSK42, np.arange(len(table.payload_bits)))
    for idx, frame in enumerate(enumerate_codewords(BPSK42, AL2)):
        assert np.array_equal(table.payload_bits[idx], frame.payload_bits)
        assert np.allclose(symbols[idx], frame.symbols)
        assert tuple(assignments[idx]) == frame.pcpg.assignment
    assert idx + 1 == len(table.payload_bits)


def test_alphabet_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        PreChirpAlphabet((0.6, 0.2))
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        PreChirpAlphabet((0.0, 0.5))


def test_alphabet_file_roundtrip(tmp_path):
    path = str(tmp_path / "alpha.txt")
    save_alphabet(AL2, path)
    loaded = load_alphabet(path)
    assert loaded.values == AL2.values
