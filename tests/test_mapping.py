import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afdm_pim import analysis, detection, mapping, optimizer, simulate, suites
from afdm_pim.config import SystemConfig
from afdm_pim.mapping import (
    MAX_CODEWORDS,
    EnumerationCapExceeded,
    PreChirpAlphabet,
    bits_to_frame,
    bits_to_int,
    codeword_count,
    codeword_rows,
    codeword_table,
    enumerate_codewords,
    frame_bit_count,
    group_pattern_codebook,
    index_bits_per_group,
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
    [(4, 4, 4), (1, 4, 0), (3, 3, 2), (2, 2, 1), (1, 1, 0)],
)
def test_index_bits_per_group(lam, n_c, expected):
    assert index_bits_per_group(lam, n_c) == expected


def test_frame_bit_count():
    assert frame_bit_count(BPSK42) == 6
    cfg = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_doppler=1)
    assert frame_bit_count(cfg) == 10
    cfg1 = SystemConfig(n_subcarriers=2, n_groups=1, alphabet_size=2)
    assert frame_bit_count(cfg1) == 3


def _group_pattern(bits, alphabet_size, group_size):
    """The pattern that index bits select: their row of the pattern table."""
    return tuple(group_pattern_codebook(alphabet_size, group_size)[bits_to_int(bits)].tolist())


def test_pattern_codebook_matches_published_table():
    for row, expected in enumerate(TABLE_ROWS):
        bits = int_to_bits(row, 4)
        assert _group_pattern(bits, 4, 4) == expected


def test_pattern_table_is_read_only():
    table = group_pattern_codebook(4, 4)
    assert table.dtype == np.int8 and table.shape == (16, 4)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


@pytest.mark.parametrize("n_c", [1, 4, 8])
def test_single_value_pattern_table_is_one_zero_row(n_c):
    # b2 = 0: the one index word, of no bits, selects the all-zero pattern
    assert np.array_equal(group_pattern_codebook(1, n_c), np.zeros((1, n_c), dtype=np.int8))


def _perm_unrank(rank, n):
    """The rank-th permutation of (0, ..., n-1) in lexicographic order, read off
    the factorial number system one digit at a time."""
    pool = list(range(n))
    out = []
    for i in range(n, 0, -1):
        idx, rank = divmod(rank, math.factorial(i - 1))
        out.append(pool.pop(idx))
    return tuple(out)


@pytest.mark.parametrize("n_c", [1, 2, 3, 4, 5, 8])
def test_pattern_table_rows_are_the_first_permutations_in_order(n_c):
    table = group_pattern_codebook(n_c, n_c)
    assert len(table) == 2 ** index_bits_per_group(n_c, n_c)
    assert [tuple(row) for row in table.tolist()] == [
        _perm_unrank(r, n_c) for r in range(len(table))
    ]


@pytest.mark.parametrize("n_c,b2", [(12, 28), (16, 44)])
def test_pattern_table_beyond_the_limit_is_refused_before_any_row(monkeypatch, n_c, b2):
    def no_rows(*args):
        raise AssertionError("a pattern row was built")

    monkeypatch.setattr(mapping, "permutations", no_rows)
    message = rf"2\^{b2} pre-chirp patterns per group exceed the enumeration limit {MAX_CODEWORDS}"
    with pytest.raises(EnumerationCapExceeded, match=message):
        group_pattern_codebook(n_c, n_c)
    # a valid config: its single-frame mapping asks for the same table
    cfg = SystemConfig(n_subcarriers=n_c, n_groups=1, alphabet_size=n_c)
    alphabet = PreChirpAlphabet(tuple((m + 1) / (n_c + 1) for m in range(n_c)))
    with pytest.raises(EnumerationCapExceeded, match=message):
        bits_to_frame(np.zeros(frame_bit_count(cfg), dtype=int), cfg, alphabet)


def _bits_of(value, width):
    """One value's width-bit MSB-first binary form, one shift at a time."""
    return [(value >> (width - 1 - k)) & 1 for k in range(width)]


@pytest.mark.parametrize("width", [0, 1, 3, 8, 16, 20, 33])
def test_bit_conversions_invert_each_other_on_arrays(width):
    top = 2**width - 1  # 0 for the b2 = 0 index word
    values = np.array([[0, top], [top // 3, 2**width // 2]])
    bits = int_to_bits(values, width)
    assert bits.shape == values.shape + (width,) and bits.dtype == np.int8
    assert np.array_equal(bits_to_int(bits), values)
    # MSB first, as the payload convention reads it: one value, one row, a table
    assert bits_to_int(int_to_bits(5, 3)) == 5 and int_to_bits(5, 3).tolist() == [1, 0, 1]
    assert int_to_bits(top // 3, width).tolist() == _bits_of(top // 3, width)
    assert int_to_bits(values[1], width).tolist() == [_bits_of(int(v), width) for v in values[1]]
    assert bits.tolist() == [[_bits_of(int(v), width) for v in row] for row in values]


def test_bit_rows_of_a_codebook_need_no_wide_intermediate():
    values = np.arange(2**16)
    tracemalloc.start()
    try:
        bits = int_to_bits(values, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.shape == (2**16, 16)
    # the 1 MiB of rows and a few MiB at most besides; 8 bytes a bit is 8 MiB more
    assert peak < 4 * 2**20, peak


def test_pattern_examples():
    assert _group_pattern([0, 0, 0, 0], 4, 4) == (0, 1, 2, 3)
    assert _group_pattern([1, 1, 1, 1], 4, 4) == (2, 1, 3, 0)
    assert _group_pattern([0], 2, 2) == (0, 1)


def test_pattern_mapping_rejections():
    with pytest.raises(ValueError, match="alphabet_size == group_size"):
        SystemConfig(n_subcarriers=2, n_groups=1, alphabet_size=4)
    with pytest.raises(ValueError, match="alphabet_size == group_size"):
        codeword_table(SystemConfig(n_subcarriers=4, n_groups=1, alphabet_size=2))
    with pytest.raises(ValueError, match="alphabet_size == group_size"):
        optimizer.build_objective_context(
            SystemConfig(n_subcarriers=4, n_groups=1, alphabet_size=2, max_doppler=1), 1
        )


def test_all_zero_payload():
    frame = bits_to_frame(np.zeros(6, dtype=int), BPSK42, AL2)
    assert np.allclose(frame.symbols, np.ones(4))
    assert frame.pcpg.dtype == np.int8 and frame.pcpg.tolist() == [0, 1, 0, 1]


def test_roundtrip_exhaustive_and_distinct():
    seen = set()
    for value, frame in enumerate(enumerate_codewords(BPSK42, AL2)):
        key = (tuple(np.round(frame.symbols.real, 9)), tuple(frame.pcpg.tolist()))
        assert key not in seen
        seen.add(key)
        assert np.array_equal(frame.payload_bits, int_to_bits(value, 6))
    assert len(seen) == 64


# 16-QAM on N = 6, G = 3, lambda = 2: B = 3 * (2 * 4 + 1) = 27 bits, above the limit
QAM27 = SystemConfig(
    n_subcarriers=6, n_groups=3, alphabet_size=2, constellation_order=16,
    constellation_kind="QAM", max_delay=1, max_doppler=1, cpp_length=1,
)
QAM27_SCENARIO = simulate.Scenario(
    name="qam27", cfg=QAM27, alphabet=AL2, p_paths=2, snr_grid_db=(10.0,)
)
GEOMETRY = [(0, 0), (1, -1)]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: codeword_count(QAM27), id="codeword_count"),
        pytest.param(lambda: next(enumerate_codewords(QAM27, AL2)), id="enumerate_codewords"),
        pytest.param(lambda: codeword_table(QAM27), id="codeword_table"),
        pytest.param(lambda: detection.codeword_time_signals(QAM27, AL2), id="codeword_time_signals"),
        pytest.param(lambda: detection.factor_tables(QAM27, AL2), id="factor_tables"),
        pytest.param(lambda: detection.path_image_tensor(QAM27, AL2, GEOMETRY), id="path_image_tensor"),
        pytest.param(lambda: detection.MLDetector(QAM27, AL2), id="MLDetector"),
        pytest.param(lambda: analysis.abep_curve_jakes(QAM27, AL2, 2, [0.1]), id="abep_curve_jakes"),
        pytest.param(lambda: analysis.diversity_order(QAM27, AL2, len(GEOMETRY)), id="diversity_order"),
        pytest.param(lambda: simulate.run_ber_sweep(QAM27_SCENARIO), id="run_ber_sweep"),
        pytest.param(lambda: simulate.theory_points(QAM27_SCENARIO), id="theory_points"),
        pytest.param(lambda: simulate.run_scenario(QAM27_SCENARIO), id="run_scenario"),
        # the pattern-pair context does not enumerate the codebook; its objectives do
        pytest.param(suites.brute_objective, id="brute_objective"),
        pytest.param(suites.brute_objective_equal_symbols, id="brute_objective_equal_symbols"),
    ],
)
def test_codebook_above_the_limit_is_refused_before_allocating(call):
    if call in (suites.brute_objective, suites.brute_objective_equal_symbols):
        ctx, objective = optimizer.build_objective_context(QAM27, 2), call
        call = lambda: objective(AL2, ctx, ctx.pairs[0])  # noqa: E731
    limit = rf"2\^27 codewords exceed the enumeration limit {MAX_CODEWORDS}"
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapExceeded, match=limit):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured at most 8 KiB (the Jakes mixture, the sweep's bit weights, the
    # raised exception); one 4,096-row block of this codebook's payload bits is 108 KiB
    assert peak <= 16 * 2**10, peak


def test_wrong_payload_length_rejected():
    with pytest.raises(ValueError, match="exactly 6 bits"):
        bits_to_frame(np.zeros(5, dtype=int), BPSK42, AL2)


def test_alphabet_of_the_wrong_size_rejected():
    with pytest.raises(ValueError, match="^alphabet length does not match cfg.alphabet_size$"):
        bits_to_frame(np.zeros(6, dtype=int), BPSK42, PreChirpAlphabet((0.1, 0.5, 0.9)))


# QPSK on N = 8, G = 2, lambda = 4: B = 2 * (4 * 2 + 4) = 24 bits; both tests
# below use the payload values 0 to 2^16 - 1
QPSK8 = SystemConfig(
    n_subcarriers=8, n_groups=2, alphabet_size=4, constellation_order=4, max_doppler=2
)
AL4 = PreChirpAlphabet((0.01, 0.20, 0.41, 0.80))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_roundtrip_random_payload_qpsk(value):
    frame = bits_to_frame(int_to_bits(value, frame_bit_count(QPSK8)), QPSK8, AL4)
    symbols, assignments = codeword_rows(QPSK8, np.array([value]))
    assert np.array_equal(symbols[0], frame.symbols)
    assert np.array_equal(assignments[0], frame.pcpg)


def test_qpsk_codeword_rows_are_distinct():
    # the payload -> (symbols, pattern) map is injective on those values
    symbols, assignments = codeword_rows(QPSK8, np.arange(2**16))
    labels = np.round(np.stack([symbols.real, symbols.imag], axis=-1), 9).reshape(2**16, -1)
    rows = np.concatenate([labels, assignments], axis=1)
    assert len(np.unique(rows, axis=0)) == 2**16


def test_single_value_alphabet_collapses_index_bits():
    cfg = SystemConfig(n_subcarriers=8, n_groups=1, alphabet_size=1, constellation_order=4)
    assert frame_bit_count(cfg) == 16
    alphabet = PreChirpAlphabet((0.5,))
    frame = bits_to_frame(np.zeros(16, dtype=int), cfg, alphabet)
    assert frame.pcpg.tolist() == [0] * 8


def test_codeword_table_arrays_are_read_only():
    payload = codeword_table(BPSK42)
    with pytest.raises(ValueError, match="read-only"):
        payload[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        payload += 1


def test_codeword_table_matches_iterator():
    payload = codeword_table(BPSK42)
    symbols, assignments = codeword_rows(BPSK42, np.arange(len(payload)))
    for idx, frame in enumerate(enumerate_codewords(BPSK42, AL2)):
        assert np.array_equal(payload[idx], frame.payload_bits)
        assert np.allclose(symbols[idx], frame.symbols)
        assert np.array_equal(assignments[idx], frame.pcpg)
    assert idx + 1 == len(payload)


def test_alphabet_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        PreChirpAlphabet((0.6, 0.2))
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        PreChirpAlphabet((0.0, 0.5))
    with pytest.raises(ValueError, match="^alphabet must contain at least one value$"):
        PreChirpAlphabet(())


def test_alphabet_file_roundtrip(tmp_path):
    path = str(tmp_path / "alpha.txt")
    save_alphabet(AL2, path)
    loaded = load_alphabet(path)
    assert loaded.values == AL2.values
