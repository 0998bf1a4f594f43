import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from afdm_pim import suites
from afdm_pim.channel import (
    ChannelRealization,
    apply_channel_time,
    sample_channel,
    time_domain_operator,
)
from afdm_pim.config import RandomSource, SystemConfig, constellation_for
from afdm_pim.detection import (
    INJECTIVE_TOL,
    MLDetector,
    _shared_row,
    codeword_time_signals,
    count_bit_errors,
    factor_tables,
    path_image_tensor,
)
from afdm_pim.mapping import (
    PreChirpAlphabet,
    bits_to_frame,
    codeword_table,
    enumerate_codewords,
    frame_bit_count,
    group_pattern_codebook,
    int_to_bits,
)
from afdm_pim.simulate import PRESETS, make_preset, noise_variance_from_snr_db
from afdm_pim.suites import closed_form_paths
from afdm_pim.transceiver import add_cpp, build_daft, modulate, remove_cpp
from dense_search import dense_metrics

BPSK42 = SystemConfig(n_subcarriers=4, n_groups=2, alphabet_size=2, max_doppler=1)
AL2 = PreChirpAlphabet((0.20, 0.60))
CFG8 = SystemConfig(
    n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=1, max_doppler=2, cpp_length=1
)
AL4 = PreChirpAlphabet((0.01, 0.20, 0.41, 0.80))
FIG7 = make_preset("fig7_pim")
FIG8 = make_preset("fig8_hi")
BASELINE = make_preset("baseline_afdm")
# the baseline's QPSK, 4-path, d_max = 2 geometry on N = 4: 4^4 codewords
BASELINE4 = SystemConfig(
    n_subcarriers=4, n_groups=1, alphabet_size=1, constellation_order=4,
    max_delay=2, max_doppler=2, cpp_length=2,
)

# three groups: the head takes two of them (C_h = 2^6, C_t = 2^3)
CFG_G3 = SystemConfig(
    n_subcarriers=6, n_groups=3, alphabet_size=2, max_delay=1, max_doppler=1, cpp_length=1
)
# one group with lambda > 1: the head is the whole payload (C_t = 1)
CFG_G1 = SystemConfig(
    n_subcarriers=4, n_groups=1, alphabet_size=4, max_delay=1, max_doppler=1, cpp_length=1
)

# with the default post-chirp and even N the prefix correction is 1; an
# off-grid post-chirp makes its rows differ from the circular shift
CFG8_OFF_GRID = replace(CFG8, post_chirp=0.17)
# odd N: under the default post-chirp the correction is -1 on the head rows
CFG3 = SystemConfig(
    n_subcarriers=3, n_groups=1, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1
)
AL3 = PreChirpAlphabet((0.29, 0.62, 0.93))

# (cfg, alphabet, geometry): each geometry puts two paths on one cell, and
# where d_max > 0 a path at d_max, so the prefix-correction rows are used
GEOMETRY_CASES = [
    pytest.param(FIG8.cfg, FIG8.alphabet, [(0, 1), (0, 1), (0, -2)], id="fig8_hi"),
    pytest.param(CFG8, AL4, [(1, 2), (1, 2), (0, -1)], id="cfg8"),
    pytest.param(CFG8_OFF_GRID, AL4, [(1, 2), (1, 2), (0, -1)], id="cfg8_post_chirp_0.17"),
    pytest.param(
        BASELINE4, BASELINE.alphabet, [(2, -2), (0, 1), (2, -2), (1, 0)],
        id="baseline_afdm_n4",
    ),
    pytest.param(CFG_G3, AL2, [(1, 1), (1, 1), (0, -1)], id="three_groups"),
    pytest.param(CFG_G1, AL4, [(1, 1), (1, 1), (0, -1)], id="one_group"),
    pytest.param(CFG3, AL3, [(1, 1), (1, 1), (0, -1)], id="odd_n"),
]

# (cfg, alphabet, C_h, C_t): one config per kind of payload split
SPLIT_CASES = [
    pytest.param(FIG7.cfg, FIG7.alphabet, 2**8, 2**8, id="two_groups"),
    pytest.param(CFG_G3, AL2, 2**6, 2**3, id="three_groups"),
    pytest.param(BASELINE.cfg, BASELINE.alphabet, 2**8, 2**8, id="subcarriers"),
    pytest.param(CFG_G1, AL4, 2**8, 1, id="one_group"),
]


def test_pattern_phi_identity_geometry_returns_x():
    rng = RandomSource(1).generator()
    frame = bits_to_frame(rng.integers(0, 2, frame_bit_count(CFG8)), CFG8, AL4)
    phi = suites._pattern_phi(AL4.array, frame.pcpg, frame.symbols[None, :], [(0, 0)], CFG8)
    assert phi.shape == (1, 8, 1)
    assert np.allclose(phi[0, :, 0], frame.symbols)


def test_phi_times_gains_equals_effective_channel():
    # the brute oracles' closed-form columns against the sample-level channel
    # in the chirp domain; on odd N (N = 3) a prefix fault shows
    rng = RandomSource(2).generator()
    worst = 0.0
    for cfg, alphabet in ((CFG8, AL4), (CFG3, AL3)):
        for _ in range(50):
            frame = bits_to_frame(rng.integers(0, 2, frame_bit_count(cfg)), cfg, alphabet)
            ch = sample_channel(cfg, 3, rng)
            phi = suites._pattern_phi(
                alphabet.array, frame.pcpg, frame.symbols[None, :], ch.geometry, cfg
            )[0]
            s = modulate(frame.symbols, cfg, alphabet, frame.pcpg)
            r = remove_cpp(apply_channel_time(add_cpp(s, cfg), ch, cfg, None, 0.0), cfg)
            y = build_daft(cfg, alphabet, frame.pcpg) @ r
            worst = max(worst, float(np.max(np.abs(phi @ ch.gains - y))))
    assert worst < 1e-9


def test_phi_differs_across_patterns():
    frames = list(enumerate_codewords(BPSK42, AL2))
    ch = ChannelRealization(np.ones(3, dtype=complex), np.zeros(3, dtype=int), np.array([-1, 0, 1]))
    a = closed_form_paths(BPSK42, AL2.array[frames[0].pcpg], ch.geometry)
    b = closed_form_paths(BPSK42, AL2.array[frames[1].pcpg], ch.geometry)
    assert not np.array_equal(frames[0].pcpg, frames[1].pcpg)
    # the zero-delay, zero-Doppler path is the identity under every pattern
    assert np.array_equal(a[1], b[1])
    for p in (0, 2):
        assert np.linalg.norm(a[p] - b[p]) > 1e-6


def test_path_image_tensor_matches_operators():
    geometry = [(0, -1), (1, 0), (1, 2)]
    images = path_image_tensor(CFG8, AL4, geometry)
    signals = codeword_time_signals(CFG8, AL4)
    for p, (d, a) in enumerate(geometry):
        ch = ChannelRealization(np.array([1.0 + 0j]), np.array([d]), np.array([a]))
        op = time_domain_operator(ch, CFG8)
        assert np.max(np.abs(images[:, :, p] - signals @ op.T)) < 1e-12


def test_noiseless_exhaustive_recovery():
    detector = MLDetector(BPSK42, AL2)
    rng = RandomSource(3).generator()
    for frame in enumerate_codewords(BPSK42, AL2):
        ch = sample_channel(BPSK42, 2, rng)
        s = modulate(frame.symbols, BPSK42, AL2, frame.pcpg)
        r = remove_cpp(apply_channel_time(add_cpp(s, BPSK42), ch, BPSK42, None, 0.0), BPSK42)
        detected, metric = detector.detect(r, ch)
        assert np.array_equal(detected, frame.payload_bits)
        assert metric < 1e-18


def test_time_and_chirp_domain_metrics_agree():
    rng = RandomSource(4).generator()
    frame = bits_to_frame(rng.integers(0, 2, frame_bit_count(BPSK42)), BPSK42, AL2)
    ch = sample_channel(BPSK42, 3, rng)
    s = modulate(frame.symbols, BPSK42, AL2, frame.pcpg)
    r = remove_cpp(
        apply_channel_time(add_cpp(s, BPSK42), ch, BPSK42, rng, 0.05), BPSK42
    )
    op = time_domain_operator(ch, BPSK42)
    for hyp in enumerate_codewords(BPSK42, AL2):
        s_hyp = modulate(hyp.symbols, BPSK42, AL2, hyp.pcpg)
        time_metric = np.sum(np.abs(r - op @ s_hyp) ** 2)
        a_hyp = build_daft(BPSK42, AL2, hyp.pcpg)
        h_eff = np.tensordot(ch.gains, closed_form_paths(BPSK42, AL2.array[hyp.pcpg], ch.geometry), 1)
        chirp_metric = np.sum(np.abs(a_hyp @ r - h_eff @ hyp.symbols) ** 2)
        assert time_metric == pytest.approx(chirp_metric, abs=1e-9)


def test_detect_is_noise_robust_at_high_snr():
    rng = RandomSource(5).generator()
    payload = rng.integers(0, 2, frame_bit_count(BPSK42))
    frame = bits_to_frame(payload, BPSK42, AL2)
    ch = ChannelRealization(
        gains=np.array([0.9 + 0.1j, 0.4 - 0.2j]), delays=np.array([0, 0]),
        dopplers=np.array([0, 1]),
    )
    s = modulate(frame.symbols, BPSK42, AL2, frame.pcpg)
    r = remove_cpp(
        apply_channel_time(add_cpp(s, BPSK42), ch, BPSK42, rng, 1e-6), BPSK42
    )
    detected, _ = MLDetector(BPSK42, AL2).detect(r, ch)
    assert np.array_equal(detected, payload)


def test_detector_candidates_are_modulated_codewords():
    detector = MLDetector(BPSK42, AL2)
    for idx, frame in enumerate(enumerate_codewords(BPSK42, AL2)):
        s = modulate(frame.symbols, BPSK42, AL2, frame.pcpg)
        assert np.max(np.abs(detector.candidates[idx] - s)) < 1e-12


def test_detector_handles_large_codebook():
    # 2^16 codewords (largest preset): build once, detect one noiseless frame
    cfg = SystemConfig(
        n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=1, max_doppler=2,
        cpp_length=1,
    )
    detector = MLDetector(cfg, AL4)
    assert detector.candidates.shape == (65536, 8)
    rng = RandomSource(30).generator()
    payload = rng.integers(0, 2, frame_bit_count(cfg))
    frame = bits_to_frame(payload, cfg, AL4)
    ch = sample_channel(cfg, 3, rng)
    s = modulate(frame.symbols, cfg, AL4, frame.pcpg)
    r = remove_cpp(apply_channel_time(add_cpp(s, cfg), ch, cfg, None, 0.0), cfg)
    detected, _ = detector.detect(r, ch)
    assert np.array_equal(detected, payload)


@pytest.mark.parametrize("cfg, alphabet, geometry", GEOMETRY_CASES)
def test_detect_matches_exhaustive_operator_search(cfg, alphabet, geometry):
    detector = MLDetector(cfg, alphabet)
    rng = RandomSource(41).generator()
    delays, dopplers = (np.array(v) for v in zip(*geometry))
    paths = len(geometry)
    errors = 0
    for _ in range(24):
        payload = rng.integers(0, 2, frame_bit_count(cfg))
        frame = bits_to_frame(payload, cfg, alphabet)
        gains = np.sqrt(0.5 / paths) * (
            rng.standard_normal(paths) + 1j * rng.standard_normal(paths)
        )
        ch = ChannelRealization(gains, delays, dopplers)
        s = modulate(frame.symbols, cfg, alphabet, frame.pcpg)
        r = remove_cpp(apply_channel_time(add_cpp(s, cfg), ch, cfg, rng, 0.3), cfg)
        detected, metric = detector.detect(r, ch)
        metrics = dense_metrics(r, ch, cfg, alphabet)
        best = int(np.argmin(metrics))
        assert np.array_equal(detected, codeword_table(cfg)[best])
        assert metric == pytest.approx(metrics[best], rel=1e-12)
        errors += count_bit_errors(payload, detected)
    assert errors > 0  # the noise reaches decisions, not only easy ones


@pytest.mark.parametrize("cfg, alphabet, geometry", GEOMETRY_CASES)
def test_candidate_images_are_gain_weighted_path_images(cfg, alphabet, geometry):
    # the images are of the unit subcarriers; the head and tail coefficients
    # of every codeword weight them into its image, so all C codewords are compared
    rng = RandomSource(42).generator()
    gains = rng.standard_normal(len(geometry)) + 1j * rng.standard_normal(len(geometry))
    delays, dopplers = (np.array(v) for v in zip(*geometry))
    ch = ChannelRealization(gains, delays, dopplers)
    expected = path_image_tensor(cfg, alphabet, geometry) @ gains
    detector = MLDetector(cfg, alphabet)
    images, tables = detector.candidate_images(ch), detector.tables
    k = tables.n_head
    assert images.shape == (cfg.n_subcarriers, cfg.n_subcarriers)
    heads, tails = tables.head[:, :k] @ images[:k], tables.tail @ images[k:]
    sums = (heads[:, None, :] + tails[None, :, :]).reshape(expected.shape)
    assert np.max(np.abs(sums - expected)) < 1e-12


def _unit_subcarrier_frames(cfg):
    """Row m: the prefix-free frame of a unit value on subcarrier m, no pre-chirp."""
    m = np.arange(cfg.n_subcarriers)
    idft = np.exp(2j * np.pi * np.outer(m, m) / cfg.n_subcarriers) / np.sqrt(cfg.n_subcarriers)
    return idft * np.exp(2j * np.pi * cfg.post_chirp * m**2)


def _oracle_rows(count):
    """Every payload value of a small codebook; else the first, the last and 512 seeded ones."""
    if count <= 2**10:
        return np.arange(count)
    rng = RandomSource(45).generator()
    return np.concatenate([[0, count - 1], rng.integers(0, count, 512)])


@pytest.mark.parametrize("cfg, alphabet, n_head, n_tail", SPLIT_CASES)
def test_factor_parts_sum_to_codeword_frames_in_payload_order(cfg, alphabet, n_head, n_tail):
    # the oracle frames come one codeword at a time from bits_to_frame and modulate
    tables = factor_tables(cfg, alphabet)
    k = tables.n_head
    assert (len(tables.head), len(tables.tail)) == (n_head, n_tail)
    assert tables.tail.shape[1] == cfg.n_subcarriers - k
    assert np.array_equal(tables.head[:, k], -np.ones(n_head))  # the received frame's coefficient
    basis = _unit_subcarrier_frames(cfg)
    heads, tails = tables.head[:, :k] @ basis[:k], tables.tail @ basis[k:]
    signals, payload = codeword_time_signals(cfg, alphabet), codeword_table(cfg)
    assert signals.shape == (n_head * n_tail, cfg.n_subcarriers)
    b_total = frame_bit_count(cfg)
    for value in _oracle_rows(len(signals)).tolist():
        frame = bits_to_frame(int_to_bits(value, b_total), cfg, alphabet)
        assert np.array_equal(payload[value], frame.payload_bits)
        expected = modulate(frame.symbols, cfg, alphabet, frame.pcpg)
        i, j = divmod(value, n_tail)  # codeword i*C_t + j
        assert np.max(np.abs(heads[i] + tails[j] - expected)) < 1e-12
        assert np.max(np.abs(signals[value] - expected)) < 1e-12


@pytest.mark.parametrize("cfg, alphabet, n_head, n_tail", SPLIT_CASES)
def test_factor_forms_give_half_squared_norms(cfg, alphabet, n_head, n_tail):
    # each form row against a Gram block is x G x^H / 2, computed directly here
    tables = factor_tables(cfg, alphabet)
    n, k = cfg.n_subcarriers, tables.n_head
    rng = RandomSource(43).generator()
    rows = rng.standard_normal((n + 1, n)) + 1j * rng.standard_normal((n + 1, n))
    gram = rows @ rows.T.conj()
    for values, forms, block in (
        (tables.head, tables.head_forms, slice(0, k + 1)),
        (tables.tail, tables.tail_forms, slice(k + 1, n + 1)),
    ):
        expected = 0.5 * np.sum(np.abs(values @ rows[block]) ** 2, axis=1)
        assert np.allclose(forms @ gram[block].view(float).ravel(), expected, rtol=1e-12, atol=1e-12)


def test_codeword_time_signals_are_read_only():
    signals = codeword_time_signals(BPSK42, AL2)
    assert MLDetector(BPSK42, AL2).candidates is signals
    with pytest.raises(ValueError, match="read-only"):
        signals[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        signals *= 2.0
    tables = factor_tables(BPSK42, AL2)
    assert MLDetector(BPSK42, AL2).tables is tables
    for array in (tables.head, tables.tail, tables.head_forms, tables.tail_forms, tables.cells):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    with pytest.raises(TypeError):
        tables.cell_index[(0, 0)] = 1


@pytest.mark.parametrize("cfg,alphabet", [(BPSK42, AL2), (BASELINE4, PreChirpAlphabet((0.5,)))])
def test_every_shared_table_is_read_only(cfg, alphabet):
    # each of these is cached and handed to every caller: a write would change
    # every later frame, decision and bound of the process
    tables = factor_tables(cfg, alphabet)
    shared = {
        "constellation points": constellation_for(cfg),
        "pattern table": group_pattern_codebook(cfg.alphabet_size, cfg.group_size),
        "payload bits": codeword_table(cfg),
        "frames": codeword_time_signals(cfg, alphabet),
        "head": tables.head,
        "tail": tables.tail,
        "head forms": tables.head_forms,
        "tail forms": tables.tail_forms,
        "cells": tables.cells,
    }
    for name, array in shared.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 5


def test_cached_tables_are_shared_whatever_the_call_form():
    # every detector shares the cached arrays instead of building its own; the
    # cached functions take positional arguments only, since a keyword call
    # would be a second cache key and build a second copy
    detector = MLDetector(BPSK42, AL2)
    assert detector.candidates is codeword_time_signals(BPSK42, AL2)
    assert detector.payload_bits is codeword_table(BPSK42)
    assert detector.tables is factor_tables(BPSK42, AL2)
    assert MLDetector(cfg=BPSK42, alphabet=AL2).candidates is detector.candidates
    # the payload bits depend on the config alone: every alphabet shares them
    other = PreChirpAlphabet((0.3, 0.7))
    assert MLDetector(BPSK42, other).payload_bits is detector.payload_bits
    with pytest.raises(TypeError):
        codeword_table(cfg=BPSK42)
    for cached in (codeword_table, codeword_time_signals, factor_tables):
        with pytest.raises(TypeError):
            cached(cfg=BPSK42, alphabet=AL2)
        with pytest.raises(TypeError):
            cached(BPSK42, alphabet=AL2)


def test_codebook_sharing_a_frame_is_refused_naming_two_payloads():
    # c_b - c_a = 1/2 turns subcarrier m's pre-chirp by e^{i pi m^2} = (-1)^m, which a
    # BPSK sign absorbs: 64 payloads, 16 frames
    alphabet = PreChirpAlphabet((0.25, 0.75))
    with pytest.raises(ValueError, match="cannot carry its bits") as err:
        factor_tables(BPSK42, alphabet)
    words = re.search(r"payloads (\d+) and (\d+) share one frame", str(err.value)).groups()
    first, second = (int(word, 2) for word in words)
    assert first != second
    frames = []
    for value in (first, second):
        frame = bits_to_frame(int_to_bits(value, frame_bit_count(BPSK42)), BPSK42, alphabet)
        frames.append(modulate(frame.symbols, BPSK42, alphabet, frame.pcpg))
    assert np.max(np.abs(frames[0] - frames[1])) < 1e-12
    # every route to the tables refuses it
    for build in (codeword_time_signals, MLDetector):
        with pytest.raises(ValueError, match="cannot carry its bits"):
            build(BPSK42, alphabet)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_codebooks_clear_the_guard_by_far(name):
    # pairwise oracle: the smallest largest-entry gap between two head or two tail rows
    scenario = PRESETS[name]
    tables = factor_tables(scenario.cfg, scenario.alphabet)
    for rows in (tables.head[:, :-1], tables.tail):
        if len(rows) > 1:
            gaps = np.abs(rows[:, None, :] - rows[None, :, :]).max(axis=2)
            assert gaps[np.triu_indices(len(rows), 1)].min() >= 0.25 - 1e-12


# the smallest nonzero ||x_i - x_i'||^2 over two head rows and over two tail
# rows: every path is unitary, so it is the Gram diagonal of the closest index
# error events. QPSK keeps the classical 2; each PIM preset's closest rows are
# 5-20x nearer than that.
SMALLEST_ROW_GAPS = {
    "fig7_pim": (0.1444, 0.2033),
    "fig4": (0.8656, 0.0983),
    "fig8_lo": (0.3820, 0.7639),
    "fig8_hi": (0.3820, 0.7639),
    "baseline_afdm": (2.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(SMALLEST_ROW_GAPS))
def test_smallest_squared_distance_between_factor_rows(name):
    scenario = PRESETS[name]
    tables = factor_tables(scenario.cfg, scenario.alphabet)
    smallest = []
    for rows in (tables.head[:, :-1], tables.tail):
        d2 = np.sum(np.abs(rows[:, None, :] - rows[None, :, :]) ** 2, axis=2)
        smallest.append(d2[np.triu_indices(len(rows), 1)].min())
    assert smallest == pytest.approx(SMALLEST_ROW_GAPS[name], abs=5e-5)


def test_shared_row_finds_rows_within_the_tolerance_only():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((300, 5)) + 1j * rng.standard_normal((300, 5))
    assert _shared_row(rows) is None
    near = rows.copy()
    near[217] = near[41] + 0.9 * INJECTIVE_TOL * np.exp(2j * np.pi * rng.uniform(size=5))
    assert _shared_row(near) == (41, 217)
    near[217] = near[41] + 1.1 * INJECTIVE_TOL
    assert _shared_row(near) is None
    # rows equal in their weighted sums but not entry by entry are told apart
    assert _shared_row(np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)) is None
    assert _shared_row(np.ones((1, 3), dtype=complex)) is None


@pytest.mark.parametrize("gap,shared", [(1e-7, None), (1e-10, (0, 1))])
def test_shared_row_tolerance_lies_between_a_coarse_and_a_fine_gap(gap, shared):
    # the tolerance itself, not a multiple of it: rows 1e-7 apart are two frames,
    # rows 1e-10 apart are one
    rows = np.array([[0.3 + 0.2j, -0.5j, 0.7], [0.3 + 0.2j + gap, -0.5j, 0.7]])
    assert _shared_row(rows) == shared


@pytest.mark.parametrize("delay, doppler", [(0, 7), (0, -2), (1, 0), (-1, 0)])
def test_path_outside_the_grid_is_rejected(delay, doppler):
    # on N = 4 a Doppler of 7 aliases onto -1 and -2 onto 2 = -2 + N; neither is in the grid
    detector = MLDetector(BPSK42, AL2)
    r = np.ones(4, dtype=complex)
    outside = ChannelRealization(np.array([1.0, 0.5j]), np.array([0, delay]), np.array([1, doppler]))
    with pytest.raises(ValueError, match="outside the grid"):
        detector.detect(r, outside)
    # the pair scans read the same cell images, which reject the path too
    with pytest.raises(ValueError, match="outside the grid"):
        path_image_tensor(BPSK42, AL2, outside.geometry)
    edge = ChannelRealization(np.array([1.0, 0.5j]), np.array([0, BPSK42.max_delay]), np.array([1, -1]))
    bits, metric = detector.detect(r, edge)
    assert bits.shape == (frame_bit_count(BPSK42),) and np.isfinite(metric)


@pytest.mark.parametrize("snr_db", [5.0, 15.0])
def test_detect_matches_exhaustive_search_at_fig7_size(snr_db):
    # 2^16 codewords, C_h = C_t = 256: noisy frames where near misses decide
    cfg, alphabet = FIG7.cfg, FIG7.alphabet
    detector = MLDetector(cfg, alphabet)
    rng = RandomSource(44).generator()
    n0 = noise_variance_from_snr_db(snr_db)
    errors = 0
    for _ in range(24):
        payload = rng.integers(0, 2, frame_bit_count(cfg))
        frame = bits_to_frame(payload, cfg, alphabet)
        ch = sample_channel(cfg, FIG7.p_paths, rng)
        s = modulate(frame.symbols, cfg, alphabet, frame.pcpg)
        r = remove_cpp(apply_channel_time(add_cpp(s, cfg), ch, cfg, rng, n0), cfg)
        detected, metric = detector.detect(r, ch)
        metrics = dense_metrics(r, ch, cfg, alphabet)
        best = int(np.argmin(metrics))
        assert np.array_equal(detected, codeword_table(cfg)[best])
        assert metric == pytest.approx(metrics[best], rel=1e-9)
        errors += count_bit_errors(payload, detected)
    if snr_db == 5.0:
        assert errors > 0  # the noise reaches decisions, not only easy ones


def test_fig7_table_build_peaks_near_the_bytes_it_keeps():
    # the payload bits and frames are the only full-size arrays: both are
    # written in place from small head and tail tables
    for cached in (codeword_table, codeword_time_signals, factor_tables):
        cached.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        payload = codeword_table(FIG7.cfg)
        frames = codeword_time_signals(FIG7.cfg, FIG7.alphabet)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = payload.nbytes + frames.nbytes
    assert kept == 9 * 2**20
    # measured: kept + 0.7 MiB, of which 0.37 MiB are the factor tables
    assert peak <= kept + 2**20


def test_count_bit_errors():
    assert count_bit_errors([0, 1, 1], [0, 1, 1]) == 0
    assert count_bit_errors([0] * 6, [1] * 6) == 6
    assert count_bit_errors([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 0]) == 2
    with pytest.raises(ValueError, match="length mismatch"):
        count_bit_errors([0, 1], [0, 1, 1])
