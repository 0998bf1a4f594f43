"""Property tests: the fast kernels against their oracles over drawn small
configurations. Every draw is derandomized, so a run is deterministic."""

import re
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afdm_pim.analysis import abep_curve_jakes, jakes_geometry_mixture, pairwise_difference, upep
from afdm_pim.channel import ChannelRealization, apply_channel_time, time_domain_operator
from afdm_pim.config import SystemConfig
from afdm_pim.detection import MLDetector, codeword_time_signals, path_image_tensor
from afdm_pim.mapping import (
    PreChirpAlphabet,
    bits_to_frame,
    bits_to_int,
    codeword_count,
    codeword_table,
    frame_bit_count,
    group_pattern_codebook,
    int_to_bits,
)
from afdm_pim.optimizer import (
    _class_objectives,
    _collision_terms,
    build_objective_context,
    reduced_objective,
    uniform_heuristic,
)
from afdm_pim.suites import closed_form_paths
from afdm_pim.transceiver import add_cpp, build_daft, modulate, remove_cpp
from dense_search import dense_metrics

MIN_GAP = 0.02  # closer values make 1 - cos cancel in the oracle as well
ORACLE_PAIRS = 32  # pairs checked besides one per class

# (N, G) with lambda = N/G >= 2. N = 7 and N = 8 with G = 1 are left out:
# their 4,096 and 32,768 patterns make more pattern pairs than the enumeration
# limit, so `build_objective_context` refuses them before it builds any table.
GEOMETRIES = [
    (n, g)
    for n in range(2, 9)
    for g in range(1, n)
    if n % g == 0 and (n, g) not in ((7, 1), (8, 1))
]


def _path_operator(cfg, d, a):
    """The channel operator of the unit-gain path in cell (d, a)."""
    return time_domain_operator(ChannelRealization([1.0], [d], [a]), cfg)


def _collision_terms_oracle(group_patterns, cfg):
    """`_collision_terms` as a loop over the group-table row pairs, one support each."""
    by_size = {}
    for g in range(cfg.n_groups):
        for pa, pb in combinations(group_patterns, 2):
            support = np.flatnonzero(pa != pb)
            entry = (g * cfg.group_size + support, pa[support], pb[support])
            by_size.setdefault(len(support), []).append(entry)
    return tuple(
        tuple(np.array(column) for column in zip(*entries))
        for _, entries in sorted(by_size.items())
    )


@pytest.mark.parametrize("n, g", GEOMETRIES)
def test_collision_terms_match_the_per_pair_loop(n, g):
    cfg = SystemConfig(n_subcarriers=n, n_groups=g, alphabet_size=n // g)
    table = group_pattern_codebook(n // g, n // g)
    got, want = _collision_terms(table, cfg), _collision_terms_oracle(table, cfg)
    assert len(got) == len(want)
    for block, expected in zip(got, want):
        for array, oracle in zip(block, expected):
            assert array.dtype == oracle.dtype
            assert np.array_equal(array, oracle)


@lru_cache(maxsize=None)
def _context(n, g, d_max, a_max, p_paths):
    cfg = SystemConfig(
        n_subcarriers=n, n_groups=g, alphabet_size=n // g,
        max_delay=d_max, max_doppler=a_max, cpp_length=d_max,
    )
    return build_objective_context(cfg, p_paths)


@st.composite
def objective_cases(draw):
    n, g = draw(st.sampled_from(GEOMETRIES))
    d_max, a_max = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    capacity = (d_max + 1) * (2 * a_max + 1)
    p_paths = draw(st.integers(1, min(3, capacity)))
    lam = n // g
    # sorted values 0.01 + x_i + MIN_GAP * i with sorted x_i in [0, span]
    span = 0.98 - MIN_GAP * (lam - 1)
    offsets = draw(st.lists(st.floats(0.0, span), min_size=lam, max_size=lam))
    values = 0.01 + np.sort(offsets) + MIN_GAP * np.arange(lam)
    return (n, g, d_max, a_max, p_paths), values


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(objective_cases(), st.integers(0, 2**32 - 1))
# the fig7 geometry, whose even-lambda heuristic holds a difference of 1/2
@example(((8, 2, 1, 2, 3), uniform_heuristic(4)), 0)
# a single delay-Doppler cell: no cosine, every objective exactly 0
@example(((4, 1, 0, 0, 1), uniform_heuristic(4)), 0)
def test_class_objectives_match_reduced_objective(case, pick_seed):
    key, values = case
    ctx = _context(*key)
    lam = len(values)
    alphabets = np.vstack([values, uniform_heuristic(lam)])
    batched = _class_objectives(alphabets, ctx)
    if len(ctx.cos_args) == 0:
        assert np.all(batched == 0.0)
    # one pair of each class, and a few more drawn from all pairs
    _, first = np.unique(ctx.pair_class, return_index=True)
    rng = np.random.default_rng(pick_seed)
    extra = rng.choice(len(ctx.pairs), min(ORACLE_PAIRS, len(ctx.pairs)), replace=False)
    for i in np.union1d(first, extra):
        for vals, scores in zip(alphabets, batched):
            oracle = reduced_objective(vals, ctx, ctx.pairs[i])
            got = scores[ctx.pair_class[i]]
            assert (got == 0.0) == (oracle == 0.0), (key, vals, ctx.pairs[i])
            assert abs(got - oracle) <= 1e-12 * oracle, (key, vals, ctx.pairs[i])


# --- the channel law, the frames, the detector and the bound over drawn small configurations

MAX_DRAWN_CODEWORDS = 4096
DETECTED_FRAMES = 3


def _codebook_config(n, g, lam, kind, order, d_max=0, a_max=0, cpp=0, post_chirp=None):
    return SystemConfig(
        n_subcarriers=n, n_groups=g, alphabet_size=lam,
        constellation_order=order, constellation_kind=kind,
        max_delay=d_max, max_doppler=a_max, cpp_length=cpp, post_chirp=post_chirp,
    )


# (N, G, lambda, kind, order): G divides N, lambda is 1 or N/G, at most 4,096 codewords
CODEBOOKS = [
    (n, g, lam, kind, order)
    for n in range(1, 9)
    for g in range(1, n + 1)
    if n % g == 0
    for lam in sorted({1, n // g})
    for kind, order in (("PSK", 2), ("PSK", 4), ("PSK", 8), ("QAM", 4))
    if 2 ** frame_bit_count(_codebook_config(n, g, lam, kind, order)) <= MAX_DRAWN_CODEWORDS
]
# the per-pair bound oracle is a Python loop: at most 2,016 pairs on each of at
# most 10 supports (2 paths on the 4 cells that Jakes reaches for d_max, a_max <= 1)
BOUND_CODEBOOKS = [c for c in CODEBOOKS if frame_bit_count(_codebook_config(*c)) <= 6]


@st.composite
def channel_cases(draw, codebooks=CODEBOOKS, max_cell=2, max_paths=3):
    n, g, lam, kind, order = draw(st.sampled_from(codebooks))
    d_max = draw(st.integers(0, min(max_cell, n)))
    a_max = draw(st.integers(0, max_cell))
    cpp = draw(st.sampled_from(sorted({d_max, min(d_max + 1, n)})))
    # the default post-chirp, or a random one, off the closed form's grid
    post_chirp = draw(st.one_of(st.none(), st.floats(0.01, 0.99)))
    cfg = _codebook_config(n, g, lam, kind, order, d_max, a_max, cpp, post_chirp)
    span = 0.98 - MIN_GAP * (lam - 1)
    offsets = draw(st.lists(st.floats(0.0, span), min_size=lam, max_size=lam))
    alphabet = PreChirpAlphabet(tuple(0.01 + np.sort(offsets) + MIN_GAP * np.arange(lam)))
    cells = st.tuples(st.integers(0, d_max), st.integers(-a_max, a_max))
    geometry = draw(st.lists(cells, min_size=1, max_size=max_paths))
    return cfg, alphabet, geometry


def _payload_frame(cfg, alphabet, value):
    """The prefix-free frame of one payload value, through the bit mapping and `modulate`."""
    frame = bits_to_frame(int_to_bits(value, frame_bit_count(cfg)), cfg, alphabet)
    return frame, modulate(frame.symbols, cfg, alphabet, frame.pcpg)


def _refused_codebook(cfg, alphabet, err):
    """The refusal of a codebook that cannot carry its bits names two payloads
    whose frames are one."""
    words = re.search(r"payloads (\d+) and (\d+) share one frame", str(err)).groups()
    first, second = (int(word, 2) for word in words)
    assert first != second
    gap = _payload_frame(cfg, alphabet, first)[1] - _payload_frame(cfg, alphabet, second)[1]
    assert np.max(np.abs(gap)) < 1e-8, str(err)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(channel_cases(), st.integers(0, 2**32 - 1))
# odd N with a path at the prefix's end, where the prefix correction is -1
@example((_codebook_config(3, 1, 3, "PSK", 2, 1, 1, 1), PreChirpAlphabet((0.29, 0.62, 0.93)),
          [(1, 1), (1, 1), (0, -1)]), 0)
# a codebook that cannot carry its bits: 64 payloads, 16 frames
@example((_codebook_config(4, 2, 2, "PSK", 2, 0, 1, 0), PreChirpAlphabet((0.25, 0.75)),
          [(0, 1), (0, -1)]), 0)
def test_derived_channel_frames_and_decisions_match_their_oracles(case, seed):
    cfg, alphabet, geometry = case
    rng = np.random.default_rng(seed)
    count = codeword_count(cfg)
    n, paths = cfg.n_subcarriers, len(geometry)
    delays, dopplers = (np.array(v) for v in zip(*geometry))
    gains = rng.standard_normal(paths) + 1j * rng.standard_normal(paths)
    ch = ChannelRealization(gains, delays, dopplers)

    # the per-path operator derived from the prefix and the sample-level channel
    # against the paper's closed form, under a drawn codeword's pattern; the
    # closed form holds where every 2*N*c1*d is an integer
    frame, _ = _payload_frame(cfg, alphabet, int(rng.integers(count)))
    steps = 2 * n * cfg.post_chirp * delays
    if np.all(np.abs(steps - np.round(steps)) <= 1e-9):
        a_mat = build_daft(cfg, alphabet, frame.pcpg)
        closed = closed_form_paths(cfg, alphabet.array[frame.pcpg], geometry)
        for (d, a), want in zip(geometry, closed):
            got = a_mat @ _path_operator(cfg, d, a) @ a_mat.conj().T
            assert np.max(np.abs(got - want)) < 1e-9, (cfg, geometry)

    try:
        signals = codeword_time_signals(cfg, alphabet)
    except ValueError as err:
        _refused_codebook(cfg, alphabet, err)
        return
    payload = codeword_table(cfg)
    picks = rng.choice(count, min(8, count), replace=False)
    for value in picks:
        assert np.array_equal(payload[value], int_to_bits(value, frame_bit_count(cfg)))
        assert np.max(np.abs(signals[value] - _payload_frame(cfg, alphabet, value)[1])) < 1e-12

    # each path's codeword images against the frames through its derived operator
    images = path_image_tensor(cfg, alphabet, geometry)
    for p, (d, a) in enumerate(geometry):
        want = signals @ _path_operator(cfg, d, a).T
        assert np.max(np.abs(images[:, :, p] - want)) < 1e-12, (cfg, geometry)

    # noisy decisions against the dense search over the sample-level images
    detector = MLDetector(cfg, alphabet)
    for value in picks[:DETECTED_FRAMES]:
        sent = apply_channel_time(add_cpp(signals[value], cfg), ch, cfg, None, 0.0)
        noise = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        r = remove_cpp(sent, cfg) + noise
        metrics = dense_metrics(r, ch, cfg, alphabet)
        bits, metric = detector.detect(r, ch)
        chosen = bits_to_int(bits)
        # equal decisions, but for distances that agree to the metric's rounding
        assert metrics[chosen] - metrics.min() <= 1e-9 * (1.0 + metrics.min()), (cfg, geometry)
        assert metric == pytest.approx(metrics[chosen], rel=1e-9, abs=1e-12)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(channel_cases(BOUND_CODEBOOKS, max_cell=1, max_paths=2), st.sampled_from([0.05, 0.5]))
def test_bound_matches_per_pair_upep(case, n0):
    # the union bound against the documented per-pair operation over the
    # channel law's supports: `pairwise_difference` and `upep` on each pair
    cfg, alphabet, geometry = case
    p_paths = len(geometry)
    try:
        signals = codeword_time_signals(cfg, alphabet)
    except ValueError as err:
        _refused_codebook(cfg, alphabet, err)
        with pytest.raises(ValueError, match="cannot carry its bits"):
            abep_curve_jakes(cfg, alphabet, p_paths, [n0])
        return
    payload = codeword_table(cfg)
    total = 0.0
    for support, mult, weight in jakes_geometry_mixture(cfg, p_paths):
        phi = np.stack([signals @ _path_operator(cfg, d, a).T for d, a in support], axis=-1)
        phi = phi * np.sqrt(np.asarray(mult) / p_paths)  # column gain variance mult/P
        for i, j in combinations(range(len(signals)), 2):
            tau = np.count_nonzero(payload[i] != payload[j])
            total += weight * 2 * upep(pairwise_difference(phi[i], phi[j]), 1, n0) * tau
    b_total = frame_bit_count(cfg)
    expected = min(total / (b_total * 2.0**b_total), 1.0)
    got = float(abep_curve_jakes(cfg, alphabet, p_paths, [n0])[0])
    assert got == pytest.approx(expected, rel=1e-9), (cfg, geometry)
