import numpy as np
import pytest

from afdm_pim.channel import (
    ChannelRealization,
    apply_channel_time,
    delay_doppler_cells,
    draw_paths,
    enumerate_placements,
    path_offset,
    sample_channel,
    time_domain_operator,
)
from afdm_pim.config import RandomSource, SystemConfig
from afdm_pim.mapping import PreChirpAlphabet, PreChirpPatternGroup, bits_to_frame, frame_bit_count
from afdm_pim.suites import build_effective_analytic, build_effective_matrix
from afdm_pim.transceiver import add_cpp, modulate, remove_cpp

AL4 = PreChirpAlphabet((0.01, 0.20, 0.41, 0.80))
CFG = SystemConfig(
    n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=2, max_doppler=2, cpp_length=2
)


def _frame(rng, cfg=CFG, alphabet=AL4):
    return bits_to_frame(rng.integers(0, 2, frame_bit_count(cfg)), cfg, alphabet)


def test_sample_channel_statistics():
    cfg = SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=1, max_doppler=1, cpp_length=1)
    rng = RandomSource(21).generator()
    ch = sample_channel(cfg, 100_000, rng)
    # E|h|^2 targets 1/P
    assert 0.95 / 100_000 < np.mean(np.abs(ch.gains) ** 2) < 1.05 / 100_000
    # floor(cos) Doppler support: {-1, 0} essentially, +1 has zero probability
    values, counts = np.unique(ch.dopplers, return_counts=True)
    assert set(values.tolist()) <= {-1, 0, 1}
    freq = dict(zip(values.tolist(), counts / len(ch.dopplers)))
    assert freq.get(-1, 0) == pytest.approx(0.5, abs=0.02)
    assert freq.get(0, 0) == pytest.approx(0.5, abs=0.02)
    assert freq.get(1, 0) < 1e-4
    assert ch.delays.min() >= 0 and ch.delays.max() <= 1


def test_sample_channel_is_row_zero_of_the_batched_draw():
    ch = sample_channel(CFG, 5, RandomSource(4).generator())
    gains, delays, dopplers = draw_paths(CFG, 5, RandomSource(4).generator(), (1,))
    assert np.array_equal(ch.gains, gains[0])
    assert np.array_equal(ch.delays, delays[0])
    assert np.array_equal(ch.dopplers, dopplers[0])


def test_sample_channel_zero_doppler():
    cfg = SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=1, cpp_length=1)
    ch = sample_channel(cfg, 64, RandomSource(3).generator())
    assert np.all(ch.dopplers == 0)


def test_identity_and_pure_delay_paths():
    rng = RandomSource(5).generator()
    frame = _frame(rng)
    s = modulate(frame.symbols, CFG, AL4, frame.pcpg)
    prefixed = add_cpp(s, CFG)
    ident = ChannelRealization(np.array([1.0 + 0j]), np.array([0]), np.array([0]))
    assert np.allclose(apply_channel_time(prefixed, ident, CFG, None, 0.0), prefixed)
    delayed = ChannelRealization(np.array([1.0 + 0j]), np.array([1]), np.array([0]))
    r = apply_channel_time(prefixed, delayed, CFG, None, 0.0)
    assert np.allclose(r[1:], prefixed[:-1])


def test_path_offset_examples():
    cfg = SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=1, max_doppler=1, cpp_length=1)
    assert cfg.post_chirp == pytest.approx(3 / 16)
    assert path_offset(cfg, 1, 1) == 4
    assert path_offset(cfg, 0, 0) == 0
    assert path_offset(cfg, 0, -1) == 7
    bad = SystemConfig(
        n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=1, max_doppler=1,
        cpp_length=1, post_chirp=0.17,
    )
    with pytest.raises(ValueError, match="not an integer"):
        path_offset(bad, 1, 0)


def test_identity_channel_gives_identity_matrix():
    rng = RandomSource(6).generator()
    frame = _frame(rng)
    ident = ChannelRealization(np.array([1.0 + 0j]), np.array([0]), np.array([0]))
    eff = build_effective_matrix(ident, CFG, AL4, frame.pcpg)
    assert np.max(np.abs(eff.matrix - np.eye(8))) < 1e-10
    analytic = build_effective_analytic(ident, CFG, AL4, frame.pcpg)
    assert np.array_equal(analytic.per_path[0], np.eye(8).astype(complex))


def test_per_path_structure_single_unit_entry_per_row():
    rng = RandomSource(7).generator()
    frame = _frame(rng)
    ch = sample_channel(CFG, 3, rng)
    eff = build_effective_analytic(ch, CFG, AL4, frame.pcpg)
    for h_p, (d, a) in zip(eff.per_path, ch.geometry):
        loc = path_offset(CFG, d, a)
        nz = np.abs(h_p) > 1e-12
        assert np.all(nz.sum(axis=1) == 1)
        rows = np.arange(8)
        assert np.all(np.argmax(nz, axis=1) == (rows + loc) % 8)
        assert np.allclose(np.abs(h_p[nz]), 1.0)
        assert np.linalg.norm(h_p, "fro") ** 2 == pytest.approx(8.0)


def test_effective_matrix_frobenius_tracks_gains():
    # distinct offsets: per-path supports are disjoint so energies add exactly
    rng = RandomSource(8).generator()
    frame = _frame(rng)
    ch = ChannelRealization(
        gains=np.array([0.5 + 0.1j, -0.2 + 0.7j, 0.3 - 0.4j]),
        delays=np.array([0, 1, 2]),
        dopplers=np.array([0, 1, -1]),
    )
    eff = build_effective_analytic(ch, CFG, AL4, frame.pcpg)
    assert len({path_offset(CFG, d, a) for d, a in ch.geometry}) == 3
    expected = np.sum(np.abs(ch.gains) ** 2) * 8
    assert np.linalg.norm(eff.matrix, "fro") ** 2 == pytest.approx(expected)


def test_time_domain_operator_equals_sample_route():
    rng = RandomSource(12).generator()
    frame = _frame(rng)
    ch = sample_channel(CFG, 3, rng)
    s = modulate(frame.symbols, CFG, AL4, frame.pcpg)
    r = remove_cpp(apply_channel_time(add_cpp(s, CFG), ch, CFG, None, 0.0), CFG)
    op = time_domain_operator(ch, CFG)
    assert np.max(np.abs(op @ s - r)) < 1e-10


def test_awgn_variance():
    rng = RandomSource(13).generator()
    s = np.zeros(10, dtype=complex)
    cfg = SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=2, max_doppler=2, cpp_length=2)
    ident = ChannelRealization(np.array([0.0 + 0j]), np.array([0]), np.array([0]))
    samples = np.concatenate(
        [apply_channel_time(s, ident, cfg, rng, 0.5) for _ in range(4000)]
    )
    assert np.mean(np.abs(samples) ** 2) == pytest.approx(0.5, rel=0.05)


def test_negative_delay_is_rejected():
    ch = ChannelRealization(np.array([1.0 + 0j]), np.array([-1]), np.array([0]))
    with pytest.raises(ValueError, match="non-negative"):
        apply_channel_time(np.zeros(10, dtype=complex), ch, CFG, None, 0.0)


@pytest.mark.parametrize("doppler", [7, -2])
def test_doppler_outside_the_bound_is_rejected(doppler):
    # on N = 4 a Doppler of 7 would alias onto -1, which is inside the bound
    cfg = SystemConfig(n_subcarriers=4, n_groups=2, alphabet_size=2, max_doppler=1)
    ch = ChannelRealization(np.array([1.0 + 0j]), np.array([0]), np.array([doppler]))
    with pytest.raises(ValueError, match="Dopplers"):
        apply_channel_time(np.zeros(4, dtype=complex), ch, cfg, None, 0.0)
    edge = ChannelRealization(np.array([1.0, 1j]), np.array([0, 0]), np.array([1, -1]))
    assert apply_channel_time(np.ones(4, dtype=complex), edge, cfg, None, 0.0).shape == (4,)


def test_noise_requires_rng():
    ident = ChannelRealization(np.array([1.0 + 0j]), np.array([0]), np.array([0]))
    with pytest.raises(ValueError, match="rng required"):
        apply_channel_time(np.zeros(10, dtype=complex), ident, CFG, None, 0.1)


def test_offsets_distinct_under_capacity_condition():
    cfg = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1)
    assert cfg.placement_capacity_ok
    offsets = {path_offset(cfg, d, a) for d, a in delay_doppler_cells(cfg)}
    assert len(offsets) == cfg.placement_capacity


def test_enumerate_placements_counts():
    cfg = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1)
    assert len(delay_doppler_cells(cfg)) == 6
    assert len(enumerate_placements(cfg, 3, distinct=True)) == 20
    small = SystemConfig(n_subcarriers=8, n_groups=4, alphabet_size=2, max_delay=0, max_doppler=1)
    assert len(enumerate_placements(small, 4, distinct=True)) == 0
    assert len(enumerate_placements(small, 4, distinct=False)) == 15


def test_effective_channel_regression_fixture():
    # frozen realization + entries, cross-validated once by the two builders;
    # guards the phase conventions against accidental drift
    ch = ChannelRealization(
        gains=np.array([0.6 - 0.25j, -0.125 + 0.5j, 0.3 + 0.7j]),
        delays=np.array([0, 1, 2]),
        dopplers=np.array([1, -1, 0]),
    )
    pcpg = PreChirpPatternGroup(assignment=(0, 1, 2, 3, 3, 1, 0, 2), group_size=4)
    eff = build_effective_analytic(ch, CFG, AL4, pcpg)
    assert tuple(path_offset(CFG, d, a) for d, a in ch.geometry) == (1, 4, 2)
    expected = {
        (0, 1): 0.423174325698757 + 0.493379661183355j,
        (0, 4): 0.419774769865096 - 0.299021976758742j,
        (3, 7): -0.383391588261777 - 0.344435610891371j,
        (7, 1): -0.215042819991349 + 0.730586466867658j,
        (5, 0): 0.0 + 0.0j,  # off the three cyclic diagonals
    }
    for (i, j), value in expected.items():
        assert eff.matrix[i, j] == pytest.approx(value, abs=1e-12)


def test_zero_path_channel_is_rejected():
    with pytest.raises(ValueError, match="at least one path"):
        ChannelRealization(np.array([]), np.array([]), np.array([]))

