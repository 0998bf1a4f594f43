import numpy as np
import pytest

from afdm_pim.config import RandomSource, SystemConfig
from afdm_pim.mapping import PreChirpAlphabet, PreChirpPatternGroup, bits_to_frame, frame_bit_count
from afdm_pim.transceiver import add_cpp, build_daft, modulate, remove_cpp

AL4 = PreChirpAlphabet((0.01, 0.20, 0.41, 0.80))


def _cfg(n=8, g=2, lam=4, d_max=1, a_max=2):
    return SystemConfig(
        n_subcarriers=n, n_groups=g, alphabet_size=lam, max_delay=d_max,
        max_doppler=a_max, cpp_length=d_max,
    )


def _random_frame(cfg, alphabet, rng):
    return bits_to_frame(rng.integers(0, 2, frame_bit_count(cfg)), cfg, alphabet)


def test_daft_unitary_over_random_patterns():
    cfg = _cfg()
    rng = RandomSource(11).generator()
    eye = np.eye(cfg.n_subcarriers)
    for _ in range(100):
        frame = _random_frame(cfg, AL4, rng)
        a = build_daft(cfg, AL4, frame.pcpg)
        assert np.linalg.norm(a @ a.conj().T - eye) < 1e-10


def test_daft_degenerate_single_subcarrier():
    cfg = SystemConfig(n_subcarriers=1, n_groups=1, alphabet_size=1)
    pcpg = PreChirpPatternGroup(assignment=(0,), group_size=1)
    a = build_daft(cfg, PreChirpAlphabet((0.5,)), pcpg)
    assert a.shape == (1, 1)
    # e^{-j2pi c2 * 0} * e^{-j2pi c1 * 0} / sqrt(1) = 1
    assert a[0, 0] == pytest.approx(1.0)


def test_daft_matches_elementwise_definition():
    cfg = _cfg(n=4, g=2, lam=2, a_max=1, d_max=0)
    al = PreChirpAlphabet((0.20, 0.60))
    pcpg = PreChirpPatternGroup(assignment=(0, 1, 1, 0), group_size=2)
    a = build_daft(cfg, al, pcpg)
    n = 4
    c2 = al.array[list(pcpg.assignment)]
    expected = np.empty((n, n), dtype=complex)
    for m in range(n):
        for k in range(n):
            expected[m, k] = np.exp(
                -2j * np.pi * (c2[m] * m**2 + cfg.post_chirp * k**2 + m * k / n)
            ) / np.sqrt(n)
    assert np.allclose(a, expected, atol=1e-12)


def test_modulate_impulse_gives_post_chirp_carrier():
    cfg = _cfg(n=8)
    rng = RandomSource(2).generator()
    frame = _random_frame(cfg, AL4, rng)
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    s = modulate(x, cfg, AL4, frame.pcpg)
    n = np.arange(8)
    c2_0 = AL4.array[frame.pcpg.assignment[0]]
    expected = np.exp(2j * np.pi * (cfg.post_chirp * n**2 + c2_0 * 0)) / np.sqrt(8)
    assert np.allclose(s, expected, atol=1e-12)


def test_modulate_matches_explicit_double_sum():
    cfg = _cfg()
    rng = RandomSource(3).generator()
    frame = _random_frame(cfg, AL4, rng)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = modulate(x, cfg, AL4, frame.pcpg)
    c2 = AL4.array[list(frame.pcpg.assignment)]
    explicit = np.zeros(8, dtype=complex)
    for n in range(8):
        for m in range(8):
            explicit[n] += x[m] * np.exp(
                2j * np.pi * (cfg.post_chirp * n**2 + c2[m] * m**2 + m * n / 8)
            )
    explicit /= np.sqrt(8)
    assert np.max(np.abs(s - explicit)) < 1e-9


def test_modulate_demodulate_roundtrip_and_norms():
    cfg = _cfg()
    rng = RandomSource(4).generator()
    for _ in range(20):
        frame = _random_frame(cfg, AL4, rng)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s = modulate(x, cfg, AL4, frame.pcpg)
        assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(x))
        y = build_daft(cfg, AL4, frame.pcpg) @ s
        assert np.max(np.abs(y - x)) < 1e-10


def test_norm_preserved_for_thousand_vectors():
    cfg = _cfg()
    rng = RandomSource(14).generator()
    frame = _random_frame(cfg, AL4, rng)
    a_h = build_daft(cfg, AL4, frame.pcpg).conj().T
    x = rng.standard_normal((1000, 8)) + 1j * rng.standard_normal((1000, 8))
    s = x @ a_h.T
    assert np.allclose(
        np.linalg.norm(s, axis=1), np.linalg.norm(x, axis=1), atol=1e-10
    )


def test_wrong_pattern_hypothesis_disturbs_recovery():
    cfg = _cfg()
    rng = RandomSource(5).generator()
    frame = _random_frame(cfg, AL4, rng)
    other = _random_frame(cfg, AL4, rng)
    assert frame.pcpg.assignment != other.pcpg.assignment
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = modulate(x, cfg, AL4, frame.pcpg)
    y = build_daft(cfg, AL4, other.pcpg) @ s
    assert np.linalg.norm(y - x) > 1e-3


def test_cpp_roundtrip_and_phase():
    cfg = _cfg(n=8, d_max=1)
    assert cfg.cpp_length == 1
    rng = RandomSource(6).generator()
    s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    with_cpp = add_cpp(s, cfg)
    assert with_cpp.shape == (9,)
    assert np.array_equal(remove_cpp(with_cpp, cfg), s)
    # prefix value follows the chirp-periodic rule with unit modulus
    n = -1
    expected = s[8 + n] * np.exp(-2j * np.pi * cfg.post_chirp * (64 + 16 * n))
    assert with_cpp[0] == pytest.approx(expected)
    assert abs(with_cpp[0]) == pytest.approx(abs(s[7]))


def test_cpp_batch_matches_single_frames():
    cfg = _cfg(n=8, d_max=2)
    rng = RandomSource(4).generator()
    frames = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    batch = add_cpp(frames, cfg)
    assert batch.shape == (3, 10)
    for f in range(3):
        assert np.array_equal(batch[f], add_cpp(frames[f], cfg))


def test_cpp_zero_length_identity():
    cfg = _cfg(n=8, d_max=0)
    s = np.arange(8, dtype=complex)
    assert np.array_equal(add_cpp(s, cfg), s)
    assert np.array_equal(remove_cpp(s, cfg), s)


def test_cpp_length_mismatch():
    cfg = _cfg(n=8, d_max=1)
    with pytest.raises(ValueError):
        add_cpp(np.zeros(9, dtype=complex), cfg)
    with pytest.raises(ValueError):
        remove_cpp(np.zeros(8, dtype=complex), cfg)

