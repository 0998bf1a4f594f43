import numpy as np
import pytest

from afdm_pim.config import RandomSource, SystemConfig
from afdm_pim.mapping import PreChirpAlphabet, bits_to_frame, frame_bit_count
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
    pcpg = np.zeros(1, dtype=np.int8)
    a = build_daft(cfg, PreChirpAlphabet((0.5,)), pcpg)
    assert a.shape == (1, 1)
    # e^{-j2pi c2 * 0} * e^{-j2pi c1 * 0} / sqrt(1) = 1
    assert a[0, 0] == pytest.approx(1.0)


def test_daft_matches_elementwise_definition():
    cfg = _cfg(n=4, g=2, lam=2, a_max=1, d_max=0)
    al = PreChirpAlphabet((0.20, 0.60))
    pcpg = np.array([0, 1, 1, 0], dtype=np.int8)
    a = build_daft(cfg, al, pcpg)
    n = 4
    c2 = al.array[pcpg]
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
    c2_0 = AL4.array[frame.pcpg[0]]
    expected = np.exp(2j * np.pi * (cfg.post_chirp * n**2 + c2_0 * 0)) / np.sqrt(8)
    assert np.allclose(s, expected, atol=1e-12)


def test_modulate_matches_explicit_double_sum():
    cfg = _cfg()
    rng = RandomSource(3).generator()
    frame = _random_frame(cfg, AL4, rng)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    s = modulate(x, cfg, AL4, frame.pcpg)
    c2 = AL4.array[frame.pcpg]
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
    assert not np.array_equal(frame.pcpg, other.pcpg)
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


def test_cpp_phase_off_the_default_post_chirp():
    # under the default post-chirp c1 * 2N is an odd integer, so e^{-j2pi c1 2N n} = 1 and
    # the 2Nn term cannot be seen; the channel's per-path operator takes its prefix from here
    cfg = SystemConfig(
        n_subcarriers=5, n_groups=1, alphabet_size=1, max_delay=3, cpp_length=3, post_chirp=0.17
    )
    s = np.exp(2j * np.pi * np.arange(5) / 7)
    with_cpp = add_cpp(s, cfg)
    for i, n in enumerate(range(-3, 0)):
        expected = s[5 + n] * np.exp(-2j * np.pi * 0.17 * (25 + 10 * n))
        assert with_cpp[i] == pytest.approx(expected, abs=1e-14)
    assert np.array_equal(with_cpp[3:], s)


@pytest.mark.parametrize("n,l_cp,c1", [(5, 3, 0.17), (8, 4, 0.3), (7, 7, 0.123)])
def test_prefixed_frame_is_the_synthesis_sum_at_negative_samples(n, l_cp, c1):
    # the chirp-periodic prefix continues the DAFT synthesis sum to n < 0, for
    # any post-chirp: sum_m x_m e^{i2pi(c2_m m^2 + m n / N + c1 n^2)} / sqrt(N)
    cfg = SystemConfig(
        n_subcarriers=n, n_groups=1, alphabet_size=n, cpp_length=l_cp, post_chirp=c1
    )
    rng = RandomSource(n).generator()
    alphabet = PreChirpAlphabet(tuple(np.sort(rng.uniform(0.01, 0.99, n))))
    pcpg = rng.permutation(n).astype(np.int8)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = np.arange(n)[:, None]
    samples = np.arange(-l_cp, n)[None, :]
    c2 = alphabet.array[pcpg][:, None]
    basis = np.exp(2j * np.pi * (c2 * m**2 + m * samples / n + c1 * samples**2)) / np.sqrt(n)
    expected = x @ basis
    assert np.allclose(add_cpp(modulate(x, cfg, alphabet, pcpg), cfg), expected, rtol=0, atol=1e-13)


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


def test_pattern_and_symbol_length_mismatch():
    cfg = _cfg()
    with pytest.raises(ValueError, match="^pattern length does not match n_subcarriers$"):
        build_daft(cfg, AL4, np.zeros(7, dtype=int))
    with pytest.raises(ValueError, match="^x must have length 8$"):
        modulate(np.ones(7), cfg, AL4, np.zeros(8, dtype=int))


def test_cpp_length_mismatch():
    cfg = _cfg(n=8, d_max=1)
    with pytest.raises(ValueError):
        add_cpp(np.zeros(9, dtype=complex), cfg)
    with pytest.raises(ValueError):
        remove_cpp(np.zeros(8, dtype=complex), cfg)

