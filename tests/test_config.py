import numpy as np
import pytest

from afdm_pim.config import (
    Constellation,
    RandomSource,
    SystemConfig,
    constellation_for,
    default_c1,
    make_constellation,
    system_config_from_items,
)


def test_default_c1_values():
    assert default_c1(8, 2) == pytest.approx(5 / 16)
    assert default_c1(6, 1) == pytest.approx(0.25)
    assert default_c1(1, 0) == pytest.approx(0.5)


def test_post_chirp_defaults_and_override():
    cfg = SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_doppler=1)
    assert cfg.post_chirp == pytest.approx(3 / 16)
    cfg2 = SystemConfig(
        n_subcarriers=4, n_groups=2, alphabet_size=2, max_doppler=0
    )
    assert cfg2.post_chirp == pytest.approx(1 / 8)
    over = SystemConfig(
        n_subcarriers=8, n_groups=2, alphabet_size=4, max_doppler=1, post_chirp=0.1
    )
    assert over.post_chirp == 0.1


def test_validation_errors():
    with pytest.raises(ValueError, match="does not divide"):
        SystemConfig(n_subcarriers=8, n_groups=3, alphabet_size=2)
    with pytest.raises(ValueError, match="cpp_length"):
        SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=2, cpp_length=1)
    # the prefix is at most one frame long: samples before -N would need a second period
    with pytest.raises(ValueError, match="cpp_length=3 longer than n_subcarriers=1"):
        SystemConfig(n_subcarriers=1, n_groups=1, alphabet_size=1, max_delay=2, cpp_length=3)
    with pytest.raises(ValueError, match="cpp_length=5 longer than n_subcarriers=4"):
        SystemConfig(n_subcarriers=4, n_groups=2, alphabet_size=2, cpp_length=5)
    with pytest.raises(ValueError, match="power of two"):
        SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, constellation_order=3)
    with pytest.raises(ValueError, match="perfect square"):
        SystemConfig(
            n_subcarriers=8,
            n_groups=2,
            alphabet_size=4,
            constellation_order=8,
            constellation_kind="QAM",
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.125])
def test_post_chirp_must_be_finite_and_non_negative(bad):
    with pytest.raises(ValueError, match="post_chirp"):
        SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, post_chirp=bad)


def test_placement_capacity_metadata():
    ok = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1)
    assert ok.placement_capacity == 6
    assert ok.placement_capacity_ok
    # capacity exceeding the frame is reported, not rejected
    tight = SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=2, max_doppler=2, cpp_length=2)
    assert tight.placement_capacity == 15
    assert not tight.placement_capacity_ok


def test_default_c1_times_delay_is_integral():
    for n, a_max, d_max in [(8, 1, 2), (6, 1, 1), (16, 2, 3)]:
        c1 = default_c1(n, a_max)
        for d in range(d_max + 1):
            step = 2 * n * c1 * d
            assert abs(step - round(step)) < 1e-12


@pytest.mark.parametrize(
    "kind,order",
    [("PSK", 2), ("PSK", 4), ("PSK", 8), ("PSK", 16), ("QAM", 4), ("QAM", 16), ("QAM", 64)],
)
def test_constellation_energy_normalized(kind, order):
    const = make_constellation(kind, order)
    assert np.mean(np.abs(const.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert const.bits_per_symbol == int(np.log2(order))


def test_psk_on_unit_circle_with_gray_labels():
    const = make_constellation("PSK", 8)
    assert np.allclose(np.abs(const.points), 1.0)
    # Gray labeling: angular neighbors differ in exactly one bit
    order = np.argsort(np.angle(const.points) % (2 * np.pi))
    labels = np.arange(8)[order]
    for a, b in zip(labels, np.roll(labels, -1)):
        assert bin(int(a) ^ int(b)).count("1") == 1


def test_bpsk_points():
    const = make_constellation("PSK", 2)
    assert const.points[0] == pytest.approx(1.0)
    assert const.points[1] == pytest.approx(-1.0)


def test_random_source_reproducible_and_streams_independent():
    a = RandomSource(seed=123).generator(7).standard_normal(16)
    b = RandomSource(seed=123).generator(7).standard_normal(16)
    c = RandomSource(seed=124).generator(7).standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # the key keeps its historical 0 after the seed, so seeded streams do not move
    expected = np.random.default_rng([123, 0, 7]).standard_normal(16)
    assert np.array_equal(a, expected)
    d = RandomSource(seed=123).generator(4, 2).standard_normal(4)
    e = RandomSource(seed=123).generator(4, 3).standard_normal(4)
    assert not np.array_equal(d, e)


def test_system_config_from_items():
    items = {
        "n_subcarriers": "8",
        "n_groups": "2",
        "alphabet_size": "4",
        "constellation_order": "2",
        "constellation_kind": "PSK",
        "max_delay": "1",
        "max_doppler": "2",
        "cpp_length": "1",
    }
    cfg = system_config_from_items(items)
    assert cfg.group_size == 4
    assert cfg.post_chirp == pytest.approx(5 / 16)
    with pytest.raises(ValueError, match="unknown"):
        system_config_from_items({"bogus": "1"})
