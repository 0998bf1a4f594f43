import math

import numpy as np
import pytest

from afdm_pim import analysis
from afdm_pim.analysis import (
    abep_curve,
    abep_curve_jakes,
    check_full_diversity_conditions,
    diversity_order,
    jakes_cell_pmf,
    jakes_doppler_pmf,
    jakes_geometry_mixture,
    pairwise_difference,
    spectral_efficiency,
    upep,
)
from afdm_pim.channel import enumerate_placements
from afdm_pim.config import RandomSource, SystemConfig
from afdm_pim.mapping import PreChirpAlphabet

AL2 = PreChirpAlphabet((0.20, 0.60))
BPSK42 = SystemConfig(n_subcarriers=4, n_groups=2, alphabet_size=2, max_doppler=1)


def _random_pair(rng, n=6, p=3):
    a = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    b = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    return a, b


def test_pairwise_difference_spectrum_matches_svd():
    rng = RandomSource(1).generator()
    a, b = _random_pair(rng)
    pair = pairwise_difference(a, b)
    sv = np.linalg.svd(pair.delta_phi, compute_uv=False)
    assert np.allclose(np.sort(sv**2), pair.eigenvalues, atol=1e-8)
    assert pair.rank == np.linalg.matrix_rank(pair.delta_phi, tol=1e-8)
    # psi Hermitian PSD
    assert np.allclose(pair.psi, pair.psi.conj().T)
    assert pair.eigenvalues.min() >= 0


def test_upep_zero_distance_limit():
    z = np.zeros((6, 3), dtype=complex)
    pair = pairwise_difference(z, z)
    assert pair.rank == 0
    assert upep(pair, 3, 0.1) == pytest.approx(1 / 3)


def test_upep_single_eigenvalue_value():
    # one column, unit squared distance, P = 1, n0 = 1
    a = np.zeros((4, 1), dtype=complex)
    b = np.zeros((4, 1), dtype=complex)
    b[0, 0] = 1.0
    pair = pairwise_difference(a, b)
    assert upep(pair, 1, 1.0) == pytest.approx(1 / 15 + 3 / 16)


def test_upep_zero_noise_limits():
    rng = RandomSource(9).generator()
    a, b = _random_pair(rng)
    assert upep(pairwise_difference(a, b), 3, 0.0) == 0.0
    z = np.zeros_like(a)
    assert upep(pairwise_difference(z, z), 3, 0.0) == pytest.approx(1 / 3)


def test_upep_symmetry():
    rng = RandomSource(2).generator()
    a, b = _random_pair(rng)
    assert upep(pairwise_difference(a, b), 3, 0.03) == pytest.approx(
        upep(pairwise_difference(b, a), 3, 0.03)
    )


def test_upep_high_snr_slope_is_rank():
    rng = RandomSource(3).generator()
    a, b = _random_pair(rng)
    pair = pairwise_difference(a, b)
    assert pair.rank == 3
    n0s = np.array([1e-4, 1e-5])
    vals = [upep(pair, 3, n0) for n0 in n0s]
    slope = (math.log10(vals[0]) - math.log10(vals[1])) / 1.0
    assert slope == pytest.approx(pair.rank, abs=0.05)


def _geoms42():
    return enumerate_placements(BPSK42, 3, distinct=True)


def test_abep_monotone_and_clipped():
    geoms = _geoms42()
    n0s = [10 ** (-s / 10) for s in (0, 5, 10, 15, 20)]
    curve = abep_curve(BPSK42, AL2, geoms, n0s)
    assert np.all(np.diff(curve) <= 1e-15)
    assert curve[0] == 1.0  # union bound blows past one at low SNR, clipped
    assert np.all((curve >= 0) & (curve <= 1))


def test_abep_high_snr_slope_matches_diversity():
    geoms = _geoms42()
    mu = diversity_order(BPSK42, AL2, geoms)
    n0s = [1e-5, 1e-6]
    curve = abep_curve(BPSK42, AL2, geoms, n0s)
    slope = math.log10(curve[0] / curve[1])
    assert slope == pytest.approx(mu, abs=0.1)


def test_abep_curve_matches_scalar_upep_route():
    # cross-check the batched bound against the documented per-pair operation
    from itertools import combinations

    from afdm_pim.detection import path_image_tensor
    from afdm_pim.mapping import codeword_table, frame_bit_count

    cfg = SystemConfig(n_subcarriers=2, n_groups=1, alphabet_size=2, max_doppler=1)
    al = AL2
    geoms = enumerate_placements(cfg, 2, distinct=True)
    n0 = 0.05
    payload = codeword_table(cfg)
    count = len(payload)
    total = 0.0
    for geom in geoms:
        phi = path_image_tensor(cfg, al, geom)
        scale = np.sqrt(1 / 2)
        for i, j in combinations(range(count), 2):
            pair = pairwise_difference(phi[i] * scale, phi[j] * scale)
            tau = np.count_nonzero(payload[i] != payload[j])
            total += 2 * upep(pair, 1, n0) * tau
    b = frame_bit_count(cfg)
    expected = min(total / (b * 2.0**b * len(geoms)), 1.0)
    got = float(abep_curve(cfg, al, geoms, [n0])[0])
    assert got == pytest.approx(expected, rel=1e-12)


def test_abep_requires_positive_noise_and_geometries():
    with pytest.raises(ValueError, match="positive"):
        abep_curve(BPSK42, AL2, _geoms42(), [0.0])
    with pytest.raises(ValueError, match="placement"):
        abep_curve(BPSK42, AL2, [], [0.1])
    with pytest.raises(ValueError, match=r"empty placement \(\)"):
        abep_curve(BPSK42, AL2, [()], [0.1])
    with pytest.raises(ValueError, match=r"empty placement \(\)"):
        diversity_order(BPSK42, AL2, [()])


def test_diversity_order_single_path():
    geoms = enumerate_placements(BPSK42, 1, distinct=True)
    assert diversity_order(BPSK42, AL2, geoms) == 1


def test_diversity_scan_skips_supports_that_hold_a_scanned_cell(monkeypatch):
    # P = 4 over the 3 cells of BPSK42: 3 single-cell, 3 two-cell and 1 three-cell support
    geoms = enumerate_placements(BPSK42, 4, distinct=False)
    supports = {tuple(dict.fromkeys(g)) for g in geoms}
    assert len(supports) == 7
    expected = min(diversity_order(BPSK42, AL2, [s]) for s in supports)
    scans = []
    full_scan = analysis.path_image_tensor

    def spy(cfg, alphabet, support):
        scans.append(tuple(support))
        return full_scan(cfg, alphabet, support)

    monkeypatch.setattr(analysis, "path_image_tensor", spy)
    singletons = sorted(s for s in supports if len(s) == 1)
    for order in (geoms, geoms[::-1]):  # single cells are scanned first either way
        scans.clear()
        assert diversity_order(BPSK42, AL2, order) == expected == 1
        assert sorted(scans) == singletons


def test_full_diversity_condition_examples():
    cfg_ok = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1)
    rep = check_full_diversity_conditions(cfg_ok, 3)
    assert rep.condition1 and rep.paths_within_capacity and rep.capacity_within_frame
    assert rep.placement_capacity == 6

    cfg_paths = SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=0, max_doppler=1)
    rep2 = check_full_diversity_conditions(cfg_paths, 4)
    assert not rep2.paths_within_capacity and rep2.capacity_within_frame
    assert not rep2.condition1

    cfg_frame = SystemConfig(n_subcarriers=8, n_groups=2, alphabet_size=4, max_delay=2, max_doppler=2, cpp_length=2)
    rep3 = check_full_diversity_conditions(cfg_frame, 3)
    assert rep3.paths_within_capacity and not rep3.capacity_within_frame
    assert not rep3.condition1
    assert "assumed" in rep3.condition2_note


def test_spectral_efficiency_values():
    assert spectral_efficiency("afdm_pim", 2, n_c=4) == pytest.approx(2.0)
    assert spectral_efficiency("afdm_pim", 4, n_c=4) == pytest.approx(3.0)
    assert spectral_efficiency("afdm_im", 8, n_c=8, a=7) == pytest.approx(3.0)
    assert spectral_efficiency("afdm_im", 8, n_c=4, a=2) == pytest.approx(2.0)
    assert spectral_efficiency("afdm", 4) == pytest.approx(2.0)
    assert spectral_efficiency("AFDM-PIM", 2, n_c=3) == pytest.approx(1 + 2 / 3)
    with pytest.raises(ValueError, match="unknown scheme"):
        spectral_efficiency("ofdm", 4)


def test_jakes_doppler_pmf():
    assert jakes_doppler_pmf(0) == {0: 1.0}
    pmf1 = jakes_doppler_pmf(1)
    assert set(pmf1) == {-1, 0}
    assert sum(pmf1.values()) == pytest.approx(1.0)
    assert pmf1[-1] == pytest.approx(0.5)
    pmf2 = jakes_doppler_pmf(2)
    assert sum(pmf2.values()) == pytest.approx(1.0)
    assert pmf2[-2] == pytest.approx(1 / 3)
    assert pmf2[1] == pytest.approx(1 / 3)
    assert 2 not in pmf2


def test_jakes_geometry_mixture_weights_sum_to_one():
    cfg = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1)
    cells = jakes_cell_pmf(cfg)
    assert sum(cells.values()) == pytest.approx(1.0)
    mixture = jakes_geometry_mixture(cfg, 3)
    assert sum(w for _, _, w in mixture) == pytest.approx(1.0)
    for support, mult, _ in mixture:
        assert len(support) == len(set(support))
        assert sum(mult) == 3


def test_abep_jakes_curve_properties():
    n0s = [10 ** (-s / 10) for s in (5, 10, 15, 20)]
    curve = abep_curve_jakes(BPSK42, AL2, 3, n0s)
    assert np.all(np.diff(curve) < 0)
    assert np.all((curve >= 0) & (curve <= 1))
