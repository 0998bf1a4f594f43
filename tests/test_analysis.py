import math
from itertools import combinations

import numpy as np
import pytest

from afdm_pim import analysis, cli
from afdm_pim.analysis import (
    abep_curve_jakes,
    diversity_order,
    jakes_cell_pmf,
    jakes_doppler_pmf,
    jakes_geometry_mixture,
    pairwise_difference,
    spectral_efficiency,
    upep,
)
from afdm_pim.channel import delay_doppler_cells
from afdm_pim.config import RandomSource, SystemConfig
from afdm_pim.detection import path_image_tensor
from afdm_pim.mapping import EnumerationCapExceeded, PreChirpAlphabet
from afdm_pim.simulate import make_preset

AL2 = PreChirpAlphabet((0.20, 0.60))
BPSK42 = SystemConfig(n_subcarriers=4, n_groups=2, alphabet_size=2, max_doppler=1)


def _support_rank(cfg, alphabet, support):
    """Minimum rank over every codeword pair on one support, read from the pair scan."""
    spectra = analysis._pair_spectra(path_image_tensor(cfg, alphabet, support))
    return min(int(np.count_nonzero(eigs, axis=1).min()) for _, eigs in spectra)


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


@pytest.mark.parametrize("ratio,rank", [(1e-7, 2), (1e-10, 1)])
def test_rank_counts_eigenvalues_above_the_relative_tolerance(ratio, rank):
    # a Gram 9 * diag(1, ratio): the tolerance lies between the two ratios
    delta = np.zeros((4, 2), dtype=complex)
    delta[0, 0], delta[1, 1] = 3.0, 3.0 * math.sqrt(ratio)
    assert pairwise_difference(np.zeros_like(delta), delta).rank == rank


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


def test_pair_scan_yields_every_pair_once_with_its_own_spectrum():
    # fig8_lo's 64 codewords, 2016 pairs, with two of its three paths in one cell
    fig8 = make_preset("fig8_lo")
    support = delay_doppler_cells(fig8.cfg)[:2]
    scale = np.sqrt(np.array([2.0, 1.0]) / 3)
    phi = path_image_tensor(fig8.cfg, fig8.alphabet, support) * scale
    rows = list(analysis._pair_spectra(phi))
    assert [i for i, _ in rows] == list(range(len(phi) - 1))
    for i, eigs in rows:
        assert eigs.shape == (len(phi) - 1 - i, len(support))
        for j, got in enumerate(eigs, start=i + 1):
            want = pairwise_difference(phi[i], phi[j]).eigenvalues
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * want[-1])
    assert sum(len(eigs) for _, eigs in rows) == 2016


def test_abep_monotone_and_clipped():
    n0s = [10 ** (-s / 10) for s in (0, 5, 10, 15, 20)]
    curve = abep_curve_jakes(BPSK42, AL2, 3, n0s)
    assert curve[0] == 1.0  # union bound blows past one at low SNR, clipped
    assert np.all(np.diff(curve[1:]) < 0)  # and falls strictly from 5 dB on
    assert np.all((curve >= 0) & (curve <= 1))


def test_abep_high_snr_slope_matches_diversity():
    # the bound's slope is the minimum rank over the supports of its own law
    mu = min(_support_rank(BPSK42, AL2, s) for s, _, _ in jakes_geometry_mixture(BPSK42, 3))
    n0s = [1e-5, 1e-6]
    curve = abep_curve_jakes(BPSK42, AL2, 3, n0s)
    slope = math.log10(curve[0] / curve[1])
    assert slope == pytest.approx(mu, abs=0.1)


def test_abep_curve_matches_scalar_upep_route():
    # cross-check the batched bound against the documented per-pair operation
    from afdm_pim.mapping import codeword_table, frame_bit_count

    cfg = SystemConfig(n_subcarriers=2, n_groups=1, alphabet_size=2, max_doppler=1)
    al = AL2
    p_paths = 2
    n0 = 0.05
    payload = codeword_table(cfg)
    count = len(payload)
    total = 0.0
    for support, mult, weight in jakes_geometry_mixture(cfg, p_paths):
        phi = path_image_tensor(cfg, al, support)
        scale = np.sqrt(np.asarray(mult) / p_paths)  # column gain variance mult/P
        for i, j in combinations(range(count), 2):
            pair = pairwise_difference(phi[i] * scale, phi[j] * scale)
            tau = np.count_nonzero(payload[i] != payload[j])
            total += weight * 2 * upep(pair, 1, n0) * tau
    b = frame_bit_count(cfg)
    expected = min(total / (b * 2.0**b), 1.0)
    got = float(abep_curve_jakes(cfg, al, p_paths, [n0])[0])
    assert got == pytest.approx(expected, rel=1e-12)


def test_abep_requires_positive_noise_and_geometries():
    with pytest.raises(ValueError, match="positive"):
        abep_curve_jakes(BPSK42, AL2, 3, [0.0])
    with pytest.raises(ValueError, match=r"empty placement \(\)"):
        diversity_order(BPSK42, AL2, 0)


def test_diversity_order_single_path():
    assert diversity_order(BPSK42, AL2, 1) == 1


def test_diversity_beyond_capacity_is_the_minimum_over_every_support():
    # P = 4 over the 3 cells of BPSK42: every nonempty set of cells is the support
    # of some placement, 3 single-cell, 3 two-cell and 1 three-cell
    cells = delay_doppler_cells(BPSK42)
    supports = [s for size in range(1, len(cells) + 1) for s in combinations(cells, size)]
    assert len(supports) == 7
    expected = min(_support_rank(BPSK42, AL2, s) for s in supports)
    assert diversity_order(BPSK42, AL2, 4) == expected == 1


def test_diversity_scan_reads_the_supports_of_its_path_count(monkeypatch):
    builds, scans = [], []

    def images(cfg, alphabet, geometry):
        builds.append(tuple(geometry))
        # one codeword whose column p holds p: a scanned tensor names its columns
        return np.broadcast_to(np.arange(len(geometry)), (1, cfg.n_subcarriers, len(geometry)))

    def spectra(phi):
        scans.append(tuple(int(p) for p in phi[0, 0]))
        return iter(())  # no pair

    monkeypatch.setattr(analysis, "path_image_tensor", images)
    monkeypatch.setattr(analysis, "_pair_spectra", spectra)
    fig4 = make_preset("fig4")
    diversity_order(fig4.cfg, fig4.alphabet, 3)  # the distinct-cell placements
    assert builds == [tuple(delay_doppler_cells(fig4.cfg))]  # one build over every cell
    assert len(scans) == 20
    assert scans == list(combinations(range(len(builds[0])), 3))
    builds.clear()
    scans.clear()
    diversity_order(BPSK42, AL2, 4)  # 4 paths over 3 cells: the single cells
    assert builds == [tuple(delay_doppler_cells(BPSK42))]
    assert scans == [(0,), (1,), (2,)]


def test_bound_law_past_the_scan_limit_is_refused_before_it_is_built(monkeypatch):
    # 12 paths over the 12 cells the Jakes law reaches at d_max = a_max = 2:
    # C(23, 12) multisets, each scanned over 2,016 codeword pairs
    cfg = SystemConfig(
        n_subcarriers=4, n_groups=2, alphabet_size=2, max_delay=2, max_doppler=2, cpp_length=2
    )
    assert len(jakes_cell_pmf(cfg)) == 12

    def refuse(*args):
        raise AssertionError("the mixture of a refused law was built")

    monkeypatch.setattr(analysis, "jakes_geometry_mixture", refuse)
    with pytest.raises(EnumerationCapExceeded, match="2,016 codeword pairs x 1,352,078 supports"):
        abep_curve_jakes(cfg, AL2, 12, [0.1])


@pytest.mark.parametrize("name, supports", [("fig7_pim", 120), ("baseline_afdm", 1365)])
def test_pair_scans_that_cannot_finish_are_refused_before_any_pair(name, supports, monkeypatch):
    # 2^16 codewords: days of scanning at about 1.6 us a pair-support term
    scenario = make_preset(name)
    cfg, alphabet, p_paths = scenario.cfg, scenario.alphabet, scenario.p_paths
    scans = []
    monkeypatch.setattr(analysis, "path_image_tensor", lambda *args: scans.append(args))
    count = f"2,147,450,880 codeword pairs x {supports:,} supports = {2147450880 * supports:,}"
    limit = f"pair-support terms exceed the scan limit {analysis.MAX_PAIR_TERMS:,}"
    with pytest.raises(EnumerationCapExceeded) as err:
        abep_curve_jakes(cfg, alphabet, p_paths, [0.1])
    assert str(err.value).startswith(f"{count} {limit}; ")
    assert "include_theory = false" in str(err.value)
    assert math.comb(cfg.placement_capacity, p_paths) == supports
    with pytest.raises(EnumerationCapExceeded) as err:
        diversity_order(cfg, alphabet, p_paths)
    assert str(err.value) == f"{count} {limit}"
    assert scans == []


def test_scan_limit_admits_a_scan_of_exactly_its_size(monkeypatch):
    # BPSK42: 64 codewords, so 2,016 pairs on each of its 3 single-cell supports
    monkeypatch.setattr(analysis, "MAX_PAIR_TERMS", 3 * 2016)
    assert diversity_order(BPSK42, AL2, 1) == 1
    monkeypatch.setattr(analysis, "MAX_PAIR_TERMS", 3 * 2016 - 1)
    with pytest.raises(EnumerationCapExceeded, match="2,016 codeword pairs x 3 supports = 6,048 "):
        diversity_order(BPSK42, AL2, 1)


def test_full_diversity_condition_examples(tmp_path, monkeypatch, capsys):
    # the condition lines of `analyze --diversity`, read from P, the capacity and
    # N alone; the scan is replaced, since the last config's would not finish
    monkeypatch.setattr(cli, "diversity_order", lambda cfg, alphabet, p_paths: 0)
    cases = [
        # capacity 6 = N: both bounds hold with equality
        ("n_subcarriers = 6\nn_groups = 2\nalphabet_size = 3\nmax_delay = 1\n"
         "max_doppler = 1\ncpp_length = 1", 3, 6, (True, True, True)),
        ("n_subcarriers = 8\nn_groups = 2\nalphabet_size = 4\nmax_delay = 0\n"
         "max_doppler = 1", 4, 3, (False, True, False)),
        ("n_subcarriers = 8\nn_groups = 2\nalphabet_size = 4\nmax_delay = 2\n"
         "max_doppler = 2\ncpp_length = 2", 3, 15, (True, False, False)),
    ]
    path = tmp_path / "case.cfg"
    for system, paths, capacity, (within, fits, condition1) in cases:
        path.write_text(f"[system]\n{system}\n\n[channel]\npaths = {paths}\n")
        assert cli.main(["analyze", str(path), "--diversity"]) == 0
        assert capsys.readouterr().out.splitlines()[:6] == [
            f"paths P = {paths}",
            f"placement capacity (d_max+1)(2*a_max+1) = {capacity}",
            f"P <= capacity: {within}",
            f"capacity <= N: {fits}",
            f"condition 1 satisfied: {condition1}",
            "condition 2: assumed: floating point cannot certify that the pre-chirp "
            "values are irrational",
        ]


def test_spectral_efficiency_values():
    assert spectral_efficiency("afdm_pim", 2, n_c=4) == pytest.approx(2.0)
    assert spectral_efficiency("afdm_pim", 4, n_c=4) == pytest.approx(3.0)
    assert spectral_efficiency("afdm_im", 8, n_c=8, a=7) == pytest.approx(3.0)
    assert spectral_efficiency("afdm_im", 8, n_c=4, a=2) == pytest.approx(2.0)
    assert spectral_efficiency("afdm", 4) == pytest.approx(2.0)
    assert spectral_efficiency("AFDM-PIM", 2, n_c=3) == pytest.approx(1 + 2 / 3)
    with pytest.raises(ValueError, match="unknown scheme"):
        spectral_efficiency("ofdm", 4)
    with pytest.raises(ValueError, match="^afdm_im needs n_c and a$"):
        spectral_efficiency("afdm_im", 2, n_c=4)
    with pytest.raises(ValueError, match="^afdm_pim needs n_c$"):
        spectral_efficiency("afdm_pim", 2)


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
