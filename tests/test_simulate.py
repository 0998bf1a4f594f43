import io
import math
from dataclasses import replace

import numpy as np
import pytest

from afdm_pim import analysis, simulate
from afdm_pim.channel import (
    ChannelRealization,
    apply_channel_batch,
    complex_awgn,
    draw_paths,
    time_domain_operator,
)
from afdm_pim.config import RandomSource, SystemConfig
from afdm_pim.detection import MLDetector, codeword_time_signals, count_bit_errors
from afdm_pim.mapping import (
    EnumerationCapExceeded,
    PreChirpAlphabet,
    frame_bit_count,
)
from afdm_pim.simulate import (
    PRESETS,
    BerPoint,
    Scenario,
    SweepInterrupted,
    make_preset,
    noise_variance_from_snr_db,
    run_ber_sweep,
    run_scenario,
    scenario_from_sections,
    theory_points,
    write_csv,
)
from afdm_pim.suites import closed_form_paths
from afdm_pim.transceiver import add_cpp, build_daft, remove_cpp

BPSK42 = SystemConfig(n_subcarriers=4, n_groups=2, alphabet_size=2, max_doppler=1)
AL2 = PreChirpAlphabet((0.20, 0.60))


def _tiny(snr=(math.inf,), min_bits=6_000, seed=3, p_paths=2):
    return Scenario(
        name="tiny",
        cfg=BPSK42,
        alphabet=AL2,
        p_paths=p_paths,
        snr_grid_db=snr,
        min_bits=min_bits,
        min_errors=100,
        seed=seed,
        include_theory=False,
    )


def test_scenario_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        _tiny(snr=(10.0, 10.0))
    with pytest.raises(ValueError, match="empty"):
        _tiny(snr=())
    with pytest.raises(ValueError, match="^p_paths must be >= 1$"):
        _tiny(p_paths=0)
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"holds {bad}"):
            _tiny(snr=(0.0, bad))
    assert _tiny(snr=(0.0, math.inf)).snr_grid_db == (0.0, math.inf)
    with pytest.raises(ValueError, match="stopping rule"):
        Scenario(
            name="weak", cfg=BPSK42, alphabet=AL2, p_paths=2,
            snr_grid_db=(0.0,), min_bits=1000, min_errors=10,
        )
    with pytest.raises(ValueError, match="alphabet size"):
        Scenario(
            name="bad", cfg=BPSK42, alphabet=PreChirpAlphabet((0.1, 0.5, 0.9)),
            p_paths=2, snr_grid_db=(0.0,),
        )


def test_scenario_rejects_a_stopping_rule_that_runs_no_frame():
    with pytest.raises(ValueError, match="min_errors"):
        replace(make_preset("fig8_lo"), min_errors=0, min_bits=100_000, snr_grid_db=(10.0,))
    with pytest.raises(ValueError, match="min_bits"):
        replace(make_preset("fig8_lo"), min_errors=100, min_bits=0)


def test_noise_variance():
    assert noise_variance_from_snr_db(0.0) == 1.0
    assert noise_variance_from_snr_db(20.0) == pytest.approx(0.01)
    assert noise_variance_from_snr_db(math.inf) == 0.0


def test_noiseless_sweep_is_error_free():
    # 1000 frames at 6 bits/frame, fresh channel per frame, zero noise
    points = run_ber_sweep(_tiny())
    assert len(points) == 1
    pt = points[0]
    assert pt.errors == 0
    assert pt.ber == 0.0
    assert pt.bits >= 6_000


def test_determinism_bit_identical_csv():
    def render():
        buf = io.StringIO()
        sc = _tiny(snr=(5.0, 10.0), min_bits=2_000)
        write_csv(run_ber_sweep(sc), sc.name, sc.seed, buf)
        return buf.getvalue()

    assert render() == render()


def test_seed_changes_output():
    a = run_ber_sweep(_tiny(snr=(5.0,), min_bits=2_000, seed=1))[0]
    b = run_ber_sweep(_tiny(snr=(5.0,), min_bits=2_000, seed=2))[0]
    assert (a.errors, a.bits) != (b.errors, b.bits)


def test_stopping_rule_honored():
    for pt in run_ber_sweep(_tiny(snr=(0.0, 15.0), min_bits=3_000)):
        assert pt.errors >= 100 or pt.bits >= 3_000


def test_run_scenario_includes_theory_rows():
    sc = Scenario(
        name="with_theory", cfg=BPSK42, alphabet=AL2, p_paths=3,
        snr_grid_db=(10.0, 20.0), min_bits=2_000, min_errors=100, seed=5,
    )
    points = run_scenario(sc)
    kinds = [p.kind for p in points]
    assert kinds == ["simulation", "simulation", "theory", "theory"]
    theory = [p for p in points if p.kind == "theory"]
    assert all(0 <= p.ber <= 1 and p.bits == 0 for p in theory)
    assert theory[0].ber >= theory[1].ber


def test_theory_points_skip_infinite_snr():
    sc = _tiny(snr=(10.0, math.inf), min_bits=1_000)
    pts = theory_points(sc)
    assert len(pts) == 1 and pts[0].snr_db == 10.0


def test_theory_rows_without_a_finite_snr_scan_no_support(monkeypatch):
    # the noiseless point has no bound, so a support scan would return no row
    scans = []
    monkeypatch.setattr(analysis, "path_image_tensor", lambda *args: scans.append(args))
    sc = replace(_tiny(min_bits=1_000), include_theory=True)
    assert theory_points(sc) == []
    assert [p.kind for p in run_scenario(sc)] == ["simulation"]
    assert scans == []


def test_run_scenario_refuses_a_theory_scan_that_cannot_finish_before_its_sweep(monkeypatch):
    # fig7's geometry with theory rows on: 2^16 codewords on 120 supports
    scenario = replace(make_preset("fig7_pim"), include_theory=True)
    monkeypatch.setattr(simulate, "run_ber_sweep", lambda sc: pytest.fail("the sweep ran"))
    with pytest.raises(EnumerationCapExceeded, match="include_theory = false"):
        run_scenario(scenario)


def test_ber_point_invariants():
    with pytest.raises(ValueError, match="kind"):
        BerPoint(snr_db=0, bits=10, errors=1, ber=0.1, kind="sim")
    with pytest.raises(ValueError, match="errors/bits"):
        BerPoint(snr_db=0, bits=10, errors=1, ber=0.2, kind="simulation")
    with pytest.raises(ValueError, match=r"^ber 1.5 outside \[0, 1\]$"):
        BerPoint(snr_db=0, bits=10, errors=15, ber=1.5, kind="simulation")


def test_csv_schema():
    buf = io.StringIO()
    write_csv(
        [BerPoint(snr_db=12.5, bits=1000, errors=3, ber=0.003, kind="simulation")],
        "unit",
        7,
        buf,
    )
    lines = buf.getvalue().splitlines()
    assert lines[0] == "scheme,snr_db,kind,bits,errors,ber,seed"
    assert lines[1] == "unit,12.5,simulation,1000,3,0.003,7"


def test_presets_match_published_setups():
    lo = make_preset("fig8_lo")
    hi = make_preset("fig8_hi")
    assert lo.cfg.max_doppler == 1 and hi.cfg.max_doppler == 2
    for sc in (lo, hi):
        assert (sc.cfg.n_subcarriers, sc.cfg.n_groups, sc.cfg.alphabet_size) == (4, 2, 2)
        assert sc.cfg.max_delay == 0
        assert sc.cfg.constellation_order == 2
        assert sc.p_paths == 3
        assert sc.include_theory

    fig4 = make_preset("fig4")
    assert (fig4.cfg.n_subcarriers, fig4.cfg.n_groups, fig4.cfg.alphabet_size) == (6, 2, 3)
    assert fig4.alphabet.values == (0.29, 0.62, 0.93)
    assert (fig4.cfg.max_delay, fig4.cfg.max_doppler) == (1, 1)

    fig7 = make_preset("fig7_pim")
    assert (fig7.cfg.n_subcarriers, fig7.cfg.n_groups, fig7.cfg.alphabet_size) == (8, 2, 4)
    assert (fig7.cfg.max_delay, fig7.cfg.max_doppler) == (1, 2)

    base = make_preset("baseline_afdm")
    assert base.cfg.alphabet_size == 1
    assert base.cfg.n_subcarriers == 8
    assert base.cfg.constellation_order == 4
    assert base.p_paths == 4

    assert make_preset("fig8_lo", seed=99).seed == 99
    with pytest.raises(ValueError, match="unknown preset"):
        make_preset("fig9")
    assert set(PRESETS) == {"fig4", "fig7_pim", "fig8_lo", "fig8_hi", "baseline_afdm"}


def test_classic_collapse_single_value_alphabet_roundtrips():
    # one alphabet value: no index bits, one pattern, still error-free noiseless
    cfg = SystemConfig(n_subcarriers=4, n_groups=2, alphabet_size=1, max_delay=1, max_doppler=1, cpp_length=1)
    sc = Scenario(
        name="classic", cfg=cfg, alphabet=PreChirpAlphabet((0.5,)), p_paths=2,
        snr_grid_db=(math.inf,), min_bits=1_000, min_errors=100, seed=2,
        include_theory=False,
    )
    pt = run_ber_sweep(sc)[0]
    assert pt.errors == 0


def test_batch_channel_matches_time_domain_operator():
    # each frame's body is A^H (sum_p h_p H_p) A s under the closed form H_p, for
    # any pattern's transform A; on odd N (N = 3) a prefix fault shows
    rng = RandomSource(19).generator()
    for n, g, lam, d_max in ((8, 2, 4, 2), (3, 1, 3, 1)):
        cfg = SystemConfig(
            n_subcarriers=n, n_groups=g, alphabet_size=lam, max_delay=d_max, max_doppler=2,
            cpp_length=d_max,
        )
        alphabet = PreChirpAlphabet(simulate.TABLE_ALPHABETS[lam])
        pcpg = rng.integers(0, lam, n)
        a = build_daft(cfg, alphabet, pcpg)
        frames = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        gains = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        delays = rng.integers(0, d_max + 1, (6, 3))
        dopplers = rng.integers(-2, 3, (6, 3))
        assert delays.max() == d_max  # the prefix rows are read
        batch = apply_channel_batch(add_cpp(frames, cfg), gains, delays, dopplers, cfg)
        for f in range(6):
            ch = ChannelRealization(gains[f], delays[f], dopplers[f])
            h_eff = np.tensordot(gains[f], closed_form_paths(cfg, alphabet.array[pcpg], ch.geometry), 1)
            expected = a.conj().T @ h_eff @ a @ frames[f]
            assert np.max(np.abs(batch[f, cfg.cpp_length :] - expected)) < 1e-12
            assert np.max(np.abs(time_domain_operator(ch, cfg) @ frames[f] - expected)) < 1e-12


def _whole_chunk_sweep(scenario):
    """The sweep with every chunk channelled whole, noise included, then
    detected frame by frame: its points and the received frames it detects."""
    cfg, chunk = scenario.cfg, simulate._CHUNK_FRAMES
    b_total = frame_bit_count(cfg)
    weights = 1 << np.arange(b_total - 1, -1, -1)
    signals = codeword_time_signals(cfg, scenario.alphabet)
    detector = MLDetector(cfg, scenario.alphabet)
    source = RandomSource(scenario.seed)
    points, received_frames = [], []
    for point_idx, snr_db in enumerate(scenario.snr_grid_db):
        n0 = noise_variance_from_snr_db(snr_db)
        errors = bits = chunk_idx = 0
        while errors < scenario.min_errors and bits < scenario.min_bits:
            rng = source.generator(point_idx, chunk_idx)
            chunk_idx += 1
            payload = rng.integers(0, 2, size=(chunk, b_total)).astype(np.int8)
            paths = draw_paths(cfg, scenario.p_paths, rng, (chunk,))
            tx = add_cpp(signals[payload @ weights], cfg)
            received = apply_channel_batch(tx, *paths, cfg)
            if n0 > 0.0:
                received = received + complex_awgn(rng, received.shape, n0)
            for f in range(chunk):
                r = remove_cpp(received[f], cfg)
                received_frames.append(r)
                detected, _ = detector.detect(r, ChannelRealization(*(p[f] for p in paths)))
                errors += count_bit_errors(payload[f], detected)
                bits += b_total
                if errors >= scenario.min_errors or bits >= scenario.min_bits:
                    break
        points.append(BerPoint(snr_db, bits, errors, errors / bits, "simulation"))
    return points, received_frames


@pytest.mark.parametrize("min_bits", [6, 30, 33, 127 * 6, 128 * 6, 129 * 6, None])
def test_sweep_keeps_the_whole_chunk_draw_streams(min_bits, monkeypatch):
    # fig8_hi has 6 bits a frame and 128-frame chunks; the sweep channels only
    # the frames its bit budget reaches, 33 bits reaching into a sixth frame.
    # None stops on the error target after several chunks.
    base = replace(make_preset("fig8_hi", 4), include_theory=False)
    if min_bits is None:
        scenario = replace(base, snr_grid_db=(15.0,), min_bits=10**6)
    else:
        scenario = replace(base, snr_grid_db=(10.0, 15.0), min_bits=min_bits)
    expected, expected_frames = _whole_chunk_sweep(scenario)
    seen = []
    detect = MLDetector.detect

    def recording(self, r, ch):
        seen.append(r.copy())
        return detect(self, r, ch)

    channelled = []
    channel = simulate.apply_channel_batch

    def counting(prefixed, *args):
        channelled.append(len(prefixed))
        return channel(prefixed, *args)

    monkeypatch.setattr(MLDetector, "detect", recording)
    monkeypatch.setattr(simulate, "apply_channel_batch", counting)
    assert run_ber_sweep(scenario) == expected
    assert len(seen) == len(expected_frames)
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected_frames))
    if min_bits is None:
        assert expected[0].errors >= 100 and expected[0].bits > 2 * 128 * 6
    else:
        assert all(p.bits == -(-min_bits // 6) * 6 for p in expected)
        assert sum(channelled) == len(seen)  # no frame is channelled and not detected


def test_noiseless_sweep_qam():
    cfg = SystemConfig(
        n_subcarriers=4, n_groups=2, alphabet_size=2, constellation_order=4,
        constellation_kind="QAM", max_delay=1, max_doppler=1, cpp_length=1,
    )
    sc = Scenario(
        name="qam", cfg=cfg, alphabet=AL2, p_paths=2, snr_grid_db=(math.inf,),
        min_bits=2_000, min_errors=100, seed=6, include_theory=False,
    )
    assert run_ber_sweep(sc)[0].errors == 0


def test_interrupt_reports_partial_results(monkeypatch):
    from afdm_pim.detection import MLDetector

    calls = {"n": 0}
    original = MLDetector.detect

    def flaky(self, r, ch):
        calls["n"] += 1
        if calls["n"] > 40:
            raise KeyboardInterrupt
        return original(self, r, ch)

    monkeypatch.setattr(MLDetector, "detect", flaky)
    with pytest.raises(SweepInterrupted) as stop:
        run_ber_sweep(_tiny(snr=(0.0, 10.0), min_bits=3_000))
    points = stop.value.points
    # interrupted mid-sweep: the partial point is still reported
    assert len(points) >= 1
    assert points[-1].bits > 0


def test_interrupt_between_points_keeps_finished_points_once(monkeypatch):
    from afdm_pim import simulate

    full = run_ber_sweep(_tiny(snr=(0.0, 10.0), min_bits=3_000))
    calls = {"n": 0}
    original = simulate.noise_variance_from_snr_db

    def interrupt_second_point(snr_db):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return original(snr_db)

    monkeypatch.setattr(simulate, "noise_variance_from_snr_db", interrupt_second_point)
    # the first point is finished and the second has no frame yet
    with pytest.raises(SweepInterrupted) as stop:
        run_ber_sweep(_tiny(snr=(0.0, 10.0), min_bits=3_000))
    assert stop.value.points == full[:1]


def test_alphabet_file_reference(tmp_path):
    from afdm_pim.mapping import save_alphabet

    path = tmp_path / "alpha.txt"
    save_alphabet(AL2, str(path))
    sections = {
        "system": {"n_subcarriers": "4", "n_groups": "2", "alphabet_size": "2", "max_doppler": "1"},
        "alphabet": {"file": str(path)},
        "simulation": {"snr_db": "0", "min_bits": "1000", "min_errors": "100"},
    }
    sc = scenario_from_sections(sections)
    assert sc.alphabet.values == AL2.values


def test_scenario_from_sections(tmp_path):
    sections = {
        "system": {
            "n_subcarriers": "4",
            "n_groups": "2",
            "alphabet_size": "2",
            "constellation_order": "2",
            "constellation_kind": "PSK",
            "max_delay": "0",
            "max_doppler": "1",
            "cpp_length": "0",
        },
        "alphabet": {"values": "0.2 0.6"},
        "channel": {"paths": "3"},
        "simulation": {
            "snr_db_start": "0",
            "snr_db_stop": "10",
            "snr_db_step": "5",
            "min_bits": "2000",
            "min_errors": "100",
            "seed": "11",
        },
    }
    sc = scenario_from_sections(sections, name="from_file")
    assert sc.snr_grid_db == (0.0, 5.0, 10.0)
    assert sc.p_paths == 3
    assert sc.seed == 11
    assert sc.alphabet.values == (0.2, 0.6)

    sections["simulation"]["snr_db"] = "3, 7"
    assert scenario_from_sections(sections).snr_grid_db == (3.0, 7.0)

    # published table fallback when no alphabet section is given
    del sections["alphabet"]
    assert scenario_from_sections(sections).alphabet.values == (0.20, 0.60)

    with pytest.raises(ValueError, match=r"\[system\]"):
        scenario_from_sections({})
