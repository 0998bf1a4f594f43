"""End-to-end acceptance checks.

Each test prints a PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)
with the measured quantities behind it. Tests 01, 03 and 08 run the numeric
invariant suites of `validate` (`afdm_pim.suites`) and print one line per
suite check; the exact brute-force to reduced-objective scaling that test 08
pins is derived in `reduction_suite`. Test 09 pins that the collision-bounded
swarm design improves the objective without losing BER.
"""

import math

import numpy as np
import pytest

import afdm_pim as ap
from afdm_pim.optimizer import (
    PsoParams,
    build_objective_context,
    min_pair_objective,
    pso_optimize,
    uniform_heuristic,
)
from afdm_pim.suites import channel_suite, orthogonality_suite, reduction_suite


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] acceptance {num:02d} {name}: {detail}")


def _assert_suite(num: int, results) -> None:
    for r in results:
        _report(num, r.name, r.passed, r.detail)
    failed = [r.name for r in results if not r.passed]
    assert results and not failed, f"failed checks: {failed}"


def _bpsk(n, g, lam, d_max, a_max):
    return ap.SystemConfig(
        n_subcarriers=n, n_groups=g, alphabet_size=lam, constellation_order=2,
        constellation_kind="PSK", max_delay=d_max, max_doppler=a_max, cpp_length=d_max,
    )


def test_01_subcarrier_orthogonality():
    _assert_suite(1, orthogonality_suite())


def test_02_unitarity_and_noiseless_roundtrip():
    cfg = _bpsk(8, 2, 4, 1, 2)
    al4 = ap.PreChirpAlphabet(ap.TABLE_ALPHABETS[4])
    rng = ap.RandomSource(29).generator()
    eye = np.eye(8)
    worst = 0.0
    for _ in range(100):
        frame = ap.bits_to_frame(rng.integers(0, 2, ap.frame_bit_count(cfg)), cfg, al4)
        a = ap.build_daft(cfg, al4, frame.pcpg)
        worst = max(worst, float(np.linalg.norm(a @ a.conj().T - eye)))

    cfg2 = _bpsk(4, 2, 2, 0, 1)
    al2 = ap.PreChirpAlphabet(ap.TABLE_ALPHABETS[2])
    detector = ap.MLDetector(cfg2, al2)
    identity = ap.ChannelRealization(np.array([1.0 + 0j]), np.array([0]), np.array([0]))
    recovered = 0
    total = 0
    for frame in ap.enumerate_codewords(cfg2, al2):
        s = ap.modulate(frame.symbols, cfg2, al2, frame.pcpg)
        detected, _ = detector.detect(s, identity)
        recovered += int(np.array_equal(detected, frame.payload_bits))
        total += 1
    ok = worst < 1e-10 and recovered == total == 64
    _report(2, "unitarity and noiseless round trip", ok,
            f"worst ||AA^H-I||_F {worst:.2e}; recovered {recovered}/{total} codewords")
    assert ok


def test_03_dual_channel_construction():
    _assert_suite(3, channel_suite())


def test_04_pattern_codebook_table():
    expected = [
        (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1),
        (0, 3, 1, 2), (0, 3, 2, 1), (1, 0, 2, 3), (1, 0, 3, 2),
        (1, 2, 0, 3), (1, 2, 3, 0), (1, 3, 0, 2), (1, 3, 2, 0),
        (2, 0, 1, 3), (2, 0, 3, 1), (2, 1, 0, 3), (2, 1, 3, 0),
    ]
    got = [
        ap.index_bits_to_group_pattern(ap.mapping.int_to_bits(w, 4), 4, 4)
        for w in range(16)
    ]
    ok = got == expected
    _report(4, "16-row pattern codebook", ok, f"{sum(g == e for g, e in zip(got, expected))}/16 rows match")
    assert ok


def test_05_spectral_efficiency_pairings():
    checks = [
        (ap.spectral_efficiency("afdm_pim", 2, n_c=4), 2.0),
        (ap.spectral_efficiency("afdm_pim", 4, n_c=4), 3.0),
        (ap.spectral_efficiency("afdm_im", 8, n_c=8, a=7), 3.0),
        (ap.spectral_efficiency("afdm", 4), 2.0),
    ]
    ok = all(abs(got - want) < 1e-12 for got, want in checks)
    _report(5, "spectral efficiency formulas", ok,
            "; ".join(f"{got:g}=={want:g}" for got, want in checks))
    assert ok


def test_06_diversity_orders():
    cfg_full = _bpsk(6, 2, 3, 1, 1)
    al3 = ap.PreChirpAlphabet(ap.TABLE_ALPHABETS[3])
    mu_full = ap.diversity_order(cfg_full, al3, 3)

    cfg_def = _bpsk(8, 4, 2, 0, 1)  # P=4 exceeds the 3 reachable cells
    al2 = ap.PreChirpAlphabet(ap.TABLE_ALPHABETS[2])
    mu_def = ap.diversity_order(cfg_def, al2, 4)

    ok = mu_full == 3 and mu_def == 1
    _report(6, "diversity order scans", ok,
            f"full-diversity config mu={mu_full} (want 3); "
            f"capacity-violating config mu={mu_def} (want 1)")
    assert ok


def _criterion7_curves(name):
    scenario = ap.make_preset(name, seed=7)
    sim = ap.run_ber_sweep(scenario)
    theory = ap.theory_points(scenario)
    return scenario, sim, theory


CURVES = {}


def test_07_bound_vs_monte_carlo():
    details = []
    ok = True
    for name in ("fig8_lo", "fig8_hi"):
        scenario, sim, theory = _criterion7_curves(name)
        CURVES[name] = sim
        bound = {p.snr_db: p.ber for p in theory}
        for p in sim:
            if p.snr_db >= 15.0 and p.ber > bound[p.snr_db]:
                ok = False
                details.append(f"{name}@{p.snr_db:g}dB sim {p.ber:.3e} > bound {bound[p.snr_db]:.3e}")
        qualified = [p for p in sim if p.errors >= 100]
        top = max(qualified, key=lambda p: p.snr_db)
        ratio = bound[top.snr_db] / top.ber
        details.append(f"{name}: ratio {ratio:.2f} at {top.snr_db:g} dB")
        if not (top.ber <= bound[top.snr_db] and ratio <= 5.0):
            ok = False
    _report(7, "union bound vs Monte-Carlo", ok, "; ".join(details))
    assert ok


def test_08_objective_reduction_scaling():
    _assert_suite(8, reduction_suite())


def _one_sided_not_worse(err1, bits1, err2, bits2, z_crit=1.645):
    """One-sided two-proportion test: True unless p1 significantly exceeds p2."""
    p1, p2 = err1 / bits1, err2 / bits2
    pooled = (err1 + err2) / (bits1 + bits2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / bits1 + 1 / bits2))
    if se == 0:
        return p1 <= p2, 0.0
    z = (p1 - p2) / se
    return z <= z_crit, z


def test_09_pso_improvement():
    """Swarm search must beat the evenly spaced alphabet on the objective and
    not lose to it in BER at 20 dB.

    The objective alone is blind to symbol-rotated neighbours: its unbounded
    maximizer (0.4079, 0.8079, 0.9106) puts a pre-chirp difference near 1/2,
    where a pattern swap mimics a BPSK sign flip, and measures about 33x the
    uniform BER. The swarm's feasible set therefore bounds the collision
    score (the high-SNR union weight of index error events in the detector's
    frame) near the heuristic's; test_optimizer pins that this rule rejects
    the ridge alphabet and admits the heuristic.
    """
    cfg = _bpsk(6, 2, 3, 1, 1)
    ctx = build_objective_context(cfg, 3)
    heuristic = uniform_heuristic(3)
    eps_uniform = min_pair_objective(heuristic, ctx)
    result = pso_optimize(cfg, ctx, PsoParams(), ap.RandomSource(42).generator())
    eps_pso = result.fitness
    clause_a = eps_pso > eps_uniform

    def ber_at_20db(alphabet, seed=13):
        sc = ap.Scenario(
            name="crit9", cfg=cfg, alphabet=alphabet, p_paths=3, snr_grid_db=(20.0,),
            min_bits=100_000, min_errors=10**9, seed=seed, include_theory=False,
        )
        return ap.run_ber_sweep(sc)[0]

    pso_pt = ber_at_20db(result.alphabet)
    uni_pt = ber_at_20db(ap.PreChirpAlphabet(tuple(heuristic)))
    clause_b, z = _one_sided_not_worse(pso_pt.errors, pso_pt.bits, uni_pt.errors, uni_pt.bits)
    ok = clause_a and clause_b
    detail = (
        f"objective: {eps_pso:.4g} > {eps_uniform:.4g} ({'ok' if clause_a else 'FAIL'}); "
        f"BER@20dB: swarm {pso_pt.ber:.3e} ({pso_pt.errors}/{pso_pt.bits}) vs "
        f"uniform {uni_pt.ber:.3e} ({uni_pt.errors}/{uni_pt.bits}), z={z:.1f} "
        f"({'ok' if clause_b else 'FAIL'})"
    )
    _report(9, "swarm-optimized alphabet", ok, detail)
    assert ok, (
        "objective improved but BER did not: the swarm alphabet "
        f"{tuple(round(v, 4) for v in result.alphabet.values)} measures "
        f"{pso_pt.ber:.3e} vs uniform {uni_pt.ber:.3e} at 20 dB; the pinned "
        "objective is blind to symbol-flip near-collisions (pre-chirp "
        "differences near 1/2 under BPSK), so its maximizers degrade "
        "exhaustive-ML error rates. " + detail
    )


def test_10_ber_monotonicity():
    if not CURVES:
        for name in ("fig8_lo", "fig8_hi"):
            _, sim, _ = _criterion7_curves(name)
            CURVES[name] = sim
    ok = True
    details = []
    for name, sim in CURVES.items():
        for prev, nxt in zip(sim, sim[1:]):
            if nxt.ber > prev.ber and (prev.errors >= 300 or nxt.errors >= 300):
                ok = False
                details.append(
                    f"{name}: ber rises {prev.ber:.3e}->{nxt.ber:.3e} "
                    f"at {nxt.snr_db:g} dB with errors {prev.errors}/{nxt.errors}"
                )
    _report(10, "BER monotonicity", ok, "; ".join(details) or "all curves non-increasing")
    assert ok
