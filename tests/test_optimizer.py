import math
import tracemalloc
import warnings

import numpy as np
import pytest

from afdm_pim import optimizer
from afdm_pim.config import RandomSource, SystemConfig
from afdm_pim.detection import codeword_time_signals
from afdm_pim.mapping import PreChirpAlphabet, codeword_rows
from afdm_pim.simulate import make_preset
from afdm_pim.suites import brute_objective_equal_symbols
from afdm_pim.optimizer import (
    PsoParams,
    build_objective_context,
    collision_score,
    min_pair_objective,
    pso_optimize,
    reduced_objective,
    uniform_heuristic,
    write_convergence_csv,
)

CFG_PSK = SystemConfig(
    n_subcarriers=4, n_groups=2, alphabet_size=2, constellation_order=2,
    constellation_kind="PSK", max_delay=0, max_doppler=1,
)
CFG_QAM = SystemConfig(
    n_subcarriers=4, n_groups=2, alphabet_size=2, constellation_order=4,
    constellation_kind="QAM", max_delay=0, max_doppler=1,
)
CFG_FIG4 = SystemConfig(
    n_subcarriers=6, n_groups=2, alphabet_size=3, constellation_order=2,
    constellation_kind="PSK", max_delay=1, max_doppler=1, cpp_length=1,
)
FIG7 = make_preset("fig7_pim")


def test_context_shape():
    ctx = build_objective_context(CFG_PSK, 2)
    assert len(ctx.placements) == 3  # C(3, 2)
    assert len(ctx.patterns) == 4
    assert len(ctx.pairs) == 4
    for j, k in ctx.pairs:
        assert np.count_nonzero(ctx.patterns[j] != ctx.patterns[k]) == 2
    cfg6 = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1)
    ctx6 = build_objective_context(cfg6, 3)
    assert len(ctx6.placements) == 20
    assert len(ctx6.patterns) == 16
    assert len(ctx6.pairs) == 32
    assert ctx6.pairs == tuple(
        (j, k)
        for j in range(len(ctx6.patterns))
        for k in range(j + 1, len(ctx6.patterns))
        if np.count_nonzero(ctx6.patterns[j] != ctx6.patterns[k]) == 2
    )


def test_context_rejects_too_many_paths():
    with pytest.raises(ValueError, match="exceeds"):
        build_objective_context(CFG_PSK, 4)


def test_context_rejects_no_path():
    with pytest.raises(ValueError, match="^p_paths must be >= 1$"):
        build_objective_context(CFG_PSK, 0)


@pytest.mark.parametrize(
    "n, count", [(7, "4,096"), (8, "32,768")], ids=["N7-G1", "N8-G1"]
)
def test_context_refuses_too_many_pattern_pairs_before_allocating(n, count):
    # one group of N subcarriers: 2^floor(log2 N!) patterns, whose pairs would
    # need an 8 GiB Hamming tensor at N = 8
    cfg = SystemConfig(n_subcarriers=n, n_groups=1, alphabet_size=n, max_doppler=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^{count} patterns make .* pattern pairs"):
            build_objective_context(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**10, peak


def test_reduced_objective_basics():
    ctx = build_objective_context(CFG_PSK, 2)
    vals = np.array([0.2, 0.6])
    # equal patterns give zero
    assert reduced_objective(vals, ctx, (1, 1)) == 0.0
    pair = ctx.pairs[0]
    o = reduced_objective(vals, ctx, pair)
    r, p, n = ctx.col_index.shape
    assert 0.0 <= o <= 2.0 * r * p * n
    # accepts the domain type as well
    assert reduced_objective(PreChirpAlphabet((0.2, 0.6)), ctx, pair) == pytest.approx(o)


def test_reduced_objective_rejects_wide_pairs():
    cfg6 = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1)
    ctx = build_objective_context(cfg6, 3)
    wide = None
    for j in range(len(ctx.patterns)):
        for k in range(j + 1, len(ctx.patterns)):
            if np.count_nonzero(ctx.patterns[j] != ctx.patterns[k]) > 2:
                wide = (j, k)
                break
        if wide:
            break
    with pytest.raises(ValueError, match="not 2"):
        reduced_objective(np.array([0.1, 0.5, 0.9]), ctx, wide)


def test_equal_symbol_brute_vanishes_for_equal_patterns():
    ctx = build_objective_context(CFG_PSK, 1)
    assert brute_objective_equal_symbols(np.array([0.2, 0.6]), ctx, (0, 0)) == 0.0


def test_min_pair_objective():
    ctx = build_objective_context(CFG_PSK, 2)
    # duplicate values: swapping them is invisible, some pair scores zero
    assert min_pair_objective(np.array([0.3, 0.3]), ctx) == pytest.approx(0.0, abs=1e-12)
    assert min_pair_objective(np.array([0.2, 0.6]), ctx) > 0.0
    cfg6 = SystemConfig(n_subcarriers=6, n_groups=2, alphabet_size=3, max_delay=1, max_doppler=1, cpp_length=1)
    ctx6 = build_objective_context(cfg6, 3)
    assert min_pair_objective(PreChirpAlphabet((0.29, 0.62, 0.93)), ctx6) > 0.0


@pytest.mark.parametrize(
    "cfg, p_paths",
    [(CFG_PSK, 2), (CFG_QAM, 2), (CFG_FIG4, 3), (FIG7.cfg, FIG7.p_paths)],
    ids=["bpsk", "4qam", "fig4", "fig7"],
)
def test_batched_pair_objectives_match_reduced_objective(cfg, p_paths):
    """The class-table scorer against the per-pair oracle on every pair; a
    pair the oracle scores exactly 0 must score exactly 0."""
    ctx = build_objective_context(cfg, p_paths)
    lam = cfg.alphabet_size
    rng = RandomSource(29).generator()
    alphabets = np.vstack([np.sort(rng.uniform(0.0, 1.0, (8, lam)), axis=1), uniform_heuristic(lam)])
    batched = optimizer._class_objectives(alphabets, ctx)[:, ctx.pair_class]
    for values, scores in zip(alphabets, batched):
        oracle = np.array([reduced_objective(values, ctx, pair) for pair in ctx.pairs])
        single = optimizer._class_objectives(values[None], ctx)[0, ctx.pair_class]
        for route in (scores, single):
            assert np.array_equal(route == 0.0, oracle == 0.0)
            assert np.all(np.abs(route - oracle) <= 1e-12 * oracle)
        best = min_pair_objective(values, ctx)
        assert abs(best - oracle.min()) <= 1e-12 * oracle.min()
        # every class holds a pair: its minimum over classes is the same float
        assert best == min(single)
    assert np.array_equal(
        optimizer._class_objectives(alphabets, ctx).min(axis=1), batched.min(axis=1)
    )
    if cfg is FIG7.cfg:
        # uniform_heuristic(4) holds a difference of 1/2: 128 pairs vanish
        assert np.count_nonzero(batched[-1] == 0.0) == 128
    # the +-1 product gives the differences c[hi] - c[lo] exactly, also far
    # outside the box and between neighbouring floats
    hi, lo = ctx.cos_diff.argmax(axis=0), ctx.cos_diff.argmin(axis=0)
    assert np.all(lo < hi) and np.all(np.count_nonzero(ctx.cos_diff, axis=0) == 2)
    wide = np.vstack(
        [alphabets, rng.uniform(-3.0, 4.0, (8, lam)), 0.3 + np.arange(lam) * np.spacing(0.3)]
    )
    assert np.array_equal(wide @ ctx.cos_diff, wide[:, hi] - wide[:, lo])


@pytest.mark.parametrize(
    "scenario, params, expected",
    [
        (
            make_preset("fig4"), PsoParams(),
            (0.16020236802169208, 0.49421332277225594, 0.827207848918685),
        ),
        (
            FIG7, PsoParams(n_particles=4, max_iterations=1),
            (0.14417734788764952, 0.7111397019903529, 0.8360643052769539, 0.9256223516367559),
        ),
    ],
    ids=["fig4-200x300", "fig7-4x1"],
)
def test_pso_seed_42_alphabets_are_pinned(scenario, params, expected):
    # recorded before the pair objective was scored on classes; numpy's cos may
    # differ in the last bit across CPUs, but a changed swarm decision moves a
    # value by far more than the tolerance
    ctx = build_objective_context(scenario.cfg, scenario.p_paths)
    res = pso_optimize(scenario.cfg, ctx, params, RandomSource(42).generator())
    assert res.alphabet.values == pytest.approx(expected, rel=0, abs=1e-9)
    # the benchmark's check: the reported fitness is the public scorer's, exactly
    assert res.fitness == min_pair_objective(res.alphabet, ctx)


def test_pso_seed_42_default_fig7_swarm_is_pinned():
    # the default 200x300 swarm; recorded while the collision score was still
    # computed under the fig7 geometry's infinite limit
    ctx = build_objective_context(FIG7.cfg, FIG7.p_paths)
    res = pso_optimize(FIG7.cfg, ctx, PsoParams(), RandomSource(42).generator())
    expected = (0.22328063861620118, 0.4232806386162012, 0.6232806386162012, 0.8059020823244499)
    assert res.alphabet.values == pytest.approx(expected, rel=0, abs=1e-9)
    assert res.fitness == pytest.approx(447.75698764503204, rel=1e-12)


def test_pso_skips_the_collision_score_under_an_infinite_limit(monkeypatch):
    # the even-lambda heuristic collides, so the fig7 limit admits every score
    ctx = build_objective_context(FIG7.cfg, FIG7.p_paths)
    assert ctx.collision_limit == math.inf

    def refuse(values, ctx):
        raise AssertionError("collision score computed under an infinite limit")

    monkeypatch.setattr(optimizer, "_collision_scores", refuse)
    res = pso_optimize(FIG7.cfg, ctx, _small_params(), RandomSource(4).generator())
    assert res.fitness == min_pair_objective(res.alphabet, ctx)


@pytest.mark.parametrize("cfg", [CFG_PSK, CFG_QAM], ids=["bpsk", "4qam"])
def test_collision_score_matches_codebook_enumeration(cfg):
    """Oracle: sum d^-P over codeword pairs of the detector's own candidate
    frames whose patterns differ inside one group and whose symbols agree
    off the differing subcarriers, each event counted once."""
    ctx = build_objective_context(cfg, 2)
    alphabet = PreChirpAlphabet((0.23, 0.61))
    signals = codeword_time_signals(cfg, alphabet)
    n_c, n_words = cfg.group_size, len(signals)
    symbols, assignments = codeword_rows(cfg, np.arange(n_words))
    groups = assignments.reshape(n_words, cfg.n_groups, n_c)
    rank = groups @ (cfg.alphabet_size ** np.arange(n_c))  # orders group patterns
    expected = 0.0
    for c in range(n_words):
        pattern_diff = groups[c] != groups
        groups_diff = pattern_diff.any(axis=2)
        one_group = groups_diff.sum(axis=1) == 1
        g = np.argmax(groups_diff, axis=1)
        ordered = rank[c, g] < rank[np.arange(n_words), g]
        support = pattern_diff.reshape(n_words, -1)
        symbols_off = np.any((symbols[c] != symbols) & ~support, axis=1)
        keep = one_group & ordered & ~symbols_off
        dist = np.sum(np.abs(signals[c] - signals[keep]) ** 2, axis=1)
        size = support[keep].sum(axis=1)
        per_event = (
            cfg.alphabet_size ** (cfg.n_groups - 1)
            * cfg.constellation_order ** (cfg.n_subcarriers - size)
        )
        expected += float(np.sum(dist ** -2.0 / per_event))
    assert collision_score(alphabet, ctx) == pytest.approx(expected, rel=1e-9)


def test_collision_score_flags_symbol_flip_collision():
    # a difference of 1/2 turns the swap on subcarrier 1 into a BPSK sign flip,
    # and subcarrier 0 carries no pre-chirp phase: the codewords coincide
    ctx = build_objective_context(CFG_PSK, 2)
    assert collision_score(np.array([0.2, 0.7]), ctx) == math.inf
    assert math.isfinite(collision_score(np.array([0.2, 0.6]), ctx))


def test_collision_rule_rejects_sign_flip_ridge():
    """The swarm maximizer without the collision rule sits on the objective's
    ridge, where a pre-chirp difference near 1/2 makes a pattern swap mimic a
    BPSK sign flip on the odd subcarriers; the rule rejects it and keeps the
    evenly spread start feasible."""
    ctx = build_objective_context(CFG_FIG4, 3)
    ridge = np.array([0.4079, 0.8079, 0.9106])
    assert min_pair_objective(ridge, ctx) > min_pair_objective(uniform_heuristic(3), ctx)
    assert collision_score(ridge, ctx) > ctx.collision_limit
    assert collision_score(uniform_heuristic(3), ctx) <= ctx.collision_limit


def test_pso_result_within_collision_limit(monkeypatch):
    ctx = build_objective_context(CFG_FIG4, 3)
    assert math.isfinite(ctx.collision_limit)
    scored = []
    score = optimizer._collision_scores

    def counting(values, ctx):
        scored.append(len(values))
        return score(values, ctx)

    monkeypatch.setattr(optimizer, "_collision_scores", counting)
    res = pso_optimize(CFG_FIG4, ctx, _small_params(), RandomSource(3).generator())
    assert scored  # a finite limit is enforced, so the swarm scores
    assert collision_score(res.alphabet, ctx) <= ctx.collision_limit
    assert res.fitness == min_pair_objective(res.alphabet, ctx)


def test_swarm_fitness_walls_off_infeasible_positions():
    """Rows are sorted before scoring; a value at 0 or 1, a repeated value and a
    collision score over the limit each give -1."""
    ctx = build_objective_context(CFG_FIG4, 3)
    positions = np.array(
        [
            [0.0, 0.5, 0.8],
            [0.2, 0.5, 1.0],
            [0.2, 0.5, 0.5],
            [0.4079, 0.8079, 0.9106],  # the sign-flip ridge
            [5 / 6, 1 / 6, 1 / 2],  # the heuristic, unsorted
        ]
    )
    fit = optimizer._swarm_fitness(positions, ctx)
    assert fit[:4].tolist() == [-1.0] * 4
    assert fit[4] == pytest.approx(min_pair_objective(uniform_heuristic(3), ctx), rel=1e-12)


@pytest.mark.parametrize(
    "cfg, p_paths", [(CFG_FIG4, 3), (FIG7.cfg, FIG7.p_paths)], ids=["fig4", "fig7"]
)
def test_swarm_fitness_masks_rows_far_outside_the_box(cfg, p_paths):
    """Every row goes through the scorer before the infeasible ones are masked:
    rows far outside (0, 1) or with repeated values give exactly -1 and no
    warning, and each feasible row scores as it does alone, under a finite
    collision limit (fig4) and an infinite one (fig7)."""
    ctx = build_objective_context(cfg, p_paths)
    lam = cfg.alphabet_size
    rng = RandomSource(8).generator()
    inside = np.sort(rng.uniform(0.05, 0.95, (6, lam)), axis=1)
    outside = np.array(
        [
            np.full(lam, -3.0),
            np.full(lam, 4.0),
            np.linspace(-3.0, 4.0, lam),
            np.r_[inside[0, :-1], 4.0],
            np.r_[inside[0, :-1], inside[0, 0]],  # a repeated value
        ]
    )
    positions = np.vstack([outside, inside, uniform_heuristic(lam)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = optimizer._swarm_fitness(positions, ctx)
    assert fit[: len(outside)].tolist() == [-1.0] * len(outside)
    feasible = fit > -1.0
    # skipping the cosines of infeasible rows moves no feasible score
    unmasked = optimizer._class_objectives(np.sort(positions, axis=1), ctx).min(axis=1)
    assert np.array_equal(fit[feasible], unmasked[feasible])
    assert feasible[-1]  # the heuristic is feasible on both geometries
    for row, score in zip(positions[feasible], fit[feasible]):
        alone = min_pair_objective(row, ctx)
        assert abs(score - alone) <= 1e-12 * alone
    for row in positions[len(outside) :][~feasible[len(outside) :]]:
        assert collision_score(row, ctx) > ctx.collision_limit


def test_uniform_heuristic_values():
    assert np.allclose(uniform_heuristic(3), [1 / 6, 3 / 6, 5 / 6])
    assert np.allclose(uniform_heuristic(1), [0.5])


def _small_params():
    return PsoParams(n_particles=16, max_iterations=12)


def test_pso_deterministic_and_never_below_heuristic():
    ctx = build_objective_context(CFG_PSK, 2)
    a = pso_optimize(CFG_PSK, ctx, _small_params(), RandomSource(5).generator())
    b = pso_optimize(CFG_PSK, ctx, _small_params(), RandomSource(5).generator())
    assert a.alphabet.values == b.alphabet.values
    assert a.fitness == b.fitness
    heuristic_eps = min_pair_objective(uniform_heuristic(2), ctx)
    assert a.fitness >= heuristic_eps
    # history is monotone non-decreasing and covers every iteration
    fits = [f for _, f in a.history]
    assert all(y >= x for x, y in zip(fits, fits[1:]))
    assert len(a.history) == _small_params().max_iterations + 1


def test_pso_output_feasible():
    ctx = build_objective_context(CFG_PSK, 2)
    res = pso_optimize(CFG_PSK, ctx, _small_params(), RandomSource(6).generator())
    vals = res.alphabet.values
    assert all(0.0 < v < 1.0 for v in vals)
    assert vals == tuple(sorted(vals))
    assert res.fitness == pytest.approx(min_pair_objective(np.array(vals), ctx))


def test_pso_params_validation():
    # NaN passes no comparison, so a check written as "value <= 0" admits it
    for field, value in [
        ("n_particles", 0),
        ("n_particles", 3.5),
        ("max_iterations", -1),
        ("max_iterations", 2.0),
        ("inertia", math.nan),
        ("inertia", 0.0),
        ("global_coeff", math.inf),
        ("local_coeff", -math.inf),
        ("velocity_max", -0.1),
        ("velocity_max", math.nan),
    ]:
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            PsoParams(**{field: value})


def test_pso_params_accept_numpy_counts():
    assert PsoParams(n_particles=np.int64(3), max_iterations=np.int32(0)).n_particles == 3


def test_convergence_csv(tmp_path):
    import io

    buf = io.StringIO()
    write_convergence_csv(((0, 1.5), (1, 2.0)), buf)
    assert buf.getvalue() == "iteration,best_fitness\n0,1.5\n1,2\n"
