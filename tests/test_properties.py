"""Property tests: the fast kernels against their oracles over drawn small
configurations. Every draw is derandomized, so a run is deterministic."""

from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afdm_pim import optimizer
from afdm_pim.config import SystemConfig
from afdm_pim.mapping import group_pattern_codebook
from afdm_pim.optimizer import (
    _class_objectives,
    _collision_terms,
    build_objective_context,
    reduced_objective,
    uniform_heuristic,
)

MIN_GAP = 0.02  # closer values make 1 - cos cancel in the oracle as well
ORACLE_PAIRS = 32  # pairs checked besides one per class

# (N, G) with lambda = N/G >= 2. N = 8, G = 1 is left out: its pattern-pair
# Hamming tensor needs 8 GiB. N = 7, G = 1 is left out: its 4,096 group
# patterns give 8.4 million collision pattern pairs, more memory than a test
# may take.
GEOMETRIES = [
    (n, g)
    for n in range(2, 9)
    for g in range(1, n)
    if n % g == 0 and (n, g) not in ((7, 1), (8, 1))
]


@lru_cache(maxsize=None)
def _geometry_collision_terms(n, g):
    # they depend on (N, G) alone, and take most of a second on N = 6, G = 1
    cfg = SystemConfig(n_subcarriers=n, n_groups=g, alphabet_size=n // g)
    return _collision_terms(group_pattern_codebook(n // g, n // g), cfg)


@lru_cache(maxsize=None)
def _context(n, g, d_max, a_max, p_paths):
    cfg = SystemConfig(
        n_subcarriers=n, n_groups=g, alphabet_size=n // g,
        max_delay=d_max, max_doppler=a_max, cpp_length=d_max,
    )
    terms = _geometry_collision_terms(n, g)
    with mock.patch.object(optimizer, "_collision_terms", lambda *_: terms):
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
