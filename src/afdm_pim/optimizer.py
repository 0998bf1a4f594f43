"""Pre-chirp alphabet design: pairwise-distance objectives and the PSO solver."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import combinations, product

import numpy as np

from .channel import delay_doppler_cells, path_offset
from .config import SystemConfig, constellation_for
from .mapping import (
    MAX_CODEWORDS,
    PreChirpAlphabet,
    group_pattern_codebook,
    index_bits_per_group,
)

_BATCH_ELEMENTS = 1 << 24  # cap on the broadcast tensor size per collision-score chunk

# Asymptotic SNR on index error events that the swarm may trade for objective.
COLLISION_BUDGET_DB = 0.25


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Everything the pairwise objective needs besides the alphabet values.

    Holds the legitimate frame patterns, the Hamming-2 pattern pairs, all
    placements of p_paths over distinct delay-Doppler cells, and the cyclic
    index tables they induce. The pairs fall into Q classes that score alike;
    the class objectives are weighted sums of D distinct cosines
    1 - cos(2 pi m (c[hi] - c[lo])), one per (lo, hi, |m|) key, so a batch of
    F alphabets is scored as one (F, D) by (D, Q) product. The collision
    fields describe the index error events scored by `collision_score` and
    the swarm's bound on that score.
    """

    cfg: SystemConfig
    p_paths: int
    placements: tuple
    patterns: np.ndarray  # (K, N) alphabet indices
    pairs: tuple[tuple[int, int], ...]
    col_index: np.ndarray  # (R, P, N) = (row + offset) mod N
    # Hamming-2 pairs are transpositions; pairs sharing (u, v, a, b) score alike
    pair_class: np.ndarray  # (n_pairs,) index of each pair's class
    # (lambda, D): +1 in row hi and -1 in row lo of each column, lo < hi; a
    # product with it sums one +c, one -c and zeros, so values @ cos_diff is
    # the float of c[hi] - c[lo] exactly
    cos_diff: np.ndarray
    cos_args: np.ndarray  # (D,) 2 pi |m|, m an integer multiplier
    cos_weights: np.ndarray  # (D, Q) how many (placement, path, row) terms of a class
    # per support size s: (subcarriers, alphabet index a, alphabet index b), each
    # (T, s), and the multiplicity of each of the O^s symbol-pair combinations
    collision_terms: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    # the O distinct symbol pairs (x, x'): |x|^2 + |x'|^2 and x conj(x')
    symbol_pairs: tuple[np.ndarray, np.ndarray]
    collision_limit: float


def build_objective_context(cfg: SystemConfig, p_paths: int) -> ObjectiveContext:
    """Enumerate patterns, Hamming-2 pairs, and distinct-cell placements."""
    n, n_c = cfg.n_subcarriers, cfg.group_size
    lam = cfg.alphabet_size
    if lam == 1:
        raise ValueError(
            "a single pre-chirp value carries no index bits, so there is no alphabet to design"
        )
    # the Hamming tensor below holds every pattern pair; with one group these
    # are the pairs `_collision_terms` enumerates as well. They are counted
    # before the pattern table is built.
    n_patterns = (2 ** index_bits_per_group(lam, n_c)) ** cfg.n_groups
    n_pairs = n_patterns * (n_patterns - 1) // 2
    if n_pairs > MAX_CODEWORDS:
        raise ValueError(
            f"{n_patterns:,} patterns make {n_pairs:,} pattern pairs, above the "
            f"enumeration limit {MAX_CODEWORDS:,}"
        )
    group_patterns = group_pattern_codebook(lam, n_c)
    if p_paths < 1:
        raise ValueError("p_paths must be >= 1")
    if p_paths > cfg.placement_capacity:
        raise ValueError(
            f"p_paths={p_paths} exceeds the {cfg.placement_capacity} distinct "
            "delay-Doppler cells"
        )
    placements = tuple(combinations(delay_doppler_cells(cfg), p_paths))

    # frame pattern r: the group patterns of r's base-2^b2 digits, group 0 first
    patterns = np.array(
        list(product(group_patterns, repeat=cfg.n_groups)), dtype=np.int8
    ).reshape(n_patterns, n)
    hamming = np.count_nonzero(patterns[:, None, :] != patterns[None, :, :], axis=2)
    pair_j, pair_k = np.nonzero(np.triu(hamming == 2, 1))

    row = np.arange(n)
    col_index = np.empty((len(placements), p_paths, n), dtype=np.int64)
    for r, geometry in enumerate(placements):
        for p, (d, a) in enumerate(geometry):
            col_index[r, p] = (row + path_offset(cfg, d, a)) % n
    energy, corr, count = _symbol_pairs(cfg)
    ctx = ObjectiveContext(
        cfg=cfg,
        p_paths=p_paths,
        placements=placements,
        patterns=patterns,
        pairs=tuple(zip(pair_j.tolist(), pair_k.tolist())),
        col_index=col_index,
        **_pair_classes(patterns[pair_j], patterns[pair_k], col_index, lam),
        collision_terms=tuple(
            (sub, ia, ib, reduce(np.multiply.outer, [count] * sub.shape[1]).ravel())
            for sub, ia, ib in _collision_terms(group_patterns, cfg)
        ),
        symbol_pairs=(energy, corr),
        collision_limit=math.inf,
    )
    limit = collision_score(uniform_heuristic(lam), ctx) * 10 ** (
        p_paths * COLLISION_BUDGET_DB / 10
    )
    return replace(ctx, collision_limit=limit)


def _pair_classes(pj: np.ndarray, pk: np.ndarray, col_index: np.ndarray, lam: int) -> dict:
    """Class and cosine tables of the Hamming-2 pairs (pj[i], pk[i]) for
    `_class_objectives`.

    A pair that swaps alphabet indices a and b on subcarriers u < v has
    diff = c[pk] - c[pj] equal to delta = c[b] - c[a] on u, -delta on v and 0
    elsewhere, so its reduced objective depends only on (u, v, a, b). A term
    of `reduced_objective` is non-zero only where its column or its row is u
    or v; its argument is then 2 pi m delta with m = A - B, where A = u^2, -v^2
    or 0 from the column and B likewise from the row. So |m| is u^2 where one
    of them is u and the other neither u nor v, v^2 likewise, and u^2 + v^2
    where one is u and the other v. cos is even, so the term depends only on
    (min(a, b), max(a, b), |m|), a key many classes share.
    """
    n = col_index.shape[-1]
    sub = np.arange(n)
    u, v = np.nonzero(pj != pk)[1].reshape(-1, 2).T
    rows = np.arange(len(u))
    # permutations never differ in one place, so pj and pk swap a and b on u, v
    a, b = pj[rows, u], pk[rows, u]
    keys, pair_class = np.unique(np.stack([u, v, a, b], axis=1), axis=0, return_inverse=True)
    cu, cv = keys[:, 0], keys[:, 1]
    # hits[n, m]: how many (placement, path) read column m on row n
    hits = np.bincount((sub * n + col_index).ravel(), minlength=n * n).reshape(n, n)
    # own[x]: the terms whose column or row, not both, is x; cross: u and v
    own = hits.sum(axis=0) + hits.sum(axis=1) - 2 * np.diag(hits)
    cross = hits[cu, cv] + hits[cv, cu]
    weight = np.stack([own[cu] - cross, own[cv] - cross, cross], axis=1)  # (Q, 3)
    multiplier = np.stack([cu**2, cv**2, cu**2 + cv**2], axis=1)
    # a zero multiplier (u = 0) gives a zero term
    q, c = np.nonzero((multiplier > 0) & (weight > 0))
    lo_hi = np.sort(keys[:, 2:], axis=1)[q]
    cos_keys, slot = np.unique(
        np.column_stack([lo_hi, multiplier[q, c]]), axis=0, return_inverse=True
    )
    cos_weights = np.zeros((len(cos_keys), len(keys)))
    np.add.at(cos_weights, (slot.reshape(-1), q), weight[q, c])
    cos_diff = np.zeros((lam, len(cos_keys)))
    column = np.arange(len(cos_keys))
    cos_diff[cos_keys[:, 1], column] = 1.0
    cos_diff[cos_keys[:, 0], column] = -1.0
    return dict(
        pair_class=pair_class.reshape(-1),
        cos_diff=cos_diff,
        cos_args=2 * np.pi * cos_keys[:, 2],
        cos_weights=cos_weights,
    )


def _collision_terms(group_patterns: np.ndarray, cfg: SystemConfig) -> tuple:
    """Every pair of legitimate patterns that differ inside one group, grouped
    by the number s of subcarriers on which they differ: per s, the (T, s)
    subcarriers and the two patterns' alphabet indices on them, ordered by
    group, then by pair (lo, hi) of group-table rows, lo < hi."""
    lo, hi = np.triu_indices(len(group_patterns), 1)
    pa, pb = group_patterns[lo], group_patterns[hi]
    differs = pa != pb
    size = np.count_nonzero(differs, axis=1)
    offsets = cfg.group_size * np.arange(cfg.n_groups)[:, None, None]
    blocks = []
    for s in np.flatnonzero(np.bincount(size)):  # np.unique would import numpy.ma
        rows = np.flatnonzero(size == s)
        support = np.nonzero(differs[rows])[1].reshape(-1, s)
        a = np.take_along_axis(pa[rows], support, axis=1)
        b = np.take_along_axis(pb[rows], support, axis=1)
        sub = (offsets + support).reshape(-1, s)
        blocks.append((sub, np.tile(a, (cfg.n_groups, 1)), np.tile(b, (cfg.n_groups, 1))))
    return tuple(blocks)


def _symbol_pairs(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    points = constellation_for(cfg)
    energy = np.abs(points[:, None]) ** 2 + np.abs(points[None, :]) ** 2
    corr = points[:, None] * points[None, :].conj()
    key = np.round(np.stack([energy.ravel(), corr.real.ravel(), corr.imag.ravel()], 1), 12)
    distinct, count = np.unique(key, axis=0, return_counts=True)
    return distinct[:, 0], distinct[:, 1] + 1j * distinct[:, 2], count.astype(float)


def _values_of(alphabet) -> np.ndarray:
    if isinstance(alphabet, PreChirpAlphabet):
        return alphabet.array
    return np.asarray(alphabet, dtype=float)


def _check_pair(ctx: ObjectiveContext, pair: tuple[int, int]) -> tuple[int, int]:
    """Accept equal patterns (objective 0) or Hamming-2 pairs; reject the rest."""
    j, k = pair
    dist = int(np.count_nonzero(ctx.patterns[j] != ctx.patterns[k]))
    if j != k and dist != 2:
        raise ValueError(f"pattern pair {pair} differs in {dist} positions, not 2")
    return j, k


def _class_objectives(
    vals: np.ndarray, ctx: ObjectiveContext, where: np.ndarray | bool = True
) -> np.ndarray:
    """Reduced objective of every pair class, batched: (F, lambda) floats -> (F, Q).

    Each of the D distinct cosines is evaluated once per alphabet and the
    classes sum them by weight. The terms keep the form 1 - cos, as in
    `reduced_objective`, so a pair the oracle scores exactly 0 scores exactly
    0 here; otherwise the two agree to rounding. Every class holds at least
    one pair, so the minimum over classes is the minimum over pairs. With no
    cosine (a single delay-Doppler cell) every objective is 0. The cosines of
    a row whose `where` (F, 1) entry is False are skipped: its objectives are
    finite for finite values but meaningless, for the caller to mask.
    """
    phase = vals @ ctx.cos_diff
    phase *= ctx.cos_args
    np.cos(phase, out=phase, where=where)
    return (1.0 - phase) @ ctx.cos_weights


def reduced_objective(alphabet, ctx: ObjectiveContext, pair: tuple[int, int]) -> float:
    """Pairwise distance surrogate: sum over placements, paths, and rows of
    1 - cos(theta'_n - theta_n) for one Hamming-2 pattern pair."""
    j, k = _check_pair(ctx, pair)
    vals = _values_of(alphabet)
    diff = vals[ctx.patterns[k]] - vals[ctx.patterns[j]]  # (N,)
    col_sq = ctx.col_index.astype(float) ** 2
    row_sq = np.arange(len(diff)).astype(float) ** 2
    delta_theta = 2 * np.pi * (diff[ctx.col_index] * col_sq - diff * row_sq)
    return float(np.sum(1.0 - np.cos(delta_theta)))


def _collision_scores(values: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """Collision score of a batch of alphabets: (F, lambda) -> (F,)."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    energy, corr = ctx.symbol_pairs
    total = np.zeros(vals.shape[0])
    with np.errstate(divide="ignore"):
        for sub, ia, ib, weight in ctx.collision_terms:
            n_terms, size = sub.shape
            step = max(1, _BATCH_ELEMENTS // (n_terms * len(weight)))
            for lo in range(0, vals.shape[0], step):
                v = vals[lo : lo + step]
                phase = np.exp(2j * np.pi * (v[:, ia] - v[:, ib]) * sub**2)  # (F, T, s)
                # |x e^{i phi} - x'|^2 for every distinct (x, x') on every subcarrier
                per_sub = energy - 2.0 * np.real(corr * phase[..., None])  # (F, T, s, O)
                dist = per_sub[:, :, 0]
                for k in range(1, size):
                    dist = (dist[..., None] + per_sub[:, :, k, None, :]).reshape(
                        v.shape[0], n_terms, -1
                    )
                inv = np.maximum(dist, 0.0) ** -float(ctx.p_paths)
                total[lo : lo + step] += np.sum(weight * inv, axis=(1, 2))
    return total


def collision_score(alphabet, ctx: ObjectiveContext) -> float:
    """High-SNR union weight of the index error events, in the detector's frame.

    An index error event confuses (x, pattern a) with (x', pattern b), where a
    and b are legitimate patterns that differ inside one group and x' may
    rotate the symbols on the subcarriers where they differ. In the common
    receive frame every unit-gain path is unitary, so each path image of the
    difference carries the energy d = sum_m |x_m e^{i 2 pi c_a[m] m^2} -
    x'_m e^{i 2 pi c_b[m] m^2}|^2 and the event's pairwise error probability
    over p_paths Rayleigh paths falls as d^-P. The score sums d^-P over all
    such events, so every symbol-rotated neighbour counts, not only the
    nearest; a collision (d = 0) scores infinity.
    """
    return float(_collision_scores(_values_of(alphabet), ctx)[0])


def min_pair_objective(alphabet, ctx: ObjectiveContext) -> float:
    """The max-min design target: minimum reduced objective over Hamming-2 pairs."""
    return float(_class_objectives(_values_of(alphabet)[None], ctx).min())


@dataclass(frozen=True)
class PsoParams:
    """Swarm defaults match the published tuning."""

    n_particles: int = 200
    inertia: float = 0.5
    global_coeff: float = 2.0
    local_coeff: float = 2.0
    velocity_max: float = 0.05
    max_iterations: int = 300

    def __post_init__(self) -> None:
        for name, low in (("n_particles", 1), ("max_iterations", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        # finite coefficients keep every position finite, which `_swarm_fitness` needs
        for name in ("inertia", "global_coeff", "local_coeff", "velocity_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class PsoResult:
    alphabet: PreChirpAlphabet
    fitness: float
    history: tuple[tuple[int, float], ...] = field(repr=False)


def uniform_heuristic(alphabet_size: int) -> np.ndarray:
    """Evenly spread starting alphabet: (i + 1/2) / lambda."""
    return (np.arange(alphabet_size) + 0.5) / alphabet_size


def _swarm_fitness(positions: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """Min-pair objective of each sorted position, or -1 where it is infeasible.

    Every row goes through one scoring path and the infeasible ones are masked
    after it, so rows must be finite; their cosines are skipped. The
    collision score runs only under a finite limit, on rows that pass the box
    and order checks.
    """
    canon = np.sort(positions, axis=1)
    # sorted rows lie in (0, 1) when their ends do, and are distinct when increasing
    feasible = (canon[:, 0] > 0.0) & (canon[:, -1] < 1.0)
    feasible &= (canon[:, 1:] > canon[:, :-1]).all(axis=1)
    # scores are never NaN, so under an infinite limit every one passes
    if math.isfinite(ctx.collision_limit) and feasible.any():
        feasible[feasible] = _collision_scores(canon[feasible], ctx) <= ctx.collision_limit
    scores = _class_objectives(canon, ctx, where=feasible[:, None]).min(axis=1)
    return np.where(feasible, scores, -1.0)


def pso_optimize(
    cfg: SystemConfig,
    ctx: ObjectiveContext,
    params: PsoParams,
    rng: np.random.Generator,
) -> PsoResult:
    """Maximize the min-pair objective over alphabets in (0, 1)^lambda.

    The feasible set holds sorted alphabets of distinct values in (0, 1)
    whose `collision_score` stays within ctx.collision_limit: the heuristic's
    score plus an asymptotic SNR budget of COLLISION_BUDGET_DB. The objective
    alone rewards pattern swaps that mimic symbol rotations, which the ML
    detector then confuses; the limit keeps the swarm from trading
    detector-frame distance for objective.

    Particle 0 starts at the evenly spread heuristic, which is feasible; the
    rest start uniform at random with zero velocities. Positions outside the
    feasible set get a brick-wall fitness of -1 and are never selected while
    any feasible particle exists. Alphabets are canonicalized by sorting
    before fitness.
    """
    lam = cfg.alphabet_size
    n_p = params.n_particles
    positions = np.empty((n_p, lam), dtype=float)
    positions[0] = uniform_heuristic(lam)
    if n_p > 1:
        positions[1:] = rng.uniform(0.0, 1.0, size=(n_p - 1, lam))
    velocities = np.zeros_like(positions)

    fit = _swarm_fitness(positions, ctx)
    local_pos = positions.copy()
    local_fit = fit.copy()
    best = fit.argmax()
    global_pos = positions[best].copy()
    global_fit = float(fit[best])
    history = [(0, global_fit)]

    # velocity = inertia v + (r1 c_local)(local - x) + (r2 c_global)(global - x),
    # updated in place in that order of operations
    coeffs = np.array([params.local_coeff, params.global_coeff])[:, None, None]
    pull = np.empty_like(positions)
    for iteration in range(1, params.max_iterations + 1):
        # r1 then r2, each (n_p, 1), from one draw: the stream of two
        weights = rng.uniform(size=(2, n_p, 1))
        weights *= coeffs
        velocities *= params.inertia
        np.subtract(local_pos, positions, out=pull)
        pull *= weights[0]
        velocities += pull
        np.subtract(global_pos, positions, out=pull)
        pull *= weights[1]
        velocities += pull
        np.maximum(velocities, -params.velocity_max, out=velocities)
        np.minimum(velocities, params.velocity_max, out=velocities)
        positions += velocities
        fit = _swarm_fitness(positions, ctx)
        improved = fit > local_fit
        np.copyto(local_pos, positions, where=improved[:, None])
        np.copyto(local_fit, fit, where=improved)
        best = fit.argmax()
        if fit[best] > global_fit:
            global_fit = float(fit[best])
            global_pos = positions[best].copy()
        history.append((iteration, global_fit))

    alphabet = PreChirpAlphabet(tuple(np.sort(global_pos).tolist()))
    return PsoResult(alphabet, min_pair_objective(alphabet, ctx), tuple(history))


def write_convergence_csv(history, fileobj) -> None:
    """Emit the per-iteration best fitness as CSV."""
    fileobj.write("iteration,best_fitness\n")
    for iteration, best in history:
        fileobj.write(f"{iteration},{best:.12g}\n")
