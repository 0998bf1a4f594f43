"""Pre-chirp alphabet design: pairwise-distance objectives and the PSO solver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations, product

import numpy as np

from .channel import enumerate_placements, path_offset
from .config import SystemConfig, constellation_for
from .mapping import PreChirpAlphabet, group_pattern_codebook

_BATCH_ELEMENTS = 1 << 24  # cap on the broadcast tensor size per collision-score chunk

# Asymptotic SNR on index error events that the swarm may trade for objective.
COLLISION_BUDGET_DB = 0.25


@dataclass(frozen=True, eq=False)
class ObjectiveContext:
    """Everything the pairwise objective needs besides the alphabet values.

    Holds the legitimate frame patterns, the Hamming-2 pattern pairs, all
    placements of p_paths over distinct delay-Doppler cells, and the cyclic
    index tables they induce. The collision fields describe the index error
    events scored by `collision_score` and the swarm's bound on that score.
    """

    cfg: SystemConfig
    p_paths: int
    placements: tuple
    patterns: np.ndarray  # (K, N) alphabet indices
    pairs: tuple[tuple[int, int], ...]
    col_index: np.ndarray  # (R, P, N) = (row + offset) mod N
    col_sq: np.ndarray  # col_index ** 2
    row_sq: np.ndarray  # (N,) row ** 2
    # Hamming-2 pairs are transpositions; pairs sharing (u, v, a, b) score alike
    pair_class: np.ndarray  # (n_pairs,) index of each pair's class
    class_ab: np.ndarray  # (Q, 2) alphabet indices (a, b); delta = c[b] - c[a]
    # per class, the distinct (A, B) of the non-zero terms 1 - cos(2 pi (delta A -
    # delta B)) of the reduced objective, and how many (placement, path, row) share them
    term_col: np.ndarray  # (Q, 8) A = +-col^2
    term_row: np.ndarray  # (Q, 8) B = +-row^2
    term_weight: np.ndarray  # (Q, 8) multiplicity W
    # per support size: (subcarriers, alphabet index a, alphabet index b), each (T, s)
    collision_terms: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    # distinct symbol pairs (x, x'): |x|^2 + |x'|^2, x conj(x'), multiplicity
    symbol_pairs: tuple[np.ndarray, np.ndarray, np.ndarray]
    collision_limit: float


def build_objective_context(cfg: SystemConfig, p_paths: int) -> ObjectiveContext:
    """Enumerate patterns, Hamming-2 pairs, and distinct-cell placements."""
    n, n_c = cfg.n_subcarriers, cfg.group_size
    lam = cfg.alphabet_size
    if lam != n_c:
        raise ValueError("the pattern codebook requires alphabet_size == group size")
    if p_paths < 1:
        raise ValueError("p_paths must be >= 1")
    if p_paths > cfg.placement_capacity:
        raise ValueError(
            f"p_paths={p_paths} exceeds the {cfg.placement_capacity} distinct "
            "delay-Doppler cells"
        )
    placements = enumerate_placements(cfg, p_paths, distinct=True)

    group_patterns = group_pattern_codebook(lam, n_c)
    patterns = np.array(
        [sum(combo, ()) for combo in product(group_patterns, repeat=cfg.n_groups)],
        dtype=np.int8,
    )
    hamming = np.count_nonzero(patterns[:, None, :] != patterns[None, :, :], axis=2)
    pair_j, pair_k = np.nonzero(np.triu(hamming == 2, 1))

    row = np.arange(n)
    col_index = np.empty((len(placements), p_paths, n), dtype=np.int64)
    for r, geometry in enumerate(placements):
        for p, (d, a) in enumerate(geometry):
            col_index[r, p] = (row + path_offset(cfg, d, a)) % n
    ctx = ObjectiveContext(
        cfg=cfg,
        p_paths=p_paths,
        placements=placements,
        patterns=patterns,
        pairs=tuple(zip(pair_j.tolist(), pair_k.tolist())),
        col_index=col_index,
        col_sq=col_index.astype(float) ** 2,
        row_sq=row.astype(float) ** 2,
        **_pair_classes(patterns[pair_j], patterns[pair_k], col_index),
        collision_terms=_collision_terms(group_patterns, cfg),
        symbol_pairs=_symbol_pairs(cfg),
        collision_limit=math.inf,
    )
    limit = collision_score(uniform_heuristic(lam), ctx) * 10 ** (
        p_paths * COLLISION_BUDGET_DB / 10
    )
    return replace(ctx, collision_limit=limit)


def _pair_classes(pj: np.ndarray, pk: np.ndarray, col_index: np.ndarray) -> dict:
    """Class tables of the Hamming-2 pairs (pj[i], pk[i]) for `_class_objectives`.

    A pair that swaps alphabet indices a and b on subcarriers u < v has
    diff = c[pk] - c[pj] equal to delta = c[b] - c[a] on u, -delta on v and 0
    elsewhere, so its reduced objective depends only on (u, v, a, b). A term
    of `reduced_objective` is non-zero only where its column or its row is u
    or v; its argument is then 2 pi (delta A - delta B) with A = +u^2, -v^2 or
    0 from the column and B likewise from the row.
    """
    n = col_index.shape[-1]
    sub = np.arange(n)
    u, v = np.nonzero(pj != pk)[1].reshape(-1, 2).T
    rows = np.arange(len(u))
    a, b = pj[rows, u], pk[rows, u]
    if np.any(pj[rows, v] != b) or np.any(pk[rows, v] != a):
        raise ValueError("every Hamming-2 pattern pair must be a transposition")
    keys, pair_class = np.unique(np.stack([u, v, a, b], axis=1), axis=0, return_inverse=True)
    cu, cv = keys[:, 0], keys[:, 1]
    # hits[n, m]: how many (placement, path) read column m on row n
    hits = np.bincount((sub * n + col_index).ravel(), minlength=n * n).reshape(n, n)
    hu, hv = hits[:, cu].T, hits[:, cv].T  # (Q, N)
    # per row, the (placement, path) count of column code 0: other, 1: u, 2: v
    col_count = np.stack([col_index.size // n - hu - hv, hu, hv], axis=1)  # (Q, 3, N)
    row_code = (sub == cu[:, None]) + 2 * (sub == cv[:, None])  # (Q, N)
    weight = np.einsum("qcn,qnr->qcr", col_count, np.eye(3, dtype=np.int64)[row_code])
    coeff = np.stack(
        [np.zeros(len(keys)), cu.astype(float) ** 2, -(cv.astype(float) ** 2)], axis=1
    )  # (Q, 3): the factor of +-delta for codes 0, 1, 2
    # code (0, 0) has a zero argument and drops out
    return dict(
        pair_class=pair_class.reshape(-1),
        class_ab=keys[:, 2:],
        term_col=np.repeat(coeff, 3, axis=1)[:, 1:],
        term_row=np.tile(coeff, 3)[:, 1:],
        term_weight=weight.reshape(len(keys), 9)[:, 1:].astype(float),
    )


def _collision_terms(group_patterns, cfg: SystemConfig) -> tuple:
    """Every pair of legitimate patterns that differ inside one group, grouped
    by the number of subcarriers on which they differ."""
    by_size: dict[int, list] = {}
    for g in range(cfg.n_groups):
        for pa, pb in combinations(np.array(group_patterns), 2):
            support = np.flatnonzero(pa != pb)
            entry = (g * cfg.group_size + support, pa[support], pb[support])
            by_size.setdefault(len(support), []).append(entry)
    return tuple(
        tuple(np.array(column) for column in zip(*entries))
        for _, entries in sorted(by_size.items())
    )


def _symbol_pairs(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    points = constellation_for(cfg).points
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


def _class_objectives(values: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """Reduced objective of every pair class, batched: (F, lambda) -> (F, Q).

    Each class sums its weighted terms, which are the same floating-point
    values as the terms of `reduced_objective`; only the order of the sum
    differs. Every class holds at least one pair, so the minimum over classes
    is the minimum over pairs.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    delta = (vals[:, ctx.class_ab[:, 1]] - vals[:, ctx.class_ab[:, 0]])[:, :, None]
    delta_theta = 2 * np.pi * (delta * ctx.term_col - delta * ctx.term_row)  # (F, Q, 8)
    return np.sum(ctx.term_weight * (1.0 - np.cos(delta_theta)), axis=2)


def reduced_objective(alphabet, ctx: ObjectiveContext, pair: tuple[int, int]) -> float:
    """Pairwise distance surrogate: sum over placements, paths, and rows of
    1 - cos(theta'_n - theta_n) for one Hamming-2 pattern pair."""
    j, k = _check_pair(ctx, pair)
    vals = _values_of(alphabet)
    diff = vals[ctx.patterns[k]] - vals[ctx.patterns[j]]  # (N,)
    delta_theta = 2 * np.pi * (diff[ctx.col_index] * ctx.col_sq - diff * ctx.row_sq)
    return float(np.sum(1.0 - np.cos(delta_theta)))


def _collision_scores(values: np.ndarray, ctx: ObjectiveContext) -> np.ndarray:
    """Collision score of a batch of alphabets: (F, lambda) -> (F,)."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    energy, corr, count = ctx.symbol_pairs
    total = np.zeros(vals.shape[0])
    for sub, ia, ib in ctx.collision_terms:
        n_terms, size = sub.shape
        per_chunk = n_terms * len(count) ** size
        step = max(1, _BATCH_ELEMENTS // per_chunk)
        weight = count
        for _ in range(1, size):
            weight = np.outer(weight, count).ravel()
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
            with np.errstate(divide="ignore"):
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
    if not ctx.pairs:
        raise ValueError("context has no Hamming-2 pattern pairs")
    return float(np.min(_class_objectives(_values_of(alphabet), ctx)))


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
        if (
            self.n_particles < 1
            or self.inertia <= 0
            or self.global_coeff <= 0
            or self.local_coeff <= 0
            or self.velocity_max <= 0
            or self.max_iterations < 0
        ):
            raise ValueError("swarm parameters must be positive")


@dataclass(frozen=True)
class PsoResult:
    alphabet: PreChirpAlphabet
    fitness: float
    history: tuple[tuple[int, float], ...] = field(repr=False)


def uniform_heuristic(alphabet_size: int) -> np.ndarray:
    """Evenly spread starting alphabet: (i + 1/2) / lambda."""
    return (np.arange(alphabet_size) + 0.5) / alphabet_size


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
    heuristic = uniform_heuristic(lam)
    if lam == 1:
        # no pattern pairs exist; the single value is returned unchanged
        return PsoResult(
            alphabet=PreChirpAlphabet((float(heuristic[0]),)),
            fitness=math.nan,
            history=((0, math.nan),),
        )

    def fitness_of(positions: np.ndarray) -> np.ndarray:
        canon = np.sort(positions, axis=1)
        feasible = np.all((canon > 0.0) & (canon < 1.0), axis=1)
        feasible &= np.all(np.diff(canon, axis=1) > 0.0, axis=1)
        # scores are never NaN, so under an infinite limit every one passes
        if math.isfinite(ctx.collision_limit) and np.any(feasible):
            scores = _collision_scores(canon[feasible], ctx)
            feasible[feasible] = scores <= ctx.collision_limit
        fit = np.full(positions.shape[0], -1.0)
        if np.any(feasible):
            fit[feasible] = _class_objectives(canon[feasible], ctx).min(axis=1)
        return fit

    n_p = params.n_particles
    positions = np.empty((n_p, lam), dtype=float)
    positions[0] = heuristic
    if n_p > 1:
        positions[1:] = rng.uniform(0.0, 1.0, size=(n_p - 1, lam))
    velocities = np.zeros_like(positions)

    fit = fitness_of(positions)
    local_pos = positions.copy()
    local_fit = fit.copy()
    best = int(np.argmax(fit))
    global_pos = positions[best].copy()
    global_fit = float(fit[best])
    history = [(0, global_fit)]

    for iteration in range(1, params.max_iterations + 1):
        r1 = rng.uniform(size=(n_p, 1))
        r2 = rng.uniform(size=(n_p, 1))
        velocities = (
            params.inertia * velocities
            + r1 * params.local_coeff * (local_pos - positions)
            + r2 * params.global_coeff * (global_pos[None, :] - positions)
        )
        np.clip(velocities, -params.velocity_max, params.velocity_max, out=velocities)
        positions = positions + velocities
        fit = fitness_of(positions)
        improved = fit > local_fit
        local_pos[improved] = positions[improved]
        local_fit[improved] = fit[improved]
        best = int(np.argmax(fit))
        if fit[best] > global_fit:
            global_fit = float(fit[best])
            global_pos = positions[best].copy()
        history.append((iteration, global_fit))

    alphabet = PreChirpAlphabet(tuple(np.sort(global_pos)))
    # re-scored alone: batched cosines may differ from it in the last bits
    return PsoResult(
        alphabet=alphabet,
        fitness=min_pair_objective(alphabet, ctx),
        history=tuple(history),
    )


def write_convergence_csv(history, fileobj) -> None:
    """Emit the per-iteration best fitness as CSV."""
    fileobj.write("iteration,best_fitness\n")
    for iteration, best in history:
        fileobj.write(f"{iteration},{best:.12g}\n")
