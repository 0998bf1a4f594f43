"""Numeric invariant suites behind the `validate` subcommand, and the slow
oracles they hold the program to: the paper's closed-form chirp-domain channel
and the brute-force pattern-pair objectives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import apply_channel_time, path_offset, sample_channel, time_domain_operator
from .config import RandomSource, SystemConfig, constellation_for
from .detection import Geometry
from .mapping import (
    PreChirpAlphabet,
    bits_to_frame,
    bits_to_int,
    codeword_count,
    frame_bit_count,
    int_to_bits,
)
from .optimizer import (
    ObjectiveContext,
    _check_pair,
    _values_of,
    build_objective_context,
    reduced_objective,
)
from .simulate import TABLE_ALPHABETS, _bpsk
from .transceiver import add_cpp, build_daft, chirp_basis, modulate, remove_cpp


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


CHANNEL_SEED = 7
CHANNEL_DRAWS = 100
REDUCTION_SEED = 11
REDUCTION_TRIALS = 10


def orthogonality_suite() -> list[CheckResult]:
    """Cross-pattern subcarrier orthogonality of `chirp_basis` over the published
    alphabet values: the Gram matrix of the bases under every two values."""
    values = sorted({v for vals in TABLE_ALPHABETS.values() for v in vals})
    results = []
    for n in (4, 8, 16):
        c1 = (2 * 1 + 1) / (2 * n)
        bases = [chirp_basis(n, c1, v) for v in values]
        worst_off = 0.0
        worst_diag = 0.0
        for basis_a in bases:
            for basis_b in bases:
                gram = np.abs(basis_a @ basis_b.conj().T)
                off = gram - np.diag(np.diag(gram))
                worst_off = max(worst_off, float(np.max(off)))
                worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(gram) - 1.0))))
        results.append(
            CheckResult(
                name=f"orthogonality N={n}",
                passed=worst_off < 1e-10 and worst_diag < 1e-10,
                detail=f"max off-diagonal {worst_off:.2e}, max diag deviation {worst_diag:.2e}",
            )
        )
    return results


def closed_form_paths(cfg: SystemConfig, c2: np.ndarray, geometry: Geometry) -> np.ndarray:
    """The paper's closed-form unit-gain chirp-domain matrices H_p (P, N, N) of the
    paths at the (delay, Doppler) cells of geometry, under per-subcarrier pre-chirps
    c2 (N,): row n of H_p holds one unit-modulus entry, at column (n + path offset) mod N."""
    n = cfg.n_subcarriers
    row = np.arange(n)
    per_path = np.zeros((len(geometry), n, n), dtype=complex)
    for h_p, (d, a) in zip(per_path, geometry):
        d = int(d)
        col = (row + path_offset(cfg, d, int(a))) % n
        h_p[row, col] = np.exp(
            2j
            * np.pi
            * (c2[col] * col**2 - c2[row] * row**2 + cfg.post_chirp * d**2 - col * d / n)
        )
    return per_path


def channel_suite() -> list[CheckResult]:
    """The sample-level pipeline and the detector's CSI operator against the
    paper's closed form sum_p h_p H_p x, where each H_p has one unit-modulus
    entry per row (`closed_form_paths`).

    The sample-level route is `modulate`, `add_cpp`, `apply_channel_time`,
    `remove_cpp` and `build_daft`; the CSI operator is `time_domain_operator`.
    Both run on N = 8 and on N = 3: with odd N and the default post-chirp the
    prefix correction is -1 on the head rows, so a prefix fault shows.
    """
    cases = (  # (N, G, lambda, d_max, a_max) BPSK configs, paths per draw
        (_bpsk(8, 2, 4, 2, 2), 4),
        (_bpsk(3, 1, 3, 1, 1), 3),
    )
    rng = RandomSource(CHANNEL_SEED).generator()
    worst_sample = 0.0
    worst_operator = 0.0
    for cfg, p_paths in cases:
        alphabet = PreChirpAlphabet(TABLE_ALPHABETS[cfg.alphabet_size])
        b_total = frame_bit_count(cfg)
        for _ in range(CHANNEL_DRAWS):
            frame = bits_to_frame(rng.integers(0, 2, b_total), cfg, alphabet)
            ch = sample_channel(cfg, p_paths, rng)
            per_path = closed_form_paths(cfg, alphabet.array[frame.pcpg], ch.geometry)
            closed_form = np.tensordot(ch.gains, per_path, 1) @ frame.symbols
            a_mat = build_daft(cfg, alphabet, frame.pcpg)
            s = modulate(frame.symbols, cfg, alphabet, frame.pcpg)
            r = remove_cpp(apply_channel_time(add_cpp(s, cfg), ch, cfg, None, 0.0), cfg)
            worst_sample = max(worst_sample, float(np.max(np.abs(a_mat @ r - closed_form))))
            y = a_mat @ time_domain_operator(ch, cfg) @ s
            worst_operator = max(worst_operator, float(np.max(np.abs(y - closed_form))))
    return [
        CheckResult(
            name="channel against the closed form",
            passed=max(worst_sample, worst_operator) < 1e-9,
            detail=(
                f"max deviation from sum_p h_p H_p x: sample-level route {worst_sample:.2e}, "
                f"CSI operator {worst_operator:.2e} ({CHANNEL_DRAWS} draws each at N=8 and N=3)"
            ),
        )
    ]


def _all_symbol_vectors(cfg: SystemConfig) -> np.ndarray:
    """Every symbol vector (M^N, N), row x the one whose MSB-first labels are the
    N log2(M) bits of x."""
    n, k = cfg.n_subcarriers, cfg.bits_per_symbol
    bits = int_to_bits(np.arange(2 ** (n * k)), n * k).reshape(-1, n, k)
    return constellation_for(cfg)[bits_to_int(bits)]


def _pattern_phi(
    values: np.ndarray, pattern: np.ndarray, symbols: np.ndarray, geometry, cfg
) -> np.ndarray:
    """Codeword-channel columns (C, N, P) of symbol vectors under one pattern:
    entry [c, n, p] is (H_p x_c)[n] for the unit-gain path at geometry[p]."""
    rows = closed_form_paths(cfg, values[pattern], geometry).transpose(1, 0, 2)  # (N, P, N)
    # each row of H_p has one non-zero entry, so each sum adds only zeros to it
    return np.sum(rows[None] * symbols[:, None, None, :], axis=-1)


def _pair_phis(alphabet, ctx: ObjectiveContext, pair: tuple[int, int]):
    """Per placement, the codeword-channel columns of every symbol vector under
    the pair's patterns k and j, (phi_k, phi_j)."""
    j, k = _check_pair(ctx, pair)
    cfg = ctx.cfg
    codeword_count(cfg)  # rejects a codebook above MAX_CODEWORDS before any symbol is built
    vals = _values_of(alphabet)
    symbols = _all_symbol_vectors(cfg)
    return (
        tuple(_pattern_phi(vals, ctx.patterns[q], symbols, geometry, cfg) for q in (k, j))
        for geometry in ctx.placements
    )


def brute_objective(alphabet, ctx: ObjectiveContext, pair: tuple[int, int]) -> float:
    """Aggregate squared distance between the two patterns' codeword-channel
    matrices, summed over ALL ordered symbol-vector pairs and placements.

    Oracle-grade: builds the matrices explicitly and accumulates Frobenius
    norms row by row; no cancellation argument is used.
    """
    total = 0.0
    for phi_k, phi_j in _pair_phis(alphabet, ctx, pair):
        for idx in range(phi_k.shape[0]):
            delta = phi_k[idx][None, :, :] - phi_j
            total += float(np.sum(np.abs(delta) ** 2))
    return total


def brute_objective_equal_symbols(
    alphabet, ctx: ObjectiveContext, pair: tuple[int, int]
) -> float:
    """Same aggregate distance restricted to pairs sharing the symbol vector."""
    total = 0.0
    for phi_k, phi_j in _pair_phis(alphabet, ctx, pair):
        total += float(np.sum(np.abs(phi_k - phi_j) ** 2))
    return total


def reduction_suite() -> list[CheckResult]:
    """Exact relationships between the brute-force and reduced objectives.

    Write Phi_j(x) for the codeword-channel columns of symbol vector x under
    pattern j; entry (n, p) is x[c] e^{i theta_j}, with c the path's column
    for row n and |e^{i theta_j}| = 1.

    Equal-symbol pairs (`brute_objective_equal_symbols`): the pair (x, j)
    against (x, k) contributes, per placement, path and row,
    |x[c]|^2 |e^{i theta_k} - e^{i theta_j}|^2 = |x[c]|^2 * 2(1 - cos dtheta).
    Summed over all M^N symbol vectors, each column sees every point M^(N-1)
    times, so sum_x |x[c]|^2 = M^(N-1) * M * E|s|^2 = M^N for a unit-energy
    constellation. The brute sum is therefore exactly
    2 * M^N = 2^(N log2 M + 1) times the reduced objective, for each alphabet.
    (With 2 index bits in both configurations below this equals 2^(B-1),
    not 2^B.)

    All ordered pairs (`brute_objective`): sum_{x, x'} ||Phi_k(x) - Phi_j(x')||^2
    expands into sum ||Phi_k(x)||^2 + sum ||Phi_j(x')||^2 minus twice the real
    part of <sum_x Phi_k(x), sum_x' Phi_j(x')>. The norms do not depend on the
    alphabet (unit-modulus phases) and sum_x Phi(x) = 0 for a zero-mean
    constellation, so the sum is alphabet-independent and its differences
    vanish.
    """
    results = []
    for kind, order in (("PSK", 2), ("QAM", 4)):
        cfg = SystemConfig(
            n_subcarriers=4,
            n_groups=2,
            alphabet_size=2,
            constellation_order=order,
            constellation_kind=kind,
            max_delay=0,
            max_doppler=1,
            cpp_length=0,
        )
        ctx = build_objective_context(cfg, p_paths=2)
        scale = 2.0 ** (cfg.n_subcarriers * cfg.bits_per_symbol + 1)
        rng = RandomSource(REDUCTION_SEED).generator()
        worst_full = 0.0
        worst_scaled = 0.0
        for _ in range(REDUCTION_TRIALS):
            a1 = np.sort(rng.uniform(0.01, 0.99, 2))
            a2 = np.sort(rng.uniform(0.01, 0.99, 2))
            pair = ctx.pairs[int(rng.integers(len(ctx.pairs)))]
            full = brute_objective(a1, ctx, pair)
            worst_full = max(worst_full, abs(full - brute_objective(a2, ctx, pair)) / full)
            for alphabet in (a1, a2):
                brute = brute_objective_equal_symbols(alphabet, ctx, pair)
                want = scale * reduced_objective(alphabet, ctx, pair)
                worst_scaled = max(worst_scaled, abs(brute - want) / max(abs(want), 1e-300))
        results.append(
            CheckResult(
                name=f"full-sum cancellation ({kind}{order})",
                passed=worst_full < 1e-10,
                detail=(
                    "all-pair brute differences vanish "
                    f"(worst relative residual {worst_full:.2e})"
                ),
            )
        )
        results.append(
            CheckResult(
                name=f"equal-symbol scaling ({kind}{order})",
                passed=worst_scaled < 1e-10,
                detail=(
                    "matched-symbol brute = 2^(N log2 M + 1) * reduced per alphabet "
                    f"(worst relative error {worst_scaled:.2e})"
                ),
            )
        )
    return results


SUITES = {
    "orthogonality": orthogonality_suite,
    "channel": channel_suite,
    "reduction": reduction_suite,
}


def run_suites(which: str = "all") -> list[CheckResult]:
    if which == "all":
        out: list[CheckResult] = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if which not in SUITES:
        raise ValueError(f"unknown suite {which!r}; choices: all, {', '.join(SUITES)}")
    return SUITES[which]()
