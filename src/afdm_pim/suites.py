"""Self-contained numeric invariant suites behind the `validate` subcommand."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    apply_channel_time,
    build_effective_analytic,
    build_effective_matrix,
    sample_channel,
)
from .config import RandomSource, SystemConfig
from .mapping import PreChirpAlphabet, bits_to_frame, frame_bit_count
from .optimizer import (
    brute_objective,
    brute_objective_equal_symbols,
    build_objective_context,
    reduced_objective,
)
from .simulate import TABLE_ALPHABETS
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


def channel_suite() -> list[CheckResult]:
    """Analytic vs operator channel construction, and the sample-level pipeline."""
    cfg = SystemConfig(
        n_subcarriers=8,
        n_groups=2,
        alphabet_size=4,
        constellation_order=2,
        constellation_kind="PSK",
        max_delay=2,
        max_doppler=2,
        cpp_length=2,
    )
    alphabet = PreChirpAlphabet(TABLE_ALPHABETS[4])
    b_total = frame_bit_count(cfg)
    rng = RandomSource(CHANNEL_SEED).generator()
    worst_matrix = 0.0
    worst_pipeline = 0.0
    for _ in range(CHANNEL_DRAWS):
        frame = bits_to_frame(rng.integers(0, 2, b_total), cfg, alphabet)
        ch = sample_channel(cfg, 4, rng)
        analytic = build_effective_analytic(ch, cfg, alphabet, frame.pcpg)
        operator = build_effective_matrix(ch, cfg, alphabet, frame.pcpg)
        worst_matrix = max(
            worst_matrix, float(np.max(np.abs(analytic.matrix - operator.matrix)))
        )
        s = modulate(frame.symbols, cfg, alphabet, frame.pcpg)
        r = remove_cpp(
            apply_channel_time(add_cpp(s, cfg), ch, cfg, None, 0.0), cfg
        )
        y = build_daft(cfg, alphabet, frame.pcpg) @ r
        worst_pipeline = max(
            worst_pipeline,
            float(np.max(np.abs(y - operator.matrix @ frame.symbols))),
        )
    return [
        CheckResult(
            name="dual channel construction",
            passed=worst_matrix < 1e-9,
            detail=f"max entry deviation {worst_matrix:.2e} over {CHANNEL_DRAWS} draws",
        ),
        CheckResult(
            name="sample-level pipeline",
            passed=worst_pipeline < 1e-9,
            detail=f"max deviation from H_eff x: {worst_pipeline:.2e}",
        ),
    ]


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
