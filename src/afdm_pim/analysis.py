"""Pairwise error probabilities, union bounds, diversity order, spectral efficiency."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np

from .channel import delay_doppler_cells
from .config import SystemConfig
from .detection import path_image_tensor
from .mapping import (
    EnumerationCapExceeded,
    PreChirpAlphabet,
    codeword_count,
    codeword_table,
    frame_bit_count,
    index_bits_per_group,
)

RANK_TOLERANCE = 1e-9

# the largest pair scan in codeword pairs times supports: some 30 min at 1.6 us a term
MAX_PAIR_TERMS = 2**30

# (support cells, multiplicities, probability) of each reachable path multiset
GeometryLaw = list[tuple[tuple[tuple[int, int], ...], tuple[int, ...], float]]


def _masked_eigs(psi: np.ndarray) -> np.ndarray:
    """Batched Gram eigenvalues with those at or below RANK_TOLERANCE times the
    largest zeroed; the one relative-tolerance rule for rank and UPEP alike."""
    eigs = np.clip(np.linalg.eigvalsh(psi), 0.0, None)
    top = eigs[..., -1:]
    return np.where(eigs > RANK_TOLERANCE * top, eigs, 0.0)


@dataclass(frozen=True, eq=False)
class PairwiseDifference:
    """Difference of two codeword-channel matrices and its Gram spectrum."""

    delta_phi: np.ndarray  # (N, P)
    psi: np.ndarray  # (P, P) Hermitian PSD
    eigenvalues: np.ndarray  # (P,) non-negative, ascending, sub-tolerance ones zeroed
    rank: int


def pairwise_difference(phi_a: np.ndarray, phi_b: np.ndarray) -> PairwiseDifference:
    """Spectrum of (phi_b - phi_a); rank counts eigenvalues above the relative tolerance."""
    delta = np.asarray(phi_b, dtype=complex) - np.asarray(phi_a, dtype=complex)
    psi = delta.conj().T @ delta
    eig = _masked_eigs(psi)
    rank = int(np.count_nonzero(eig))
    return PairwiseDifference(delta_phi=delta, psi=psi, eigenvalues=eig, rank=rank)


def upep(pair: PairwiseDifference, p_paths: int, n0: float) -> float:
    """Unconditional pairwise error probability from the Gram eigenvalues.

    Uses the two-exponential tail approximation; identical codewords (rank 0)
    give the zero-distance value 1/3.
    """
    eigs = pair.eigenvalues[pair.eigenvalues > 0.0]
    if n0 == 0.0:
        return 1.0 / 3.0 if eigs.size == 0 else 0.0
    t1 = np.prod(1.0 / (1.0 + eigs / (4 * p_paths * n0)))
    t2 = np.prod(1.0 / (1.0 + eigs / (3 * p_paths * n0)))
    return float(t1 / 12.0 + t2 / 4.0)


def _check_scan_size(cfg: SystemConfig, supports: int, escape: str = "") -> None:
    """Refuse (`EnumerationCapExceeded`) a scan of every codeword pair on each of
    `supports` supports above `MAX_PAIR_TERMS` terms; `MAX_CODEWORDS` goes first."""
    count = codeword_count(cfg)
    pairs = count * (count - 1) // 2
    if pairs * supports > MAX_PAIR_TERMS:
        raise EnumerationCapExceeded(
            f"{pairs:,} codeword pairs x {supports:,} supports = {pairs * supports:,} "
            f"pair-support terms exceed the scan limit {MAX_PAIR_TERMS:,}{escape}"
        )


def _pair_spectra(phi: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Masked Gram eigenvalues of every unordered codeword pair of an image
    tensor phi (C, N, P), such as `path_image_tensor` on one support.

    Yields (i, eigs) per codeword row i, eigs (C - 1 - i, P) being the spectra
    of phi[j] - phi[i] for j > i.
    """
    for i in range(len(phi) - 1):
        diff = phi[i + 1 :] - phi[i]
        psi = np.einsum("bnp,bnq->bpq", diff.conj(), diff)
        yield i, _masked_eigs(psi)


# --- bound matched to the sampled channel law ------------------------------


def jakes_doppler_pmf(max_doppler: int) -> dict[int, float]:
    """Distribution of floor(a_max * cos(theta)) for theta uniform on [-pi, pi]."""
    if max_doppler == 0:
        return {0: 1.0}
    pmf: dict[int, float] = {}
    for k in range(-max_doppler, max_doppler + 1):
        lo = np.clip(k / max_doppler, -1.0, 1.0)
        hi = np.clip((k + 1) / max_doppler, -1.0, 1.0)
        p = (math.acos(lo) - math.acos(hi)) / math.pi
        if p > 0.0:
            pmf[k] = p
    return pmf


def jakes_cell_pmf(cfg: SystemConfig) -> dict[tuple[int, int], float]:
    """Per-path probability of each (delay, Doppler) cell under the channel law."""
    doppler = jakes_doppler_pmf(cfg.max_doppler)
    p_delay = 1.0 / (cfg.max_delay + 1)
    return {
        (d, a): p_delay * p
        for d in range(cfg.max_delay + 1)
        for a, p in doppler.items()
    }


def jakes_geometry_mixture(cfg: SystemConfig, p_paths: int) -> GeometryLaw:
    """All reachable path multisets with their probabilities.

    Returns (support cells, multiplicities, weight) triples; paths falling in
    the same cell are merged, so the support lists distinct cells only.
    """
    pmf = jakes_cell_pmf(cfg)
    cells = sorted(pmf)
    out = []
    for combo in combinations_with_replacement(cells, p_paths):
        support = tuple(dict.fromkeys(combo))
        mult = tuple(combo.count(c) for c in support)
        weight = math.factorial(p_paths)
        for c, m in zip(support, mult):
            weight *= pmf[c] ** m / math.factorial(m)
        out.append((support, mult, weight))
    return out


def bound_supports(cfg: SystemConfig, p_paths: int) -> GeometryLaw:
    """The `jakes_geometry_mixture` that the bound scans. Its C(K+P-1, P)
    multisets of the K reachable cells are counted first, and
    `EnumerationCapExceeded` is raised before any is built when that scan
    would exceed `MAX_PAIR_TERMS`."""
    reachable = len(jakes_cell_pmf(cfg))
    _check_scan_size(
        cfg,
        math.comb(reachable + p_paths - 1, p_paths),
        "; include_theory = false skips simulate's theory rows",
    )
    return jakes_geometry_mixture(cfg, p_paths)


def abep_curve_jakes(
    cfg: SystemConfig,
    alphabet: PreChirpAlphabet,
    p_paths: int,
    n0_values: Sequence[float],
) -> np.ndarray:
    """Union-bound ABEP averaged over the sampled channel's own geometry law.

    Each reachable support adds its probability times the sum over ordered
    codeword pairs of UPEP * bit errors. Coincident paths merge into one column
    whose gain variance, the cell multiplicity over P, is absorbed into the Gram
    spectrum, exactly as their independent gains add in the simulated channel.
    This is the curve comparable to Monte-Carlo BER.
    """
    n0 = np.asarray(n0_values, dtype=float)
    if np.any(n0 <= 0):
        raise ValueError("noise variances must be positive")
    b_total = frame_bit_count(cfg)
    acc = np.zeros(n0.shape, dtype=float)
    supports = bound_supports(cfg, p_paths)  # refuses an oversized codebook first
    # bit distance of pair (i, j): the set bits of i ^ j, the payload row of i ^ j
    ones = codeword_table(cfg).sum(axis=1)
    for support, mult, weight in supports:
        scale = np.sqrt(np.asarray(mult, dtype=float) / p_paths)
        pair_sum = np.zeros(n0.shape, dtype=float)
        for i, eigs in _pair_spectra(path_image_tensor(cfg, alphabet, support) * scale):
            tau = ones[np.arange(i + 1, len(ones)) ^ i]
            ratio = eigs[None, :, :] / n0[:, None, None]
            t1 = np.prod(1.0 / (1.0 + ratio / 4.0), axis=2)
            t2 = np.prod(1.0 / (1.0 + ratio / 3.0), axis=2)
            pair_sum += 2.0 * (t1 / 12.0 + t2 / 4.0) @ tau  # both orderings of each pair
        acc += weight * pair_sum
    bound = acc / (b_total * 2.0**b_total)
    return np.clip(bound, 0.0, 1.0)


def diversity_order(cfg: SystemConfig, alphabet: PreChirpAlphabet, p_paths: int) -> int:
    """Minimum rank of the codeword-image difference over all codeword pairs and
    the placements of p_paths on the delay-Doppler grid.

    Within the grid capacity the supports are the C(capacity, P) placements on
    distinct cells. With more paths than cells every placement shares a cell,
    and paths on one cell add into one column, so a placement's rank is at least
    its rank on any one of its cells, which P paths on that cell alone attain:
    the supports are then the single cells. Their count is checked against
    `MAX_PAIR_TERMS` before the images are built, once over every cell: each
    support is a set of their columns.
    """
    if p_paths < 1:
        raise ValueError("the empty placement () holds no path")
    cells = delay_doppler_cells(cfg)
    size = p_paths if p_paths <= len(cells) else 1
    _check_scan_size(cfg, math.comb(len(cells), size))
    phi = path_image_tensor(cfg, alphabet, cells)
    best = size  # no support's rank exceeds its size
    for support in combinations(range(len(cells)), size):
        for _, eigs in _pair_spectra(phi[..., support]):
            best = min(best, int(np.count_nonzero(eigs, axis=1).min()))
            if best == 0:
                return 0
    return best


def spectral_efficiency(
    scheme: str, m: int, n_c: int | None = None, a: int | None = None
) -> float:
    """Bits/s/Hz of the plain chirp waveform, its subcarrier-activation variant,
    or the pre-chirp index variant.

    scheme: 'afdm' needs m; 'afdm_im' needs (n_c, a, m); 'afdm_pim' needs (n_c, m).
    """
    key = scheme.strip().lower().replace("-", "_")
    bits = math.log2(m)
    if key == "afdm":
        return bits
    if key == "afdm_im":
        if n_c is None or a is None:
            raise ValueError("afdm_im needs n_c and a")
        return (math.floor(math.log2(math.comb(n_c, a))) + a * bits) / n_c
    if key == "afdm_pim":
        if n_c is None:
            raise ValueError("afdm_pim needs n_c")
        return index_bits_per_group(n_c, n_c) / n_c + bits
    raise ValueError(f"unknown scheme {scheme!r}")
