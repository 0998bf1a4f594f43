"""Mutation check: each recorded fault, applied to a copy of ``src/``, must fail
the tests named beside it.

    python tests/mutants.py

Each mutant replaces one exact snippet of one source file. The script first
runs every named test on the unchanged sources, where they must pass. Then,
for each mutant, it copies ``src/`` to a temporary directory, applies the
replacement there and runs the mutant's tests against the copy. Every named
test must fail (a parametrized test counts when any of its cases fails). The
script exits 1 when a snippet does not occur exactly once, a named test
fails on the unchanged sources, or a mutant leaves a named test passing.

``EQUIVALENT`` lists mutants that change no output, so no test can kill
them, each with its reason. They are not run, but their snippets must still
match, so the list follows the code. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/afdm_pim
    snippet: str
    replacement: str
    tests: tuple[str, ...] = ()  # file::function ids that must each fail
    reason: str = ""  # why an equivalent mutant changes no output


MUTANTS = (
    Mutant(
        "prefix phase with the 2Nn term's sign flipped",
        "transceiver.py",
        "(n**2 + 2 * n * neg)",
        "(n**2 - 2 * n * neg)",
        (
            "tests/test_transceiver.py::test_cpp_phase_off_the_default_post_chirp",
            "tests/test_transceiver.py::test_prefixed_frame_is_the_synthesis_sum_at_negative_samples",
        ),
    ),
    Mutant(
        "rank tolerance 1,000x looser",
        "analysis.py",
        "RANK_TOLERANCE = 1e-9",
        "RANK_TOLERANCE = 1e-6",
        ("tests/test_analysis.py::test_rank_counts_eigenvalues_above_the_relative_tolerance",),
    ),
    Mutant(
        "shared-row tolerance 1,000x looser",
        "detection.py",
        "INJECTIVE_TOL = 1e-9",
        "INJECTIVE_TOL = 1e-6",
        ("tests/test_detection.py::test_shared_row_tolerance_lies_between_a_coarse_and_a_fine_gap",),
    ),
    Mutant(
        "pair scan drops the last codeword row",
        "analysis.py",
        "for i in range(len(phi) - 1):",
        "for i in range(len(phi) - 2):",
        (
            "tests/test_analysis.py::test_pair_scan_yields_every_pair_once_with_its_own_spectrum",
            "tests/test_analysis.py::test_abep_curve_matches_scalar_upep_route",
        ),
    ),
    Mutant(
        "bound's bit distance counted over B - 1 bits",
        "analysis.py",
        "codeword_table(cfg).sum(axis=1)",
        "codeword_table(cfg)[:, 1:].sum(axis=1)",
        (
            "tests/test_analysis.py::test_abep_curve_matches_scalar_upep_route",
            "tests/test_golden.py::test_seeded_csv_matches_golden",
        ),
    ),
    Mutant(
        "detector's quadratic forms without the conjugate",
        "detection.py",
        "values.conj()[:, :, None]",
        "values[:, :, None]",
        (
            "tests/test_detection.py::test_factor_forms_give_half_squared_norms",
            "tests/test_detection.py::test_detect_matches_exhaustive_operator_search",
        ),
    ),
    Mutant(
        "diversity scan one column short of each support",
        "analysis.py",
        "_pair_spectra(phi[..., support])",
        "_pair_spectra(phi[..., support[:-1]])",
        (
            "tests/test_analysis.py::test_diversity_scan_reads_the_supports_of_its_path_count",
            "tests/test_golden.py::test_diversity_report_matches_golden",
        ),
    ),
    Mutant(
        "reduction suite's symbol vectors read from every codeword",
        "suites.py",
        "one = replace(cfg, alphabet_size=1)",
        "one = cfg",
        ("tests/test_acceptance.py::test_08_objective_reduction_scaling",),
    ),
    Mutant(
        "SystemConfig also accepts lambda = N/G - 1",
        "config.py",
        "if self.alphabet_size not in (1, n // g):",
        "if self.alphabet_size not in (1, n // g - 1, n // g):",
        ("tests/test_config.py::test_alphabet_size_other_than_one_or_the_group_size_is_refused",),
    ),
    Mutant(
        "pattern table one row short",
        "mapping.py",
        "islice(permutations(sorted_assignment), 2**b2)",
        "islice(permutations(sorted_assignment), 2**b2 - 1)",
        ("tests/test_mapping.py::test_pattern_table_rows_are_the_first_permutations_in_order",),
    ),
    Mutant(
        "constellation points left writable",
        "config.py",
        "points.flags.writeable = False",
        "points.flags.writeable = True",
        ("tests/test_detection.py::test_every_shared_table_is_read_only",),
    ),
    Mutant(
        "prefix phase without its N^2 term",
        "transceiver.py",
        "(n**2 + 2 * n * neg)",
        "(2 * n * neg)",
        (
            "tests/test_transceiver.py::test_prefixed_frame_is_the_synthesis_sum_at_negative_samples",
            "tests/test_channel.py::test_time_domain_operator_equals_sample_route",
        ),
    ),
    Mutant(
        "Doppler phase referenced to the first prefix sample",
        "channel.py",
        "time_rel = np.arange(total) - cfg.cpp_length",
        "time_rel = np.arange(total)",
        (
            "tests/test_channel.py::test_time_domain_operator_equals_sample_route",
            "tests/test_acceptance.py::test_03_dual_channel_construction",
        ),
    ),
    Mutant(
        "every path takes path 0's Doppler ramp",
        "channel.py",
        "(dopplers[:, :, None] / n)",
        "(dopplers[:, :1, None] / n)",
        (
            "tests/test_channel.py::test_time_domain_operator_equals_sample_route",
            "tests/test_channel.py::test_operator_is_the_gain_weighted_sum_of_its_unit_path_operators",
            "tests/test_simulate.py::test_batch_channel_matches_time_domain_operator",
        ),
    ),
    Mutant(
        "every path takes path 0's gain",
        "channel.py",
        "gains[:, :, None] * shifted",
        "gains[:, :1, None] * shifted",
        (
            "tests/test_channel.py::test_time_domain_operator_equals_sample_route",
            "tests/test_channel.py::test_operator_is_the_gain_weighted_sum_of_its_unit_path_operators",
            "tests/test_simulate.py::test_batch_channel_matches_time_domain_operator",
        ),
    ),
    Mutant(
        "every path takes path 0's delay",
        "channel.py",
        "lead[:, :, None]",
        "lead[:, :1, None]",
        (
            "tests/test_channel.py::test_time_domain_operator_equals_sample_route",
            "tests/test_channel.py::test_operator_is_the_gain_weighted_sum_of_its_unit_path_operators",
            "tests/test_simulate.py::test_batch_channel_matches_time_domain_operator",
        ),
    ),
    Mutant(
        "detector's winner index divided by C_h",
        "detection.py",
        "i, j = divmod(best, metrics.shape[1])",
        "i, j = divmod(best, metrics.shape[0])",
        ("tests/test_detection.py::test_detect_matches_exhaustive_operator_search",),
    ),
    Mutant(
        "detector's homogeneous weights of alpha and beta swapped",
        "detection.py",
        "[tail.view(float).T, np.ones((1, len(tail))), np.zeros((1, len(tail)))]",
        "[tail.view(float).T, np.zeros((1, len(tail))), np.ones((1, len(tail)))]",
        (
            "tests/test_detection.py::test_noiseless_exhaustive_recovery",
            "tests/test_detection.py::test_detect_matches_exhaustive_operator_search",
        ),
    ),
    Mutant(
        "detector's head of floor(F/2) factors",
        "detection.py",
        "head_factors = (n_factors + 1) // 2",
        "head_factors = n_factors // 2",
        ("tests/test_detection.py::test_factor_parts_sum_to_codeword_frames_in_payload_order",),
    ),
    Mutant(
        "diversity scans the full support beyond capacity",
        "analysis.py",
        "size = p_paths if p_paths <= len(cells) else 1",
        "size = min(p_paths, len(cells))",
        (
            "tests/test_analysis.py::test_diversity_beyond_capacity_is_the_minimum_over_every_support",
            "tests/test_golden.py::test_diversity_report_matches_golden",
        ),
    ),
    Mutant(
        "pattern table built before the pattern-pair count",
        "optimizer.py",
        "    n_patterns = (2 ** index_bits_per_group(lam, n_c)) ** cfg.n_groups\n",
        "    group_patterns = group_pattern_codebook(lam, n_c)\n"
        "    n_patterns = (2 ** index_bits_per_group(lam, n_c)) ** cfg.n_groups\n",
        ("tests/test_optimizer.py::test_context_refuses_too_many_pattern_pairs_before_allocating",),
    ),
    Mutant(
        "bound's bit distance read at arange(i, C) ^ i",
        "analysis.py",
        "tau = ones[np.arange(i + 1, len(ones)) ^ i]",
        "tau = ones[np.arange(i, len(ones)) ^ i]",
        (
            "tests/test_analysis.py::test_abep_curve_matches_scalar_upep_route",
            "tests/test_analysis.py::test_abep_monotone_and_clipped",
        ),
    ),
    Mutant(
        "int_to_bits rows LSB first",
        "mapping.py",
        "return np.ascontiguousarray(bits).view(np.int8)",
        "return np.ascontiguousarray(bits[..., ::-1]).view(np.int8)",
        (
            "tests/test_mapping.py::test_bit_conversions_invert_each_other_on_arrays",
            "tests/test_mapping.py::test_pattern_codebook_matches_published_table",
        ),
    ),
    Mutant(
        "collision table without the group offset",
        "optimizer.py",
        "offsets = cfg.group_size * np.arange(cfg.n_groups)[:, None, None]",
        "offsets = 0 * np.arange(cfg.n_groups)[:, None, None]",
        (
            "tests/test_optimizer.py::test_pso_seed_42_alphabets_are_pinned",
            "tests/test_properties.py::test_collision_terms_match_the_per_pair_loop",
        ),
    ),
)

EQUIVALENT = (
    Mutant(
        "no clip of negative Gram eigenvalues",
        "analysis.py",
        "eigs = np.clip(np.linalg.eigvalsh(psi), 0.0, None)",
        "eigs = np.linalg.eigvalsh(psi)",
        reason="the mask that follows zeroes every eigenvalue at or below "
        "RANK_TOLERANCE times the largest, the negative ones included",
    ),
    Mutant(
        "swarm's feasible box closed at 0 and 1",
        "optimizer.py",
        "feasible = (canon[:, 0] > 0.0) & (canon[:, -1] < 1.0)",
        "feasible = (canon[:, 0] >= 0.0) & (canon[:, -1] <= 1.0)",
        reason="a continuous swarm lands exactly on 0 or 1 with probability zero",
    ),
)


def run_tests(src: Path, tests: tuple[str, ...]) -> tuple[int, set[str], str]:
    """Run tests against the package under src: (status, failed ids, output)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = {
        line.split()[1].split("[")[0]
        for line in proc.stdout.splitlines()
        if line.startswith("FAILED ")
    }
    return proc.returncode, failed, proc.stdout + proc.stderr


def snippet_errors() -> list[str]:
    errors = []
    for mutant in MUTANTS + EQUIVALENT:
        count = (ROOT / "src" / "afdm_pim" / mutant.path).read_text().count(mutant.snippet)
        if count != 1:
            errors.append(f"{mutant.name}: snippet occurs {count} times in {mutant.path}")
    return errors


def main() -> int:
    errors = snippet_errors()
    if errors:
        print("\n".join(errors))
        return 1
    named = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    status, failed, output = run_tests(ROOT / "src", named)
    if status != 0:
        print(output)
        print(f"the named tests must pass on the unchanged sources: {sorted(failed)}")
        return 1
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            target = src / "afdm_pim" / mutant.path
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
            _, failed, output = run_tests(src, mutant.tests)
        passing = [test for test in mutant.tests if test not in failed]
        verdict = "SURVIVED" if passing else "killed"
        print(f"{verdict:8} {mutant.name} ({time.perf_counter() - start:.1f} s)")
        if passing:
            survivors += 1
            print(output)
            print(f"         still passing: {passing}")
    for mutant in EQUIVALENT:
        print(f"{'equiv':8} {mutant.name}: {mutant.reason}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
