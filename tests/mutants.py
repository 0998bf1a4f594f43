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
        "int_to_bits(np.arange(2**b_total), b_total)",
        "int_to_bits(np.arange(2**b_total), b_total - 1)",
        (
            "tests/test_analysis.py::test_abep_curve_matches_scalar_upep_route",
            "tests/test_golden.py::test_seeded_csv_matches_golden",
        ),
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
