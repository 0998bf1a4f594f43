"""Seeded CSVs of short sweeps, compared byte for byte with tests/golden/,
and seeded swarm designs, compared byte for byte with tests/golden/pso/.

Each sweep case is a preset with a small bit budget, so a detector, channel
or bound rewrite that moves one ML decision or one theory digit fails here.
`fig8_hi_post_chirp_0.17` is the only case with an off-grid post-chirp, so
the only one whose prefix correction is not identically 1. The two `fig7_*`
cases of examples/ are the like-for-like pair: classical AFDM and AFDM-PIM on
the fig7_pim channel, each config file at a small bit budget. The two `n4_*`
cases are the same pair at N = 4 on the fig8_lo channel, theory rows included.

Each swarm case stores the designed alphabet's repr and the convergence log,
so an optimizer rewrite that moves one swarm decision fails here.

Each diversity case stores the stdout of `analyze --diversity` in
tests/golden/diversity/, for two presets, for a configuration file with
more paths than delay-Doppler cells and for the N = 4 pair of examples/.

An intended change to a golden file needs a reason in CHANGES.md. To rewrite
the files from the current source:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from afdm_pim.cli import main
from afdm_pim.config import RandomSource, read_config_file
from afdm_pim.mapping import frame_bit_count
from afdm_pim.optimizer import (
    PsoParams,
    build_objective_context,
    pso_optimize,
    write_convergence_csv,
)
from afdm_pim.simulate import (
    PRESETS,
    make_preset,
    run_scenario,
    scenario_from_sections,
    write_csv,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
PSO_DIR = GOLDEN_DIR / "pso"
DIVERSITY_DIR = GOLDEN_DIR / "diversity"
EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

_SHORT_GRID = (5.0, 10.0, 15.0)


def _case(preset, seed, frames, theory=False, grid=None, post_chirp=None):
    base = make_preset(preset, seed)
    cfg = base.cfg if post_chirp is None else replace(base.cfg, post_chirp=post_chirp)
    return replace(
        base,
        cfg=cfg,
        snr_grid_db=grid or base.snr_grid_db,
        # the preset's error target still stops a point; the bit budget is cut
        min_bits=frames * frame_bit_count(cfg),
        include_theory=theory,
    )


def _example(stem, seed, frames):
    base = scenario_from_sections(read_config_file(str(EXAMPLES_DIR / f"{stem}.cfg")), name=stem)
    return replace(base, seed=seed, min_bits=frames * frame_bit_count(base.cfg))


# file stem -> scenario; theory rows do not depend on the seed, so only the
# seed-1 fig8 cases carry them (fig4's bound takes about 20 s and is left out)
CASES = {
    "fig8_lo_seed1": lambda: _case("fig8_lo", 1, 1000, theory=True),
    "fig8_lo_seed7": lambda: _case("fig8_lo", 7, 1000),
    "fig8_hi_seed1": lambda: _case("fig8_hi", 1, 1000, theory=True),
    "fig8_hi_seed7": lambda: _case("fig8_hi", 7, 1000),
    "fig4_seed1": lambda: _case("fig4", 1, 1000),
    "fig4_seed7": lambda: _case("fig4", 7, 1000),
    "fig7_pim_seed7": lambda: _case("fig7_pim", 7, 64, grid=_SHORT_GRID),
    "baseline_afdm_seed7": lambda: _case("baseline_afdm", 7, 64, grid=_SHORT_GRID),
    "fig8_hi_post_chirp_0.17": lambda: _case("fig8_hi", 1, 1000, theory=True, post_chirp=0.17),
    "fig7_classical_afdm_seed7": lambda: _example("fig7_classical_afdm", 7, 2500),
    "fig7_pim_short_seed7": lambda: _example("fig7_pim_short", 7, 2500),
    "n4_classical_afdm_seed7": lambda: _example("n4_classical_afdm", 7, 5000),
    "n4_pim_seed7": lambda: _example("n4_pim", 7, 5000),
}


def golden_csv(stem: str) -> str:
    scenario = CASES[stem]()
    buf = io.StringIO()
    write_csv(run_scenario(scenario), scenario.name, scenario.seed, buf)
    return buf.getvalue()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_seeded_csv_matches_golden(stem):
    expected = (GOLDEN_DIR / f"{stem}.csv").read_text(encoding="utf-8")
    assert golden_csv(stem) == expected


# file stem -> (preset, swarm parameters); every swarm draws from seed 42
SWARMS = {
    "fig4_200x300_seed42": ("fig4", PsoParams()),
    "fig7_4x1_seed42": ("fig7_pim", PsoParams(n_particles=4, max_iterations=1)),
    "fig7_200x300_seed42": ("fig7_pim", PsoParams()),
}


def golden_swarm(stem: str) -> str:
    """The designed alphabet's repr on the first line, then the convergence log."""
    preset, params = SWARMS[stem]
    scenario = make_preset(preset)
    ctx = build_objective_context(scenario.cfg, scenario.p_paths)
    result = pso_optimize(scenario.cfg, ctx, params, RandomSource(42).generator())
    buf = io.StringIO()
    buf.write(f"{result.alphabet!r}\n")
    write_convergence_csv(result.history, buf)
    return buf.getvalue()


@pytest.mark.parametrize("stem", sorted(SWARMS))
def test_seeded_swarm_matches_golden(stem):
    expected = (PSO_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    assert golden_swarm(stem) == expected


# file stem -> `analyze --diversity` input: a preset name, or the text of a
# configuration file: 4 paths over the 3 cells of d_max = 0, a_max = 1, or
# an examples/ file
DIVERSITY = {
    "fig8_lo": "fig8_lo",
    "fig8_hi": "fig8_hi",
    "paths4_over_3_cells": (
        "[system]\nn_subcarriers = 4\nn_groups = 2\nalphabet_size = 2\nmax_doppler = 1\n"
        "\n[channel]\npaths = 4\n"
    ),
    **{
        stem: (EXAMPLES_DIR / f"{stem}.cfg").read_text(encoding="utf-8")
        for stem in ("n4_pim", "n4_classical_afdm")
    },
}


def golden_diversity(stem: str) -> str:
    """The stdout of `analyze --diversity` on the case's preset or configuration file."""
    source = DIVERSITY[stem]
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if source not in PRESETS:
            path = Path(tmp) / f"{stem}.cfg"
            path.write_text(source, encoding="utf-8")
            source = str(path)
        with redirect_stdout(buf):
            status = main(["analyze", source, "--diversity"])
    if status != 0:
        raise RuntimeError(f"analyze --diversity exited {status} on {stem}")
    return buf.getvalue()


@pytest.mark.parametrize("stem", sorted(DIVERSITY))
def test_diversity_report_matches_golden(stem):
    expected = (DIVERSITY_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    assert golden_diversity(stem) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(CASES)
    assert sorted(p.stem for p in PSO_DIR.glob("*.txt")) == sorted(SWARMS)
    assert sorted(p.stem for p in DIVERSITY_DIR.glob("*.txt")) == sorted(DIVERSITY)


if __name__ == "__main__":
    PSO_DIR.mkdir(parents=True, exist_ok=True)
    for stem in sorted(CASES):
        (GOLDEN_DIR / f"{stem}.csv").write_text(golden_csv(stem), encoding="utf-8")
        print(f"wrote {stem}.csv")
    for stem in sorted(SWARMS):
        (PSO_DIR / f"{stem}.txt").write_text(golden_swarm(stem), encoding="utf-8")
        print(f"wrote pso/{stem}.txt")
    DIVERSITY_DIR.mkdir(parents=True, exist_ok=True)
    for stem in sorted(DIVERSITY):
        (DIVERSITY_DIR / f"{stem}.txt").write_text(golden_diversity(stem), encoding="utf-8")
        print(f"wrote diversity/{stem}.txt")
