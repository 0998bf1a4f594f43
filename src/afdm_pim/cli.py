"""Command-line entry point: simulate, optimize, analyze, validate."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .analysis import diversity_order, spectral_efficiency
from .config import SECTION_KEYS, RandomSource, read_config_file, read_items, read_section
from .mapping import save_alphabet
from .optimizer import (
    PsoParams,
    build_objective_context,
    pso_optimize,
    write_convergence_csv,
)
from .simulate import (
    PRESETS,
    Scenario,
    SweepInterrupted,
    run_scenario,
    scenario_from_sections,
    theory_points,
    write_csv,
)
from .suites import SUITES, run_suites

_ENV_KEYS = {"SIM_SEED": ("seed", int)}


def _load_inputs(config_arg: str, seed_flag: int | None) -> tuple[Scenario, PsoParams]:
    """The scenario of a preset name or a config file, and the swarm tuning of
    the file's [pso] section (the published tuning for a preset).

    The seed is the flag's, then SIM_SEED's, then the file's, then 1.
    """
    if config_arg in PRESETS:
        scenario, params = PRESETS[config_arg], PsoParams()
    else:
        sections = read_config_file(config_arg)
        scenario = scenario_from_sections(sections, name=os.path.basename(config_arg))
        params = PsoParams(**read_section(sections.get("pso", {}), "pso"))
    env = os.environ.get("SIM_SEED")
    if seed_flag is None and env is not None:
        seed_flag = read_items({"SIM_SEED": env}, _ENV_KEYS, "environment variable")["seed"]
    if seed_flag is not None:
        scenario = replace(scenario, seed=seed_flag)
    return scenario, params


def _load_scenario(config_arg: str, seed_flag: int | None) -> Scenario:
    return _load_inputs(config_arg, seed_flag)[0]


def _write_points(points, scenario, path: str | None) -> None:
    """CSV rows to the file at path, or to stdout when path is None or '-'."""
    if path is None or path == "-":
        write_csv(points, scenario.name, scenario.seed, sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as out:
        write_csv(points, scenario.name, scenario.seed, out)


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.config, args.seed)
    try:
        points = run_scenario(scenario)
    except SweepInterrupted as stop:
        _write_points(stop.points, scenario, args.out)
        print(
            f"interrupted: wrote {len(stop.points)} of {len(scenario.snr_grid_db)} "
            "simulation points (the last may be partial) and no theory rows",
            file=sys.stderr,
        )
        return 130
    _write_points(points, scenario, args.out)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    scenario, params = _load_inputs(args.config, args.seed)
    if args.pso_params:
        tokens = (token.partition("=") for token in args.pso_params.split(","))
        overrides = {key.strip(): raw for key, _, raw in tokens}
        params = replace(params, **read_items(overrides, SECTION_KEYS["pso"], "pso parameter"))
    ctx = build_objective_context(scenario.cfg, scenario.p_paths)
    result = pso_optimize(scenario.cfg, ctx, params, RandomSource(scenario.seed).generator())
    if args.out:
        save_alphabet(result.alphabet, args.out)
        print(f"alphabet -> {args.out}  (fitness {result.fitness:.12g})")
    else:
        for v in result.alphabet.values:
            print(f"{v:.12g}")
    log_path = args.log or (args.out and args.out + ".convergence.csv")
    if log_path:
        with open(log_path, "w", encoding="utf-8") as fh:
            write_convergence_csv(result.history, fh)
        if args.out:
            print(f"convergence -> {log_path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.config, args.seed)
    cfg = scenario.cfg
    if args.se:
        n_c, m = cfg.group_size, cfg.constellation_order
        a = max(1, n_c - 1)
        print(f"afdm      (M={m}): {spectral_efficiency('afdm', m):.6g} bit/s/Hz")
        print(
            f"afdm_im   (n_c={n_c}, a={a}, M={m}): "
            f"{spectral_efficiency('afdm_im', m, n_c=n_c, a=a):.6g} bit/s/Hz"
        )
        print(
            f"afdm_pim  (n_c={n_c}, M={m}): "
            f"{spectral_efficiency('afdm_pim', m, n_c=n_c):.6g} bit/s/Hz"
        )
        return 0
    if args.diversity:
        p_paths, capacity = scenario.p_paths, cfg.placement_capacity
        mu = diversity_order(cfg, scenario.alphabet, p_paths)
        print(f"paths P = {p_paths}")
        print(f"placement capacity (d_max+1)(2*a_max+1) = {capacity}")
        print(f"P <= capacity: {p_paths <= capacity}")
        print(f"capacity <= N: {capacity <= cfg.n_subcarriers}")
        print(f"condition 1 satisfied: {p_paths <= capacity <= cfg.n_subcarriers}")
        print(
            "condition 2: assumed: floating point cannot certify that the "
            "pre-chirp values are irrational"
        )
        print(f"diversity order mu = {mu} (full would be {p_paths})")
        return 0
    # default: the union-bound curve matched to the sampled channel law
    if all(math.isinf(s) for s in scenario.snr_grid_db):
        raise ValueError(
            f"the SNR grid {list(scenario.snr_grid_db)} has no finite point for the bound"
        )
    _write_points(theory_points(scenario), scenario, args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = run_suites(args.suite)
    passed = sum(1 for r in results if r.passed)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afdm-pim",
        description=(
            "Pre-chirp index modulation on chirp subcarriers: BER simulation, "
            "error bounds, and alphabet design"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a BER sweep and emit CSV")
    p_sim.add_argument("config", help=f"config file path or preset name {sorted(PRESETS)}")
    p_sim.add_argument("--seed", type=int, default=None, help="override the seed (env SIM_SEED)")
    p_sim.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_opt = sub.add_parser("optimize", help="design a pre-chirp alphabet with PSO")
    p_opt.add_argument("config", help=f"config file path or preset name {sorted(PRESETS)}")
    p_opt.add_argument("--pso-params", default=None, help="overrides, e.g. particles=50,iterations=100")
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.add_argument("--out", default=None, help="alphabet file path (default stdout)")
    p_opt.add_argument("--log", default=None, help="convergence CSV path")
    p_opt.set_defaults(func=_cmd_optimize)

    p_ana = sub.add_parser("analyze", help="theory bound, diversity order, or SE")
    p_ana.add_argument("config", help="config file path or preset name")
    group = p_ana.add_mutually_exclusive_group()
    group.add_argument("--bound", action="store_true", help="union-bound BER curve (default)")
    group.add_argument("--diversity", action="store_true", help="exhaustive diversity-order scan")
    group.add_argument("--se", action="store_true", help="spectral efficiency formulas")
    p_ana.add_argument("--seed", type=int, default=None)
    p_ana.add_argument("--out", default=None, help="CSV path for --bound (default stdout)")
    p_ana.set_defaults(func=_cmd_analyze)

    p_val = sub.add_parser("validate", help="run the numeric invariant suites")
    p_val.add_argument("--suite", default="all", choices=["all", *SUITES])
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
