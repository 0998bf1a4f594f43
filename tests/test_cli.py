import io
from dataclasses import replace
from pathlib import Path

import pytest

from afdm_pim import cli, simulate
from afdm_pim.cli import main
from afdm_pim.detection import MLDetector
from afdm_pim.config import SECTION_KEYS, RandomSource, read_config_file, read_section
from afdm_pim.mapping import frame_bit_count, load_alphabet
from afdm_pim.optimizer import PsoParams, build_objective_context, pso_optimize
from afdm_pim.simulate import scenario_from_sections

CONFIG_TEXT = """\
[system]
n_subcarriers = 4
n_groups = 2
alphabet_size = 2
constellation_order = 2
constellation_kind = PSK
max_delay = 0
max_doppler = 1
cpp_length = 0

[alphabet]
values = 0.2 0.6

[channel]
paths = 2

[simulation]
snr_db = 0 10
min_bits = 2000
min_errors = 100
seed = 4
include_theory = false
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def test_simulate_writes_deterministic_csv(config_path, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", config_path, "--out", str(out1)]) == 0
    assert main(["simulate", config_path, "--out", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.splitlines()
    assert lines[0] == "scheme,snr_db,kind,bits,errors,ber,seed"
    assert len(lines) == 3
    assert all(row.endswith(",4") for row in lines[1:])


def test_simulate_seed_flag_overrides(config_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", config_path, "--seed", "9", "--out", str(out1)]) == 0
    assert main(["simulate", config_path, "--out", str(out2)]) == 0
    assert out1.read_text() != out2.read_text()
    assert out1.read_text().splitlines()[1].endswith(",9")


def test_sim_seed_env_fallback(config_path, tmp_path, monkeypatch):
    out = tmp_path / "env.csv"
    monkeypatch.setenv("SIM_SEED", "31")
    assert main(["simulate", config_path, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(",31")


def test_simulate_stdout(config_path, capsys):
    assert main(["simulate", config_path]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("scheme,snr_db,kind,")


def test_analyze_se(config_path, capsys):
    assert main(["analyze", config_path, "--se"]) == 0
    out = capsys.readouterr().out
    assert "afdm " in out or "afdm  " in out
    assert "afdm_pim" in out and "afdm_im" in out
    # N_c = 2, BPSK: floor(log2(2!))/2 + 1 = 1.5
    assert "1.5 bit/s/Hz" in out


def test_analyze_diversity(config_path, capsys):
    assert main(["analyze", config_path, "--diversity"]) == 0
    out = capsys.readouterr().out
    assert "diversity order mu" in out
    assert "condition 1" in out


def test_analyze_bound(config_path, tmp_path):
    out = tmp_path / "bound.csv"
    assert main(["analyze", config_path, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,snr_db,kind,bits,errors,ber,seed"
    assert all(",theory," in row for row in lines[1:])


def test_analyze_writes_the_theory_rows_of_simulate(tmp_path):
    path = tmp_path / "inf.cfg"
    path.write_text(
        CONFIG_TEXT.replace("snr_db = 0 10", "snr_db = 10 inf").replace(
            "include_theory = false", "include_theory = true"
        )
    )
    sim, ana = tmp_path / "sim.csv", tmp_path / "ana.csv"
    assert main(["simulate", str(path), "--out", str(sim)]) == 0
    assert main(["analyze", str(path), "--out", str(ana)]) == 0
    header, *rows = sim.read_text().splitlines()
    theory = [row for row in rows if ",theory," in row]
    assert len(theory) == 1  # the inf point has no finite bound
    assert ana.read_text().splitlines() == [header] + theory


def test_analyze_refuses_a_grid_without_a_finite_snr(tmp_path, capsys):
    path = tmp_path / "inf.cfg"
    path.write_text(
        CONFIG_TEXT.replace("snr_db = 0 10", "snr_db = inf").replace(
            "include_theory = false", "include_theory = true"
        )
    )
    sim, ana = tmp_path / "sim.csv", tmp_path / "ana.csv"
    assert main(["analyze", str(path), "--out", str(ana)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[inf]" in err
    assert not ana.exists()
    # simulate keeps its noiseless rows and writes no theory row
    assert main(["simulate", str(path), "--out", str(sim)]) == 0
    _, *rows = sim.read_text().splitlines()
    assert [row.split(",")[1:3] for row in rows] == [["inf", "simulation"]]


def test_interrupted_simulate_keeps_partial_rows_and_exits_130(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv("SIM_SEED", raising=False)
    path = tmp_path / "theory.cfg"
    path.write_text(CONFIG_TEXT.replace("include_theory = false", "include_theory = true"))
    full = simulate.run_ber_sweep(cli._load_scenario(str(path), None))
    first_point_frames = full[0].bits // 6  # 6 bits per frame
    calls = {"detect": 0, "theory": 0}
    original = MLDetector.detect

    def interrupt_second_point(self, r, ch):
        calls["detect"] += 1
        if calls["detect"] > first_point_frames + 10:
            raise KeyboardInterrupt
        return original(self, r, ch)

    def counted_theory(*args, **kwargs):
        calls["theory"] += 1
        return []

    monkeypatch.setattr(MLDetector, "detect", interrupt_second_point)
    monkeypatch.setattr(simulate, "theory_points", counted_theory)
    out = tmp_path / "partial.csv"
    assert main(["simulate", str(path), "--out", str(out)]) == 130
    header, first, second = out.read_text().splitlines()
    assert header == "scheme,snr_db,kind,bits,errors,ber,seed"
    assert first == f"theory.cfg,0,simulation,{full[0].bits},{full[0].errors},{full[0].ber:.12g},4"
    assert second.startswith("theory.cfg,10,simulation,60,")
    assert calls["theory"] == 0
    assert "interrupted" in capsys.readouterr().err


def test_simulate_interrupted_in_the_theory_rows_keeps_the_simulation_rows(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv("SIM_SEED", raising=False)
    path = tmp_path / "theory.cfg"
    path.write_text(CONFIG_TEXT.replace("include_theory = false", "include_theory = true"))
    scenario = cli._load_scenario(str(path), None)
    expected = io.StringIO()
    simulate.write_csv(simulate.run_ber_sweep(scenario), scenario.name, scenario.seed, expected)

    def interrupted_theory(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(simulate, "theory_points", interrupted_theory)
    out = tmp_path / "partial.csv"
    assert main(["simulate", str(path), "--out", str(out)]) == 130
    assert out.read_text() == expected.getvalue()
    assert "interrupted" in capsys.readouterr().err


def test_simulate_interrupted_while_building_the_tables_writes_the_header(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv("SIM_SEED", raising=False)
    path = tmp_path / "theory.cfg"
    path.write_text(CONFIG_TEXT.replace("include_theory = false", "include_theory = true"))
    theory_calls = []

    def interrupted_set_up(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(MLDetector, "__init__", interrupted_set_up)
    monkeypatch.setattr(simulate, "theory_points", lambda *a, **k: theory_calls.append(1))
    out = tmp_path / "partial.csv"
    assert main(["simulate", str(path), "--out", str(out)]) == 130
    assert out.read_text() == "scheme,snr_db,kind,bits,errors,ber,seed\n"
    assert theory_calls == []
    assert "wrote 0 of 2 simulation points" in capsys.readouterr().err


def test_optimize_emits_alphabet_and_log(config_path, tmp_path, capsys):
    out = tmp_path / "alpha.txt"
    log = tmp_path / "conv.csv"
    code = main(
        [
            "optimize", config_path,
            "--pso-params", "particles=12,iterations=8",
            "--out", str(out), "--log", str(log),
        ]
    )
    assert code == 0
    alphabet = load_alphabet(str(out))
    assert len(alphabet) == 2
    log_lines = log.read_text().splitlines()
    assert log_lines[0] == "iteration,best_fitness"
    assert len(log_lines) == 10  # initial evaluation + 8 iterations


def test_optimize_writes_the_log_with_or_without_an_alphabet_file(config_path, tmp_path, capsys):
    # --log alone: the alphabet goes to stdout and the log to --log's path;
    # --out alone: the same log goes beside the alphabet file
    args = ["optimize", config_path, "--seed", "3", "--pso-params", "particles=4,iterations=2"]
    log = tmp_path / "conv.csv"
    assert main([*args, "--log", str(log)]) == 0
    printed = capsys.readouterr().out.split()
    out = tmp_path / "alpha.txt"
    assert main([*args, "--out", str(out)]) == 0
    default_log = tmp_path / "alpha.txt.convergence.csv"
    assert capsys.readouterr().out.splitlines()[1] == f"convergence -> {default_log}"
    assert printed == [f"{v:.12g}" for v in load_alphabet(str(out)).values]
    lines = log.read_text().splitlines()
    assert lines[0] == "iteration,best_fitness" and len(lines) == 4
    assert default_log.read_text() == log.read_text()


def test_optimize_seed_zero_is_its_own_draw(config_path, monkeypatch):
    monkeypatch.delenv("SIM_SEED", raising=False)
    states = []

    def spy(cfg, ctx, params, rng):
        states.append(rng.bit_generator.state)
        return pso_optimize(cfg, ctx, params, rng)

    monkeypatch.setattr(cli, "pso_optimize", spy)
    for seed in (0, 1):
        args = ["optimize", config_path, "--pso-params", "particles=4,iterations=1"]
        assert main(args + ["--seed", str(seed)]) == 0
    assert states == [RandomSource(seed).generator().bit_generator.state for seed in (0, 1)]
    assert states[0] != states[1]


def test_optimize_accepts_a_preset(monkeypatch, capsys):
    # a preset has no [pso] section: the published tuning, then --pso-params
    monkeypatch.delenv("SIM_SEED", raising=False)
    calls = []

    def spy(cfg, ctx, params, rng):
        calls.append((cfg, params))
        return pso_optimize(cfg, ctx, params, rng)

    monkeypatch.setattr(cli, "pso_optimize", spy)
    args = ["optimize", "fig4", "--seed", "42", "--pso-params", "particles=4,iterations=1"]
    assert main(args) == 0
    scenario = simulate.make_preset("fig4")
    params = PsoParams(n_particles=4, max_iterations=1)
    assert calls == [(scenario.cfg, params)]
    ctx = build_objective_context(scenario.cfg, scenario.p_paths)
    expected = pso_optimize(scenario.cfg, ctx, params, RandomSource(42).generator())
    assert capsys.readouterr().out.split() == [f"{v:.12g}" for v in expected.alphabet.values]


def test_optimize_reads_pso_keys_of_a_config_file(tmp_path, monkeypatch):
    # --pso-params overrides the file's [pso] keys, which override the defaults
    path = tmp_path / "swarm.cfg"
    path.write_text(CONFIG_TEXT + "\n[pso]\nparticles = 4\niterations = 3\n")
    calls = []

    def spy(cfg, ctx, params, rng):
        calls.append(params)
        return pso_optimize(cfg, ctx, params, rng)

    monkeypatch.setattr(cli, "pso_optimize", spy)
    assert main(["optimize", str(path), "--pso-params", "iterations=1"]) == 0
    assert calls == [PsoParams(n_particles=4, max_iterations=1)]


def test_optimize_rejects_unknown_pso_key(config_path, capsys):
    assert main(["optimize", config_path, "--pso-params", "swarm=9"]) == 2
    assert "unknown pso parameter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("inertia=nan,particles=3,iterations=2", "inertia must be finite and positive, got nan"),
        ("v_max=inf", "velocity_max must be finite and positive, got inf"),
        ("particles=3.5", "pso parameter particles: cannot read '3.5' as int"),
        ("inertia=fast", "pso parameter inertia: cannot read 'fast' as float"),
    ],
)
def test_optimize_refuses_malformed_pso_values(spec, message, capsys):
    # before the swarm runs: a NaN inertia used to return the unmoved heuristic
    assert main(["optimize", "fig4", "--pso-params", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_alphabet_file_is_read_from_the_config_directory(
    config_path, tmp_path, monkeypatch, capsys
):
    # same file name as config_path, so the CSV scheme column matches too
    relative = tmp_path / "cfgdir" / "small.cfg"
    absolute = tmp_path / "absdir" / "small.cfg"
    alphabet = relative.parent / "alpha.txt"
    relative.parent.mkdir()
    absolute.parent.mkdir()
    alphabet.write_text("0.2\n0.6\n")
    relative.write_text(CONFIG_TEXT.replace("values = 0.2 0.6", "file = alpha.txt"))
    absolute.write_text(CONFIG_TEXT.replace("values = 0.2 0.6", f"file = {alphabet}"))
    monkeypatch.chdir(tmp_path)  # holds no alpha.txt
    for command in ("simulate", "analyze"):
        assert main([command, config_path]) == 0
        inline = capsys.readouterr().out
        for path in (relative, absolute):
            assert main([command, str(path)]) == 0
            assert capsys.readouterr().out == inline
    assert main(["optimize", str(relative), "--pso-params", "particles=4,iterations=1"]) == 0


@pytest.mark.parametrize("command", ["simulate", "optimize", "analyze"])
def test_alphabet_file_value_that_is_not_a_number_names_its_line(command, tmp_path, capsys):
    # it used to exit 2 with "could not convert string to float: 'abc\n'"
    alphabet = tmp_path / "alpha.txt"
    alphabet.write_text("0.2\nabc\n0.6\n")
    path = tmp_path / "bad.cfg"
    path.write_text(CONFIG_TEXT.replace("values = 0.2 0.6", f"file = {alphabet}"))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {alphabet}, line 2: cannot read 'abc' as float\n"
    assert not out.exists()


def test_validate_suites(capsys):
    assert main(["validate", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8 and "8/8 checks passed" in out


def test_missing_config_is_reported(capsys):
    assert main(["simulate", "/nonexistent/path.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_snr_grid_is_reported(tmp_path, capsys):
    # a stop below the start leaves no SNR point: an error, not a header-only CSV
    path = tmp_path / "empty.cfg"
    path.write_text(CONFIG_TEXT.replace("snr_db = 0 10", "snr_db_start = 10\nsnr_db_stop = 0"))
    out = tmp_path / "out.csv"
    assert main(["simulate", str(path), "--out", str(out)]) == 2
    assert "error: snr_grid_db is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (
            CONFIG_TEXT.replace("snr_db = 0 10", "snr_db_step = 0"),
            "snr_db_step must be positive",
        ),
        (
            "[system]\nn_subcarriers = 5\nn_groups = 1\nalphabet_size = 5\n",
            "no alphabet given and no published table entry for alphabet_size=5",
        ),
    ],
    ids=["snr_step_zero", "no_table_alphabet"],
)
def test_refused_config_exits_2_naming_its_rule(text, message, tmp_path, capsys):
    path = tmp_path / "refused.cfg"
    path.write_text(text)
    assert main(["simulate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_preset_name_accepted_as_config(tmp_path, monkeypatch):
    # presets run with full published budgets; just verify name resolution
    from afdm_pim.cli import _load_scenario

    sc = _load_scenario("fig8_lo", None)
    assert sc.name == "fig8_lo"
    monkeypatch.setenv("SIM_SEED", "77")
    assert _load_scenario("fig8_lo", None).seed == 77


# (text in CONFIG_TEXT plus a [pso] section, its typo, what the error names)
TYPOS = {
    "system-key": ("max_delay = 0", "max_dealy = 0", "unknown [system] key 'max_dealy'"),
    "alphabet-key": ("values = 0.2 0.6", "value = 0.2 0.6", "unknown [alphabet] key 'value'"),
    "channel-key": ("paths = 2", "path = 2", "unknown [channel] key 'path'"),
    "simulation-key": ("min_bits = 2000", "min_bit = 2000", "unknown [simulation] key 'min_bit'"),
    "pso-key": ("particles = 4", "partcles = 4", "unknown [pso] key 'partcles'"),
    "section": ("[simulation]", "[simulaton]", "unknown section [simulaton]"),
    "no-header": ("[system]\n", "", "'n_subcarriers = 4' comes before any [section]"),
    "duplicate": ("paths = 2", "paths = 2\npaths = 3", "option 'paths' in section 'channel'"),
    "interpolation": (
        "min_bits = 2000",
        "min_bits = 2000%",
        "[simulation] key min_bits: '%' must be followed by '%' or '('",
    ),
    "boolean": (
        "include_theory = false",
        "include_theory = ture",
        "[simulation] key include_theory: cannot read 'ture' as boolean",
    ),
}


@pytest.mark.parametrize("command", ["simulate", "optimize", "analyze"])
@pytest.mark.parametrize("typo", list(TYPOS))
def test_config_typos_exit_2_naming_the_key(typo, command, tmp_path, capsys):
    # each used to run another experiment (exit 0) or end in a traceback (exit 1)
    old, new, named = TYPOS[typo]
    text = CONFIG_TEXT + "\n[pso]\nparticles = 4\niterations = 1\n"
    assert old in text
    path = tmp_path / "typo.cfg"
    path.write_text(text.replace(old, new, 1))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "optimize", "analyze"])
def test_default_section_is_refused_as_an_unknown_section(command, tmp_path, capsys):
    # configparser would merge its keys into every section and name [system] instead
    path = tmp_path / "default.cfg"
    path.write_text("[DEFAULT]\nseed = 3\n\n" + CONFIG_TEXT)
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown section [DEFAULT];") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate"], ["analyze"], ["analyze", "--diversity"]])
def test_codebook_that_cannot_carry_its_bits_exits_2(command, tmp_path, capsys):
    # values 1/2 apart: 64 payloads and 16 frames, which ran to BER 0.34 at 30 dB
    path = tmp_path / "collide.cfg"
    path.write_text(
        CONFIG_TEXT.replace("values = 0.2 0.6", "values = 0.25, 0.75")
        .replace("snr_db = 0 10", "snr_db = 30")
    )
    out = tmp_path / "out.csv"
    assert main([*command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the codebook cannot carry its bits: payloads ")
    assert "share one frame" in err and err.count("\n") == 1
    assert not out.exists()


FIG7_SYSTEM = """\
[system]
n_subcarriers = 8
n_groups = 2
alphabet_size = 4
max_delay = 1
max_doppler = 2
cpp_length = 1

[channel]
paths = 3
"""


@pytest.mark.parametrize(
    "command, supports",
    [
        (["analyze", "fig7_pim"], 120),
        (["analyze", "fig7_pim", "--diversity"], 120),
        (["analyze", "baseline_afdm"], 1365),
        (["simulate", "fig7.cfg"], 120),  # theory rows on by default
    ],
)
def test_pair_scan_that_cannot_finish_exits_2_naming_the_limit(
    command, supports, tmp_path, monkeypatch, capsys
):
    (tmp_path / "fig7.cfg").write_text(FIG7_SYSTEM)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.csv"
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: 2,147,450,880 codeword pairs x {supports:,} supports")
    assert "exceed the scan limit 1,073,741,824" in err and err.count("\n") == 1
    assert ("include_theory = false" in err) == ("--diversity" not in command)
    assert not out.exists()


def test_grid_with_more_paths_than_cells_is_sized_before_it_is_built(tmp_path, capsys):
    # 20 paths: C(31, 20) multisets of the 12 reachable cells for the bound, and
    # C(34, 20) of the 15 grid cells had the diversity scan enumerated them
    path = tmp_path / "paths20.cfg"
    path.write_text(
        "[system]\nn_subcarriers = 4\nn_groups = 2\nalphabet_size = 2\n"
        "max_delay = 2\nmax_doppler = 2\ncpp_length = 2\n\n[channel]\npaths = 20\n"
    )
    for command in ("analyze", "simulate"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 2,016 codeword pairs x 84,672,315 supports")
        assert "exceed the scan limit" in err
    assert main(["analyze", str(path), "--diversity"]) == 0
    assert "diversity order mu = 1 (full would be 20)\n" in capsys.readouterr().out


def test_optimize_with_one_pre_chirp_value_has_nothing_to_design(tmp_path, capsys):
    # baseline_afdm: one value over a group of 8 subcarriers; the file: one value
    # on each of N = G = 4 single-subcarrier groups. Neither carries index bits.
    one_per_group = tmp_path / "one_per_group.cfg"
    one_per_group.write_text(
        "[system]\nn_subcarriers = 4\nn_groups = 4\nalphabet_size = 1\nmax_doppler = 1\n"
        "\n[alphabet]\nvalues = 0.5\n"
    )
    for config in ("baseline_afdm", str(one_per_group)):
        assert main(["optimize", config]) == 2
        assert capsys.readouterr() == (
            "",
            "error: a single pre-chirp value carries no index bits, so there is no "
            "alphabet to design\n",
        )


@pytest.mark.parametrize("command", [["simulate"], ["analyze"], ["analyze", "--se"], ["optimize"]])
def test_alphabet_size_the_codebook_cannot_build_exits_2_naming_the_rule(
    command, tmp_path, capsys
):
    # lambda = 2 on one group of 16 subcarriers: no pattern table maps it
    path = tmp_path / "lambda2.cfg"
    path.write_text("[system]\nn_subcarriers = 16\nn_groups = 1\nalphabet_size = 2\n")
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: pattern mapping requires alphabet_size == group_size (or 1), "
        "got alphabet_size=2, group_size=16\n",
    )


@pytest.mark.parametrize("command", ["simulate", "analyze", "optimize"])
def test_system_section_without_required_keys_exits_2_naming_them(command, tmp_path, capsys):
    # SystemConfig(**fields) used to raise TypeError: a traceback and exit 1
    path = tmp_path / "missing.cfg"
    path.write_text("[system]\nn_subcarriers = 4\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: [system] section is missing n_groups, alphabet_size\n",
    )


def test_unknown_pso_parameter_exits_2_naming_it(config_path, tmp_path, capsys):
    out = tmp_path / "alpha.txt"
    args = ["optimize", config_path, "--pso-params", "particles=4,swarm=9", "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown pso parameter 'swarm'") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("config", ["fig8_lo", "file"])
def test_non_integer_sim_seed_exits_2_naming_it(
    config, config_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("SIM_SEED", "4x")
    out = tmp_path / "out.csv"
    source = config_path if config == "file" else config
    assert main(["simulate", source, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: environment variable SIM_SEED: cannot read '4x' as int\n"
    assert not out.exists()
    # the flag comes first, so SIM_SEED is not read
    assert cli._load_scenario(source, 3).seed == 3


@pytest.mark.parametrize(
    "stem,changes",
    [
        ("fig7_pim_short", {}),
        ("fig7_classical_afdm", {"n_groups": 1, "alphabet_size": 1, "constellation_order": 4}),
    ],
)
def test_like_for_like_examples_run_the_fig7_channel(stem, changes):
    # the README's like-for-like comparison: fig7_pim's channel and bits per
    # frame, with PIM or with classical AFDM, on the same SNR points
    path = Path(__file__).resolve().parents[1] / "examples" / f"{stem}.cfg"
    scenario = scenario_from_sections(read_config_file(str(path)), name=stem)
    fig7 = simulate.PRESETS["fig7_pim"]
    assert scenario.cfg == replace(fig7.cfg, **changes)
    assert frame_bit_count(scenario.cfg) == frame_bit_count(fig7.cfg) == 16
    assert scenario == replace(
        fig7, name=stem, cfg=scenario.cfg, alphabet=scenario.alphabet, snr_grid_db=(15, 20, 25)
    )
    if not changes:
        assert scenario.alphabet == fig7.alphabet


def test_readme_config_example_is_read(tmp_path):
    # the README's ini block is the fig4 preset with the published swarm tuning
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```ini\n")
    assert len(blocks) == 2
    path = tmp_path / "fig4.cfg"
    path.write_text(blocks[1].split("```")[0])
    sections = read_config_file(str(path))
    assert set(sections) == set(SECTION_KEYS)
    assert scenario_from_sections(sections, name="fig4") == simulate.PRESETS["fig4"]
    assert PsoParams(**read_section(sections["pso"], "pso")) == PsoParams()
