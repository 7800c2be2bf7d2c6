"""Command-line interface: config round-trips, CSV output, exit codes."""

import argparse
import contextlib
import io
import math
import os
import pathlib
import shlex
import subprocess
import sys
import textwrap
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgrit_advection import StabilityWarning, cfl_limit, mgrit
from mgrit_advection.cli import (ConfigError, ExperimentConfig, build_parser,
                                 main, write_csv)
from mgrit_advection.experiments import COARSE_KINDS


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------- config

def test_config_round_trip_identity():
    config = ExperimentConfig(family="sdirk", p=3, c=5.0, coarse="modified",
                              m=[2, 4], nu=0, cycle="v_cycle", n_x=128,
                              n_t=512, seed=7, measure=True, c_min=0.1,
                              c_max=4.0, c_points=16, out="table.csv")
    round_tripped = ExperimentConfig.from_text(config.to_text())
    assert round_tripped == config


def test_config_rejects_explicit_rediscretized():
    config = ExperimentConfig(family="erk", coarse="rediscretized", c=0.5)
    with pytest.raises(ConfigError, match="unstable"):
        config.validate()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_text("[discretization]\nflavor = mint\n")


def test_config_rejects_bad_order():
    with pytest.raises(ConfigError):
        ExperimentConfig(p=7, c=1.0).validate()


@pytest.mark.parametrize("flags,message", [
    (["--grid", "64,63", "--m", "2"], "not divisible"),
    (["--cycle", "v", "--m", "3"], "not divisible"),
    (["--max-iters", "0"], "max_iters"),
    (["--nu", "-1"], "nu"),
])
def test_solve_rejects_bad_run_settings(tmp_path, capsys, flags, message):
    code, _ = run_cli(["solve", "--family", "sdirk", "--p", "1", "--c", "1.0",
                       "--grid", "32,64"] + flags, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,flags", [
    ("solve", ["--grid", "4,16", "--p", "5", "--family", "erk",
               "--c-fraction", "0.5", "--m", "2"]),
    ("solve", ["--grid", "6,16", "--p", "4", "--family", "sdirk", "--c", "1.0",
               "--coarse", "plain_sl", "--m", "2", "--cycle", "v"]),
    ("iters", ["--grid", "4,16", "--p", "3", "--family", "sdirk", "--c", "1.0",
               "--coarse", "rediscretized", "--m", "2"]),
    ("sweep", ["--grid", "2,16", "--p", "1", "--family", "sdirk",
               "--c-range", "1.0,1.0,1", "--m", "2", "--measure"]),
])
def test_grid_too_small_for_the_stencils(tmp_path, capsys, command, flags):
    code, _ = run_cli([command] + flags, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "too small" in err
    assert "Traceback" not in err


def test_smallest_accepted_grid_solves(tmp_path):
    code, text = run_cli(["solve", "--grid", "7,16", "--p", "5", "--family",
                          "erk", "--c-fraction", "0.5", "--m", "2", "--cycle",
                          "v", "--threads", "1"], tmp_path)
    assert code == 0
    assert "# converged: True" in text


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_config_file_rejects_bad_tolerance(tmp_path, capsys, tol):
    path = tmp_path / "run.ini"
    path.write_text(f"[mgrit]\ntol = {tol}\n")
    code, _ = run_cli(["solve", "--config", str(path), "--family", "sdirk",
                       "--c", "1.0", "--grid", "32,64"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith("configuration error: tol")


@pytest.mark.parametrize("ini,message", [
    ("[lfa]\nlfa_samples = 4\n", "lfa_samples = 4 leaves no sample"),
    ("[lfa]\nlfa_samples = 0\n", "lfa_samples = 0 leaves no sample"),
    ("[lfa]\nlfa_excluded = 5000\n", "lfa_samples = 2048 leaves no sample"),
    ("[run]\nthreads = -3\n", "threads must be >= 0"),
], ids=["lfa_samples_4", "lfa_samples_0", "lfa_excluded_5000", "threads_-3"])
def test_config_file_rejects_empty_lfa_scan_and_negative_threads(
        tmp_path, capsys, ini, message):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    code, _ = run_cli(["sweep", "--config", str(path), "--family", "erk",
                       "--p", "3", "--m", "2", "--c-range", "0.1,0.5,3"],
                      tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert message in err
    assert "Traceback" not in err


def test_negative_threads_flag_is_rejected(tmp_path, capsys):
    code, _ = run_cli(["solve", "--family", "sdirk", "--p", "1", "--c", "1.0",
                       "--grid", "32,64", "--threads", "-3"], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: threads must be >= 0")


@pytest.mark.parametrize("ini,flags", [
    ("[discretization]\np = abc\n", []),
    (None, ["--m", "2,x"]),
    (None, ["--config", "no-such-dir/run.ini"]),
    (None, ["--p", "abc"]),
    (None, ["--no-such-flag"]),
], ids=["file_value", "m_list", "missing_config", "flag_value",
        "unknown_flag"])
def test_bad_input_is_a_configuration_error(tmp_path, capsys, ini, flags):
    if ini is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini)
        flags = ["--config", str(path)] + flags
    code, _ = run_cli(["constants"] + flags, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "Traceback" not in err


SDIRK_SOLVE = ["solve", "--family", "sdirk", "--grid", "64,64"]
ERK_SOLVE = ["solve", "--family", "erk", "--grid", "64,64"]
SDIRK_SWEEP = ["sweep", "--family", "sdirk", "--p", "1", "--m", "2"]


@pytest.mark.parametrize("ini,flags,message", [
    (None, SDIRK_SOLVE + ["--c", "1.0", "--seed", "-1"],
     "seed (rng_seed) must be >= 0"),
    (None, SDIRK_SOLVE + ["--c", "inf"], "c = inf is not finite"),
    (None, ERK_SOLVE + ["--c-fraction", "inf"],
     "c_fraction = inf is not finite"),
    (None, SDIRK_SOLVE + ["--c", "-1.0"], "c = -1.0 is negative"),
    (None, ERK_SOLVE + ["--c-fraction", "-0.5"],
     "c_fraction = -0.5 is negative"),
    (None, SDIRK_SOLVE + ["--c", "1e300"], "c = 1e+300 overflows"),
    (None, ERK_SOLVE + ["--c-fraction", "1e300"],
     "c_fraction = 1e+300 overflows"),
    (None, SDIRK_SWEEP + ["--c-range", "0,inf,4"], "c_max = inf is not finite"),
    (None, SDIRK_SWEEP + ["--c-range", "nan,1,4"], "c_min = nan is not finite"),
    (None, SDIRK_SWEEP + ["--c-range", "1,1e300,2"], "c_max = 1e+300 overflows"),
    (None, ["solve", "--family", "erk", "--p", "3", "--c-fraction", "1.5e308",
            "--m", "2", "--grid", "64,256"], "c_fraction = 1.5e+308 overflows"),
    (None, ["sweep", "--family", "erk", "--p", "3", "--m", "2", "--c-range",
            "1,1.5e308,2"], "c_max = 1.5e+308 overflows"),
    (None, SDIRK_SWEEP + ["--c-range", "0,1,4"], "c_min > 0 for several points"),
    (None, SDIRK_SWEEP + ["--c-range", "1,2,-5"], "c_points must be >= 1, got -5"),
    ("[sweep]\nc_points = 0\n", SDIRK_SWEEP, "c_points must be >= 1, got 0"),
    ("[sweep]\nmeasure = maybe\n", ["constants"], "bad value for measure"),
], ids=["seed_negative", "c_inf", "c_fraction_inf", "c_negative",
        "c_fraction_negative", "c_overflow", "c_fraction_overflow",
        "c_max_inf", "c_min_nan", "c_max_overflow", "c_fraction_inf_product",
        "c_max_inf_product", "c_min_zero",
        "c_points_negative", "c_points_zero", "measure_maybe"])
def test_bad_run_input_is_a_configuration_error(tmp_path, capsys, ini, flags,
                                                message):
    if ini is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini)
        flags = flags + ["--config", str(path)]
    code, _ = run_cli(flags, tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert message in err
    assert "Traceback" not in err


ERK3_OVER_LIMIT = ["solve", "--family", "erk", "--p", "3", "--m", "2",
                   "--grid", "64,256"]


def test_overflow_drops_the_warnings_of_its_build(tmp_path, capsys):
    # the build overflows before its hierarchy is built, so nothing has
    # warned; the configuration error is the whole report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(ERK3_OVER_LIMIT + ["--c-fraction", "1e300"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: c_fraction = 1e+300 overflows")
    assert "(34," not in err[0]  # the reason, not the errno tuple
    assert not [w for w in caught if issubclass(w.category, StabilityWarning)]


def test_shift_too_long_for_its_phases_is_a_configuration_error(tmp_path,
                                                                capsys):
    # the capped V-cycle's coarse levels shift by 2e9 cells and more, whose
    # rounded phases leave their spectra conjugate-symmetric only past the
    # real Fourier basis's 1e-8; the build stops before its hierarchy warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(ERK3_OVER_LIMIT + ["--c", "1e9", "--cycle", "v"],
                          tmp_path)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: c = 1000000000.0 is too "
                             "large: its semi-Lagrangian shifts")
    assert not [w for w in caught if issubclass(w.category, StabilityWarning)]


def test_iters_table_fails_before_it_solves(tmp_path, capsys, monkeypatch):
    # the table builds every hierarchy, the V-cycles first, before its first
    # solve: the capped V-cycle that cannot be built is the whole report
    solves = []
    monkeypatch.setattr(mgrit, "solve", lambda *a, **k: solves.append(a))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(["iters", "--family", "erk", "--p", "3", "--c",
                           "1e9", "--m", "2", "--grid", "64,256"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: c = 1000000000.0 is too "
                             "large: its semi-Lagrangian shifts")
    assert not [w for w in caught if issubclass(w.category, StabilityWarning)]
    assert not solves


def test_over_limit_run_still_warns(tmp_path):
    with pytest.warns(StabilityWarning, match="exceeds the stability limit"):
        code, text = run_cli(ERK3_OVER_LIMIT + ["--c-fraction", "1.2"],
                             tmp_path)
    assert code == 0
    assert "converged" in text


def test_held_warnings_keep_their_module(tmp_path):
    # the over-limit build's warning reaches the caller as raised, so
    # filters that name the module that raised it still apply
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", category=StabilityWarning,
                                module="mgrit_advection.experiments")
        code, _ = run_cli(ERK3_OVER_LIMIT + ["--c-fraction", "1.2"], tmp_path)
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, StabilityWarning)]


def test_singular_correction_is_exit_code_2(tmp_path, capsys):
    # at this c, phi = -1/4 and 1 - phi D vanishes at omega = pi on an even
    # mesh; the build fails before its hierarchy can warn
    code, _ = run_cli(["solve", "--family", "erk", "--p", "1",
                       "--c", "1.1339745962155612", "--m", "2",
                       "--grid", "32,64"], tmp_path)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical singularity: correction matrix singular for phi = -0.25 "
        "at omega = 2*pi*16/32"]


FAR_PAST_CASES = [("sdirk", kind) for kind in ("modified", "plain_sl",
                                               "ideal", "rediscretized")]
FAR_PAST_CASES += [("erk", kind) for kind in ("modified", "plain_sl", "ideal")]


@pytest.mark.parametrize("c", ["1e5", "1e7", "1e9", "1e12"])
@pytest.mark.parametrize("cycle", ["two-level", "v"])
@pytest.mark.parametrize("family,coarse", FAR_PAST_CASES)
def test_far_past_solve_runs_or_is_one_configuration_error(
        tmp_path, capsys, family, coarse, cycle, c):
    # at these CFL numbers the semi-Lagrangian shifts of some coarse levels
    # are too long for their symbols' phases; every level's diagonal is
    # built with the hierarchy, so such a solve stops in its build, and
    # any other runs (diverging, where the fine stepper is unstable)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(["solve", "--family", family, "--p", "3", "--c", c,
                           "--m", "2", "--coarse", coarse, "--cycle", cycle,
                           "--grid", "32,64"], tmp_path)
    err = capsys.readouterr().err
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1
        assert err.startswith("configuration error:")
        assert not [w for w in caught
                    if issubclass(w.category, StabilityWarning)]


@pytest.mark.parametrize("text,value", [
    ("true", True), ("On", True), ("1", True), ("no", False), ("False", False)])
def test_config_file_booleans(text, value):
    config = ExperimentConfig.from_text(f"[sweep]\nmeasure = {text}\n")
    assert config.measure is value


SUBCOMMAND_OPTIONS = [
    "-h", "--help", "--config", "--out", "--threads", "--seed", "--measure",
    "--cycle", "--nu", "--m", "--grid", "--family", "--p", "--c",
    "--c-fraction", "--coarse", "--c-range", "--max-iters"]

DEFAULT_CONFIG_TEXT = (
    "[discretization]\nfamily = erk\np = 3\nc = 0.0\nc_fraction = 0.0\n"
    "coarse = modified\n\n"
    "[mgrit]\nm = 2\nnu = 1\ncycle = two_level\nmax_iters = 30\n"
    "tol = 1e-10\nseed = 0\n\n"
    "[lfa]\nlfa_samples = 2048\nlfa_excluded = -1\n\n"
    "[grid]\nn_x = 256\nn_t = 1024\n\n"
    "[sweep]\nc_min = 0.0\nc_max = 0.0\nc_points = 512\nmeasure = False\n\n"
    "[run]\nthreads = 1\nout = \n\n")


def test_cli_surface_is_pinned():
    # every subcommand takes the same flags, and the file layout and
    # defaults are those a written config carries
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == ["constants", "sweep", "iters",
                                        "validate", "solve"]
    for name, sub in subparsers.choices.items():
        options = [opt for action in sub._actions
                   for opt in action.option_strings]
        assert options == SUBCOMMAND_OPTIONS, name
    assert ExperimentConfig().to_text() == DEFAULT_CONFIG_TEXT


def test_flags_override_config_values_before_validation(tmp_path):
    # the file alone is invalid; the flag replaces the bad value
    path = tmp_path / "run.ini"
    path.write_text("[discretization]\np = 7\n")
    code, text = run_cli(["constants", "--config", str(path), "--p", "3"],
                         tmp_path)
    assert code == 0
    assert "p = 3" in text


def test_grid_is_checked_only_where_solves_run(tmp_path):
    # an LFA-only sweep never builds the space-time grid
    code, _ = run_cli(["sweep", "--family", "sdirk", "--p", "1", "--coarse",
                       "rediscretized", "--m", "3", "--c-range", "1.0,1.0,1"],
                      tmp_path)
    assert code == 0
    code, _ = run_cli(["iters", "--family", "sdirk", "--p", "1", "--c", "1.0",
                       "--m", "4,3", "--grid", "32,64"], tmp_path)
    assert code == 1


def test_resolve_c_prefers_fraction():
    config = ExperimentConfig(family="erk", p=1, c_fraction=0.5)
    assert config.resolve_c() == pytest.approx(0.5)  # c_max(1) = 1
    with pytest.raises(ConfigError):
        ExperimentConfig(family="erk", p=1).resolve_c()


# ------------------------------------------------------------------ CSV format

def test_csv_metadata_and_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b"), [(1, 0.5), (2, float("inf"))],
              ["note: hello"])
    text = path.read_text()
    assert text.startswith("# note: hello\n")
    assert "a,b" in text
    assert "5.00000000e-01" in text
    assert "inf" in text


# ---------------------------------------------------------------- subcommands

def test_constants_command(tmp_path):
    code, text = run_cli(["constants"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    values = {(r["quantity"], r["scheme"]): float(r["value"]) for r in rows}
    assert values[("e_fd", "U5")] == pytest.approx(1.6667e-2, rel=1e-4)
    assert values[("e_rk", "ERK5")] == pytest.approx(-6.0764e-4, rel=1e-4)
    assert values[("c_max", "ERK5+U5")] == pytest.approx(1.96583, rel=1e-5)
    assert values[("c_max", "ERK2+U2")] == pytest.approx(0.5, abs=1e-5)


def test_sweep_degenerate_single_point(tmp_path):
    code, text = run_cli(
        ["sweep", "--family", "sdirk", "--p", "1", "--coarse", "rediscretized",
         "--m", "2", "--c-range", "4.0,4.0,1"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert len(rows) == 1
    assert float(rows[0]["rho_lfa"]) == pytest.approx(0.444, abs=0.02)
    assert float(rows[0]["rho_bound"]) == pytest.approx(4.0 / 9.0, abs=0.01)


def test_sweep_separates_divergence_from_an_unstable_coarse_operator(
        tmp_path):
    # past c_max the ERK2 point's rho_lfa is finite but far above 1: it is
    # divergent although every coarse eigenvalue has |mu| < 1
    code, text = run_cli(
        ["sweep", "--family", "erk", "--p", "2", "--coarse", "modified",
         "--m", "8", "--c-range", "0.5,1.2,2"], tmp_path)
    assert code == 0
    header, (inside, past) = parse_csv(text)
    assert header[4:6] == ["divergent", "coarse_unstable"]
    assert float(inside["rho_lfa"]) < 1.0
    assert (inside["divergent"], inside["coarse_unstable"]) == ("false",
                                                                "false")
    assert float(past["rho_lfa"]) > 100.0
    assert (past["divergent"], past["coarse_unstable"]) == ("true", "false")
    # an unstable coarse operator makes rho_lfa infinite, and divergent
    code, text = run_cli(
        ["sweep", "--family", "erk", "--p", "2", "--coarse", "plain_sl",
         "--m", "16", "--c-range", "1.0,1.0,1"], tmp_path, "unstable.csv")
    assert code == 0
    _, (row,) = parse_csv(text)
    assert float(row["rho_lfa"]) == float("inf")
    assert (row["divergent"], row["coarse_unstable"]) == ("true", "true")


def test_sweep_rejects_explicit_rediscretized(tmp_path):
    code, _ = run_cli(
        ["sweep", "--family", "erk", "--p", "1", "--coarse", "rediscretized",
         "--m", "2", "--c-range", "0.1,0.9,4"], tmp_path)
    assert code == 1


def test_sweep_with_measurement(tmp_path):
    code, text = run_cli(
        ["sweep", "--family", "sdirk", "--p", "1", "--coarse", "modified",
         "--m", "4", "--c-range", "1.0,1.0,1", "--measure",
         "--grid", "64,256", "--max-iters", "30"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0]["measured_converged"] == "true"
    measured = float(rows[0]["rho_measured"])
    predicted = float(rows[0]["rho_lfa"])
    assert abs(measured - predicted) <= max(0.1, 0.15 * predicted)


def test_measured_sweep_header_names_the_cycle_it_ran(tmp_path):
    # measured sweep points are two-level solves whatever --cycle says
    code, text = run_cli(
        ["sweep", "--family", "sdirk", "--p", "1", "--m", "4", "--c-range",
         "1.0,1.0,1", "--measure", "--grid", "64,256", "--cycle", "v"],
        tmp_path)
    assert code == 0
    assert "# cycle = two_level\n" in text
    assert "v_cycle" not in text


def test_iters_runs_to_the_configured_tolerance(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[mgrit]\ntol = 1e-3\n")
    flags = ["--family", "sdirk", "--p", "3", "--c", "5", "--m", "4",
             "--grid", "64,256", "--config", str(path)]
    code, iters_text = run_cli(["iters"] + flags, tmp_path, "iters.csv")
    assert code == 0
    assert "# tol = 0.001\n" in iters_text
    code, solve_text = run_cli(["solve"] + flags, tmp_path, "solve.csv")
    assert code == 0
    solved = [line for line in solve_text.splitlines()
              if line.startswith("# iterations: ")]
    _, (row,) = parse_csv(iters_text)
    assert solved == [f"# iterations: {row['iters_two_level']}"]
    assert int(row["iters_two_level"]) < 20


def test_iters_ideal_coarse_one_iteration(tmp_path):
    code, text = run_cli(
        ["iters", "--family", "sdirk", "--p", "1", "--c", "1.0",
         "--coarse", "ideal", "--m", "4", "--grid", "32,64"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0]["iters_two_level"] == "1"


def test_iters_nonconvergence_marked(tmp_path):
    code, text = run_cli(
        ["iters", "--family", "sdirk", "--p", "3", "--c", "5.0",
         "--coarse", "rediscretized", "--m", "16", "--grid", "64,1024",
         "--max-iters", "10"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert rows[0]["iters_two_level"] == ">10"


def test_solve_reports_history_and_wall_time(tmp_path):
    code, text = run_cli(
        ["solve", "--family", "sdirk", "--p", "1", "--c", "1.0",
         "--coarse", "modified", "--m", "4", "--grid", "32,64",
         "--threads", "2"], tmp_path)
    assert code == 0
    assert "wall_time_seconds:" in text
    assert "effective_rho:" in text
    _, rows = parse_csv(text)
    norms = [float(r["residual_norm"]) for r in rows]
    assert len(norms) >= 2
    assert norms[-1] < norms[0]


def test_solve_runs_one_thread_by_default(tmp_path):
    code, text = run_cli(["solve", "--family", "sdirk", "--p", "1", "--c",
                          "1.0", "--m", "4", "--grid", "32,64"], tmp_path)
    assert code == 0
    assert "# threads: 1\n" in text


def test_solve_threads_do_not_change_iteration_count(tmp_path):
    args = ["solve", "--family", "sdirk", "--p", "1", "--c", "1.0",
            "--coarse", "modified", "--m", "4", "--grid", "64,256",
            "--seed", "5"]
    code1, text1 = run_cli(args + ["--threads", "1"], tmp_path, "one.csv")
    code4, text4 = run_cli(args + ["--threads", "4"], tmp_path, "four.csv")
    assert code1 == code4 == 0
    iters1 = [l for l in text1.splitlines() if l.startswith("# iterations")]
    iters4 = [l for l in text4.splitlines() if l.startswith("# iterations")]
    assert iters1 == iters4


def test_measured_sweep_rows_do_not_depend_on_threads(tmp_path):
    args = ["sweep", "--family", "sdirk", "--p", "1", "--coarse", "modified",
            "--m", "2,4", "--c-range", "1.0,3.0,3", "--measure",
            "--grid", "64,256", "--max-iters", "30"]
    code1, text1 = run_cli(args + ["--threads", "1"], tmp_path, "one.csv")
    code2, text2 = run_cli(args + ["--threads", "2"], tmp_path, "two.csv")
    assert code1 == code2 == 0
    _, rows1 = parse_csv(text1)
    _, rows2 = parse_csv(text2)
    assert len(rows1) == 6
    assert rows2 == rows1


def test_config_file_with_flag_overrides(tmp_path):
    cfg = ExperimentConfig(family="sdirk", p=1, c=2.0, coarse="rediscretized",
                           m=[2], n_x=32, n_t=64)
    path = tmp_path / "run.ini"
    path.write_text(cfg.to_text())
    out = tmp_path / "o.csv"
    code = main(["iters", "--config", str(path), "--m", "4",
                 "--out", str(out)])
    assert code == 0
    _, rows = parse_csv(out.read_text())
    assert rows[0]["m"] == "4"  # flag overrode the file value


def test_validate_quick_smoke(tmp_path):
    # full validation is exercised by the acceptance suite; here just check
    # the plumbing wires rows into CSV with a pass/fail column
    from mgrit_advection.experiments import validation_rows
    rows = validation_rows()
    assert all(hasattr(r, "passed") for r in rows)
    assert any(r.check == "global_order" for r in rows)


def test_failed_validation_is_exit_code_3(tmp_path, capsys, monkeypatch):
    from mgrit_advection import experiments
    failing = experiments.ValidationRow("global_order", "erk p=3", 2.5, 3.0,
                                        0.1, False)
    monkeypatch.setattr(experiments, "validation_rows", lambda: [failing])
    code, text = run_cli(["validate"], tmp_path)
    assert code == 3
    assert capsys.readouterr().err.startswith(
        "FAILED global_order [erk p=3]: observed ")
    assert text.splitlines()[-1].endswith(",false")


# ------------------------------------------------------- exit-code contract

#: CFL numbers and fractions: values near the stability limit c_max, as a
#: CFL number (cfl_limit(p) times a factor near one) or as a fraction of it,
#: 1e-300 to 1e300, zero, subnormals, negatives and non-finite values
CFL_VALUES = st.one_of(
    st.builds(lambda p, f: cfl_limit(p) * f, st.integers(1, 5),
              st.sampled_from([1 - 1e-9, 1.0, 1 + 1e-9, 0.999, 1.001])),
    st.sampled_from([0.85, 1 - 1e-9, 1 + 1e-9, 1.2]),
    st.floats(1e-300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, -5e-324, -1.0, math.nan,
                     math.inf, -math.inf]),
    st.floats(-1e300, -1e-300))


@st.composite
def cli_runs(draw):
    """argv for ``solve``, ``iters`` or ``sweep`` on a grid of at most
    33 x 64, every value given as ``--flag=value``.  Valid choices come
    first in each list and are drawn more often, so that runs get past
    validation and solve."""
    command = draw(st.sampled_from(["solve", "iters", "sweep"]))
    m = [draw(st.sampled_from([2, 4, 3, 8, 1]))
         for _ in range(draw(st.sampled_from([1, 2, 3, 0])))]
    n_x = draw(st.one_of(st.sampled_from([32, 16, 33]), st.integers(1, 33)))
    n_t = draw(st.one_of(st.sampled_from([64, 32, 48]), st.integers(1, 64)))
    flags = {
        "family": draw(st.sampled_from(["erk", "sdirk"])),
        "p": draw(st.sampled_from([1, 2, 3, 4, 5, 0, 6])),
        "coarse": draw(st.sampled_from(COARSE_KINDS)),
        "cycle": draw(st.sampled_from(["two-level", "v"])),
        "m": ",".join(map(str, m)),
        "nu": draw(st.sampled_from([1, 0, 2, 3, -1])),
        "threads": draw(st.integers(0, 2)),
        "grid": f"{n_x},{n_t}",
        "max-iters": draw(st.integers(1, 12)),
    }
    for name in draw(st.sampled_from([["c"], ["c-fraction"],
                                      ["c", "c-fraction"], []])):
        flags[name] = repr(draw(CFL_VALUES))
    if command == "sweep":
        flags["c-range"] = (f"{draw(CFL_VALUES)!r},{draw(CFL_VALUES)!r},"
                            f"{draw(st.integers(0, 3))}")
    argv = [command] + [f"--{name}={value}" for name, value in flags.items()]
    if command == "sweep" and draw(st.booleans()):
        argv.append("--measure")
    return argv


def run_in_process(argv):
    """(exit code, stdout, stderr, warnings) of ``main(argv)``; warnings are
    recorded, not raised, so pytest's error filters do not turn an expected
    StabilityWarning into an exception."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def check_exit_contract(argv):
    code, out, err, caught = run_in_process(argv)
    assert code in (0, 1, 2, 3)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 1:
        # the configuration error is the whole report: no warning line
        assert len(err.splitlines()) == 1
        assert err.startswith("configuration error:")
        assert not [w for w in caught
                    if issubclass(w.category, StabilityWarning)]
    if code == 0:
        lines = out.splitlines()
        meta = [line for line in lines if line.startswith("#")]
        assert meta and lines[:len(meta)] == meta
        assert f"# command: {argv[0]}" in meta
        header, *rows = lines[len(meta):]
        assert all(len(row.split(",")) == len(header.split(","))
                   for row in rows)
        assert rows


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cli_runs())
def test_solve_iters_and_sweep_keep_the_exit_code_contract(argv):
    check_exit_contract(argv)


@pytest.mark.parametrize("argv", [
    # the mode analysis of a fine stepper far past its limit overflows
    # |lambda|^(m nu) |lambda^m - mu|, in a pool thread
    ["sweep", "--family=erk", "--p=1", "--coarse=plain_sl", "--m=2,8",
     "--nu=2", "--threads=2", "--grid=23,48",
     "--c-range=1e-300,6.430874900577597e+16,3", "--measure"],
    # an ideal coarse stepper's symbol, the fine one's to the power F,
    # overflows at the mesh frequencies, and so does a fine symbol at 1e300
    ["solve", "--family=erk", "--p=5", "--coarse=ideal", "--cycle=v",
     "--m=4,8,8", "--nu=3", "--threads=2", "--grid=15,64", "--max-iters=2",
     "--c-fraction=3.402823466e+38"],
    ["sweep", "--family=erk", "--p=3", "--coarse=ideal", "--m=8", "--nu=0",
     "--c-range=4.924756571473249e+299,4.924756571473249e+299,2"],
], ids=["lfa_overflow", "ideal_symbol_overflow", "fine_symbol_overflow"])
def test_overflowing_symbols_keep_the_exit_code_contract(argv):
    check_exit_contract(argv)


def test_overflowing_factor_is_divergent_but_not_coarse_unstable():
    # past c_max the factor overflows to inf while every coarse eigenvalue
    # has |mu| < 1; an overflow that makes nan reads inf too
    code, out, _, caught = run_in_process(
        ["sweep", "--family=erk", "--p=3", "--coarse=modified", "--m=8",
         "--nu=2", "--c-range=1e5,1e16,2"])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    _, rows = parse_csv(out)
    assert [(r["rho_lfa"], r["divergent"], r["coarse_unstable"])
            for r in rows] == [("inf", "true", "false")] * 2


# --------------------------------------------------------------- CI workflow

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def workflow_run_block(step):
    """The ``run: |`` block of the workflow step named ``step``, read as
    text: the lines indented past the ``run`` key, dedented."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.strip() == f"- name: {step}")
    run = lines[at + 1]
    assert run.strip() == "run: |", run
    indent = len(run) - len(run.lstrip())
    block = []
    for line in lines[at + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def test_console_script_step_of_the_workflow_passes(tmp_path):
    # as GitHub runs a step (bash -e on the block), with the entry point
    # run as the module and RUNNER_TEMP in the test's directory
    script = tmp_path / "console_script.sh"
    script.write_text(
        f'mgrit-advection() {{ {shlex.quote(sys.executable)} '
        f'-m mgrit_advection.cli "$@"; }}\n'
        + workflow_run_block("Console script"), encoding="utf-8")
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(["bash", "-e", str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
