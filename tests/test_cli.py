"""End-to-end command-line behavior: flags, configs, files, exit codes."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinbath import cli, spectrum
from spinbath.cli import build_parser, main
from spinbath.harness import VERDICT_FIELDS

from test_harness import TENSION_MODEL, TENSION_VERDICT, sha256


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([])
    assert info.value.code == 2


def test_parser_rejects_unknown_flag():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["simulate", "--bogus"])
    assert info.value.code == 2


def test_predict_format_choices_exclude_csv():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["predict", "--format", "csv"])
    assert info.value.code == 2


def test_main_builds_the_parser_once(monkeypatch, capsys):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv in (["simulate", "--n", "2", "--seed", "1", "--steps", "4"],
                     ["predict", "--n", "3", "--seed", "1"],
                     ["oracle-check", "--n-max", "2", "--cases", "2"]):
            assert main(argv) == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_cached_parser_carries_no_flag_into_the_next_call(tmp_path):
    """A flag given to one call is gone from the next: the second artifact
    equals the one a fresh process writes for the same argv."""
    a, b, fresh = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "fresh.json"
    assert main(["predict", "--n", "6", "--seed", "1", "--equal-coupling", "0.5",
                 "--output", str(a)]) == 0
    assert main(["predict", "--n", "6", "--seed", "1", "--output", str(b)]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    subprocess.run(
        [sys.executable, "-m", "spinbath.cli", "predict", "--n", "6", "--seed", "1",
         "--output", str(fresh)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    assert b.read_bytes() == fresh.read_bytes()
    assert a.read_bytes() != b.read_bytes()


def test_a_parse_error_leaves_the_next_call_working(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--bogus"])
    assert info.value.code == 2
    assert main(["simulate", "--n", "2", "--seed", "1", "--steps", "4"]) == 0
    assert "simulated 4 points" in capsys.readouterr().out


def test_readme_names_exactly_the_subcommand_flags():
    """Every --flag in README.md is an option of some subcommand, and every
    option is documented; --help and pip's --no-build-isolation aside."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    subcommands = next(
        action.choices.values() for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {option for sub in subcommands for action in sub._actions
               for option in action.option_strings if option.startswith("--")}
    assert named - {"--no-build-isolation"} == options - {"--help"}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["simulate", "--n", "4", "--seed", "7",
                 "--t-end", "10", "--steps", "50", "--output", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "simulated 50 points" in stdout
    assert f"wrote {out}" in stdout
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,re_r,im_r,r_sq,expectation"
    assert len(lines) == 51


def test_simulate_output_mode_follows_the_umask(tmp_path):
    argv = ["simulate", "--n", "2", "--seed", "1", "--steps", "4", "--output"]
    previous = os.umask(0o022)
    try:
        assert main([*argv, str(tmp_path / "shared.csv")]) == 0
        os.umask(0o077)
        assert main([*argv, str(tmp_path / "private.csv")]) == 0
    finally:
        os.umask(previous)
    assert (tmp_path / "shared.csv").stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "private.csv").stat().st_mode & 0o777 == 0o600


def test_rewritten_artifact_keeps_its_mode(tmp_path):
    out = tmp_path / "keep.csv"
    out.write_text("old\n")
    out.chmod(0o600)
    previous = os.umask(0o022)
    try:
        assert main(["simulate", "--n", "2", "--seed", "1", "--steps", "4",
                     "--output", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.read_text().startswith("t,re_r")
    assert out.stat().st_mode & 0o777 == 0o600


def test_simulate_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--n", "6", "--seed", "123", "--t-end", "25",
            "--steps", "200", "--phases", "uniform"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert sha256(a) == sha256(b)


def test_simulate_without_output_prints_summary(capsys):
    code = main(["simulate", "--n", "2", "--seed", "5",
                 "--t-end", "3", "--steps", "10"])
    assert code == 0
    assert "final |r|^2 =" in capsys.readouterr().out


def test_simulate_from_config_with_flag_override(tmp_path):
    out = tmp_path / "series.csv"
    config = write_json(tmp_path / "config.json", {
        "model": {"random": {"n": 3, "seed": 9}},
        "grid": {"t_end": 4.0, "steps": 6},
        "output": {"path": str(out), "format": "csv"},
    })
    assert main(["simulate", "--config", config, "--steps", "12"]) == 0
    assert len(out.read_text().strip().split("\n")) == 13


def test_simulate_equal_coupling_flag(tmp_path):
    out = tmp_path / "equal.csv"
    code = main(["simulate", "--n", "3", "--seed", "1",
                 "--equal-coupling", "0.5", "--t-end", "6.283",
                 "--steps", "5", "--output", str(out)])
    assert code == 0


def test_g_max_flag_scales_the_couplings(tmp_path):
    """--g-max alone sets a uniform coupling law: g_max = 2 doubles every
    coupling of the same draw, so the default horizon 20 / mean|g| halves."""
    ends = []
    for flags in ([], ["--g-max", "2"]):
        out = tmp_path / f"series{len(ends)}.json"
        assert main(["simulate", "--n", "3", "--seed", "1", "--steps", "4",
                     *flags, "--output", str(out), "--format", "json"]) == 0
        ends.append(json.loads(out.read_text())["times"][-1])
    assert ends[1] == ends[0] / 2


def test_format_flag_applies_to_the_config_output(tmp_path, capsys):
    """Without --output, --format changes the format of the config's own
    output path."""
    out = tmp_path / "series.out"
    config = write_json(tmp_path / "config.json", {
        "model": {"random": {"n": 2, "seed": 3}},
        "grid": {"t_end": 2.0, "steps": 4},
        "output": {"path": str(out), "format": "csv"},
    })
    assert main(["simulate", "--config", config, "--format", "json"]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert len(json.loads(out.read_text())["times"]) == 4


def test_simulate_config_output_without_format_writes_csv(tmp_path):
    out = tmp_path / "series.csv"
    config = write_json(tmp_path / "config.json", {
        "model": {"random": {"n": 3, "seed": 9}},
        "grid": {"t_end": 4.0, "steps": 6},
        "output": {"path": str(out)},
    })
    assert main(["simulate", "--config", config]) == 0
    assert out.read_text().startswith("t,re_r,im_r,r_sq,expectation\n")


def test_simulate_json_format(tmp_path):
    out = tmp_path / "series.json"
    assert main(["simulate", "--n", "2", "--seed", "3", "--t-end", "2",
                 "--steps", "4", "--output", str(out),
                 "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["times"]) == 4


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_small_model(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["predict", "--n", "5", "--seed", "2", "--output", str(out)])
    assert code == 0
    assert "verdict: no_verdict" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["n_points"] == 32
    assert payload["verdict"] == "no_verdict"


def test_predict_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["predict", "--n", "12", "--seed", "44"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert sha256(a) == sha256(b)


@pytest.mark.parametrize("command", ["predict", "compare"])
def test_config_output_without_format_writes_json(tmp_path, capsys, command):
    """json is the only format of predict and compare, so it is their default."""
    out = tmp_path / "report.json"
    config = write_json(tmp_path / "cfg.json", {
        "model": {"random": {"n": 5, "seed": 2}},
        "grid": {"t_end": 20.0, "steps": 100},
        "output": {"path": str(out)},
    })
    assert main([command, "--config", config]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload.get("prediction", payload)["verdict"] == "no_verdict"


def test_negative_seed_exits_two_with_field_path(capsys):
    assert main(["predict", "--n", "3", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "config.model.random" in err


def test_predict_threshold_flags(tmp_path, capsys):
    out = tmp_path / "loose.json"
    code = main(["predict", "--n", "16", "--seed", "105",
                 "--cv-max", "30", "--ks-max", "0.30",
                 "--eps-global", "5e-3", "--eps-group", "5e-3",
                 "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == (
        f"verdict: decoheres (n_points=65536; all 5 gates passed)\nwrote {out}\n"
    )
    assert json.loads(out.read_text())["verdict"] == "decoheres"


def test_predict_and_compare_name_each_failed_gate(capsys):
    """The summary names every failed gate with its value and threshold: a
    cap's value lies above it, a floor's below."""
    assert main(["predict", "--n", "16", "--seed", "1"]) == 0
    assert capsys.readouterr().out == (
        "verdict: no_verdict (n_points=65536; failed: gap_cv 5.64696 > 1, ks 0.208011 > 0.2, "
        "max_weight 0.002899 > 0.001, group_deviation 0.002899 > 0.001)\n"
    )
    assert main(["compare", "--n", "20", "--seed", "3", "--equal-coupling", "0.5"]) == 0
    assert capsys.readouterr().out.startswith(
        "verdict: no_verdict (failed: count 21 < 64, max_weight 0.203201 > 0.001, "
        "group_deviation 0.101055 > 0.001); late-time avg |r|^2 = "
    )


def test_predict_rejects_nan_threshold_flags(capsys):
    code = main(["predict", "--n", "10", "--seed", "1", "--cv-max", "nan", "--ks-max", "nan"])
    assert code == 2
    assert "config.verdict.cv_max" in capsys.readouterr().err


def test_nan_in_a_config_file_exits_two(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"model": {"random": {"n": 4, "seed": 1}}, "verdict": {"eps_group": NaN}}')
    assert main(["predict", "--config", str(config)]) == 2
    assert "config.verdict.eps_group" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field", [
    (["simulate", "--t-start", "nan"], "config.grid.t_start"),
    (["simulate", "--t-end", "inf"], "config.grid.t_end"),
    (["compare", "--t-start", "inf"], "config.grid.t_start"),
])
def test_non_finite_grid_bound_exits_two_with_field_path(capsys, argv, field):
    assert main([*argv, "--n", "3", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "5", "--equal-coupling", "1e308"],  # mean|g| overflows: no horizon
    ["simulate", "--n", "2", "--t-start", "1.7e308"],  # the horizon rounds to t_start
    ["compare", "--n", "2", "--t-start", "1.7e308"],
])
def test_degenerate_default_horizon_exits_two_with_field_path(capsys, argv):
    assert main([*argv, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.grid.t_end") and "give t_end" in err


def _flag_cases():
    for f in VERDICT_FIELDS:
        value = 7 if f.kind is int else 0.375
        for command in ("predict", "compare"):
            yield pytest.param(command, f.key, value, id=f"{command}-{f.key}")


@pytest.mark.parametrize("command, key, value", _flag_cases())
def test_verdict_flag_reaches_its_config_field(monkeypatch, command, key, value):
    """Each row of the table is a flag that sets its VerdictConfig field
    (whether the run then succeeds does not matter here)."""
    seen = []
    parse = cli.parse_config
    monkeypatch.setattr(
        cli, "parse_config", lambda data, formats: seen.append(parse(data, formats)) or seen[-1]
    )
    main([command, "--n", "4", "--seed", "1", "--" + key.replace("_", "-"), str(value)])
    assert getattr(seen[0].verdict, key) == value


def test_predict_equal_coupling_sets_degenerate_flag(tmp_path, capsys):
    out = tmp_path / "deg.json"
    code = main(["predict", "--n", "20", "--seed", "1",
                 "--equal-coupling", "0.25", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["has_degenerate_lines"] is True
    assert payload["n_points"] == 21
    assert abs(payload["recurrence_time"] - math.pi / 0.25) < 1e-9


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_consistent_exit_zero(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    config = write_json(tmp_path / "cfg.json", {
        "model": {"random": {"n": 16, "seed": 105}},
        "verdict": {"cv_max": 30.0, "ks_max": 0.30,
                    "eps_global": 5e-3, "eps_group": 5e-3},
        "output": {"path": str(out), "format": "json"},
    })
    code = main(["compare", "--config", config])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("verdict: decoheres (all 5 gates passed); late-time avg")
    assert "agreement: consistent" in stdout
    assert json.loads(out.read_text())["agreement"]["status"] == "consistent"


def test_compare_tension_exit_one(tmp_path, capsys):
    config = write_json(tmp_path / "cfg.json", {
        "model": {"inline": TENSION_MODEL},
        "verdict": dict(TENSION_VERDICT),
    })
    code = main(["compare", "--config", config])
    assert code == 1
    stdout = capsys.readouterr().out
    assert "agreement: tension" in stdout
    assert "exceeds the consistency bound" in stdout


def test_compare_no_verdict_exit_zero(capsys):
    assert main(["compare", "--n", "3", "--seed", "4",
                 "--t-end", "20", "--steps", "100"]) == 0
    assert "verdict: no_verdict" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def test_oracle_check_exit_zero(capsys):
    code = main(["oracle-check", "--n-max", "5", "--cases", "20", "--seed", "3"])
    assert code == 0
    assert "oracle check: 20 cases" in capsys.readouterr().out


def test_oracle_check_rejects_oversized_n(capsys):
    code = main(["oracle-check", "--n-max", "25", "--cases", "5", "--seed", "1"])
    assert code == 2
    assert "oracle cap" in capsys.readouterr().err


def test_oracle_check_rejects_negative_seed(capsys):
    code = main(["oracle-check", "--seed", "-1", "--cases", "2"])
    assert code == 2
    assert "oracle_check.seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_summary_and_csv(tmp_path, capsys):
    out = tmp_path / "lines.csv"
    code = main(["spectrum", "--n", "4", "--seed", "6",
                 "--equal-coupling", "0.5", "--output", str(out)])
    assert code == 0
    assert "5 lines over [-2, 2]" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "omega,weight,multiplicity"
    assert len(lines) == 6


def test_spectrum_writes_only_to_its_output_flag(tmp_path, capsys):
    """The config's output is not spectrum's: only --output gets the CSV."""
    ignored = tmp_path / "ignored.json"
    config = write_json(tmp_path / "cfg.json", {
        "model": {"random": {"n": 3, "seed": 2}},
        "output": {"path": str(ignored), "format": "json"},
    })
    assert main(["spectrum", "--config", config]) == 0
    assert "wrote" not in capsys.readouterr().out
    out = tmp_path / "lines.csv"
    assert main(["spectrum", "--config", config, "--output", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    assert out.read_text().startswith("omega,weight,multiplicity\n")
    assert not ignored.exists()


def test_spectrum_model_file(tmp_path, capsys):
    model = write_json(tmp_path / "model.json", TENSION_MODEL)
    code = main(["spectrum", "--model-file", model])
    assert code == 0
    assert "64 lines" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Error handling and exit codes
# ---------------------------------------------------------------------------

def test_corrupted_model_file_exits_two_with_field_path(tmp_path, capsys):
    model = write_json(tmp_path / "model.json", {
        "a": [1.0, 0.0], "b": [0.0, 0.0],
        "spins": [{"alpha": [0.9, 0.0], "beta": [0.9, 0.0], "g": 1.0}],
    })
    code = main(["predict", "--model-file", model])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "model.inline.spins[0]" in err


def test_missing_seed_exits_two(capsys):
    code = main(["simulate", "--n", "4", "--t-end", "1", "--steps", "4"])
    assert code == 2
    assert "--n and --seed" in capsys.readouterr().err


def test_model_file_conflicts_with_random_flags(tmp_path, capsys):
    model = write_json(tmp_path / "model.json", TENSION_MODEL)
    code = main(["predict", "--model-file", model, "--n", "4"])
    assert code == 2
    assert "conflicts" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--n", "4"), ("--seed", "1"), ("--g-max", "2"), ("--equal-coupling", "0.5"),
    ("--phases", "uniform"),
])
def test_model_file_conflicts_with_every_random_model_flag(tmp_path, capsys, flag, value):
    model = write_json(tmp_path / "model.json", TENSION_MODEL)
    assert main(["simulate", "--model-file", model, flag, value]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: model: --model-file conflicts with {flag}\n"


def test_equal_coupling_conflicts_with_g_max(capsys):
    code = main(["simulate", "--n", "4", "--seed", "1",
                 "--equal-coupling", "0.5", "--g-max", "2.0",
                 "--t-end", "1", "--steps", "4"])
    assert code == 2
    assert "conflicts" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, value, flags", [
    ("simulate", "grid", [1], []),
    ("simulate", "grid", [1], ["--steps", "5"]),
    ("predict", "output", 3, ["--output", "OUT"]),
    ("predict", "output", None, ["--output", "OUT"]),
    ("predict", "output", 3, ["--format", "json"]),
    ("predict", "verdict", 5, ["--cv-max", "1"]),
    ("compare", "verdict", [1], ["--ks-max", "0.5"]),
])
def test_config_section_that_is_not_an_object_exits_two(
    tmp_path, capsys, command, section, value, flags
):
    """Flags merge into a config section; a section that is not an object
    is a config error naming it, not a traceback."""
    config = write_json(tmp_path / "config.json", {
        "model": {"random": {"n": 3, "seed": 1}}, section: value,
    })
    flags = [str(tmp_path / "out.json") if flag == "OUT" else flag for flag in flags]
    assert main([command, "--config", config, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"config.{section}" in err


@pytest.mark.parametrize("flags", [[], ["--steps", "5"]], ids=["no-flag", "steps"])
def test_grid_that_is_a_number_is_refused_by_the_parser(tmp_path, capsys, flags):
    """A flag merges only into a section that is an object; parse_config
    alone refuses any other value, with or without a flag for it."""
    config = write_json(tmp_path / "config.json", {
        "model": {"random": {"n": 3, "seed": 1}}, "grid": 5,
    })
    assert main(["simulate", "--config", config, *flags]) == 2
    assert capsys.readouterr().err == "config error: config.grid: expected an object\n"


def test_unreadable_config_exits_two(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["simulate", "--config", str(bad)])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_config_that_is_not_an_object_exits_two(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", [{"model": {"random": {"n": 2, "seed": 1}}}])
    assert main(["simulate", "--config", config]) == 2
    assert capsys.readouterr().err == "config error: config: expected a JSON object\n"


def test_unwritable_output_exits_two(tmp_path, capsys):
    code = main(["simulate", "--n", "2", "--seed", "1", "--t-end", "1",
                 "--steps", "4",
                 "--output", str(tmp_path / "missing" / "out.csv")])
    assert code == 2
    assert "io error:" in capsys.readouterr().err


def test_cap_violation_exits_two(capsys):
    code = main(["predict", "--n", "30", "--seed", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--q-max", "0", "config.verdict.q_max"),
    ("--rel-tolerance", "2", "config.verdict.rel_tolerance"),
    ("--g-groups", "-3", "config.verdict.g_groups"),
])
def test_bad_verdict_setting_is_refused_before_the_enumeration(capsys, flag, value, field):
    """At N = 30 the enumeration would be refused by its cap; the setting is
    refused first, with its field path."""
    assert main(["predict", "--n", "30", "--seed", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: must ") and "cap" not in err


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_grid_beyond_memory_exits_two(monkeypatch, command, capsys):
    # a small reading stands in for a grid too large for the machine
    monkeypatch.setattr(spectrum, "_available_memory", lambda: 10**5)
    code = main([command, "--n", "2", "--seed", "1", "--steps", "10000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "10000 steps" in err


@pytest.mark.parametrize("command", ["simulate", "predict", "compare", "spectrum"])
def test_random_bath_beyond_memory_exits_two(monkeypatch, command, capsys):
    # a reading of 1 GB stands in for the machine; a billion spins would
    # ask numpy for 16 GB of draws, but are refused before any is made
    monkeypatch.setattr(spectrum, "_available_memory", lambda: 10**9)
    code = main([command, "--n", "1000000000", "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        "error: a random bath of 1000000000 spins needs roughly 1.44e+05 MB; "
        "only 1e+03 MB of memory is free. Reduce n.\n"
    )


def test_equal_couplings_are_charged_for_their_lines(monkeypatch, capsys):
    """With 1 GB free, 26 equal couplings (27 lines) run, and 26 random
    ones (2^26 lines, about 4.3 GB) are refused before the enumeration."""
    monkeypatch.setattr(spectrum, "_available_memory", lambda: 10**9)
    assert main(["predict", "--n", "26", "--seed", "1", "--equal-coupling", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("verdict: no_verdict (n_points=27;")
    assert main(["predict", "--n", "26", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: spectral enumeration over 26 spins holds 2^26 values and needs "
        "roughly 4.29e+03 MB; only 1e+03 MB of memory is free. Reduce N.\n"
    )


def _refuse_doubling(monkeypatch):
    def unreached(*args):
        raise AssertionError("the doubling ran")

    monkeypatch.setattr(spectrum, "_doubled_terms", unreached)


def test_counts_beyond_int64_exit_two_before_enumerating(tmp_path, capsys, monkeypatch):
    _refuse_doubling(monkeypatch)
    out = tmp_path / "predict.json"
    code = main(["predict", "--n", "63", "--seed", "1", "--equal-coupling", "0.5",
                 "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: spectral enumeration over 63 spins") and "int64 limit" in err
    assert not out.exists()


def test_equal_couplings_run_past_26_spins(capsys):
    """The cap bounds the distinct sums: 40 equal couplings give 41 lines,
    and 62, the int64 limit of the counts, run through compare."""
    assert main(["predict", "--n", "40", "--seed", "1", "--equal-coupling", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("verdict: no_verdict (n_points=41;")
    assert main(["compare", "--n", "62", "--seed", "1", "--equal-coupling", "0.5"]) == 0


def test_lattice_couplings_run_past_26_spins(tmp_path, capsys):
    """Couplings k / 8 for k = 1 to 30 hold at most 466 distinct sums."""
    spin = {"alpha": [0.6, 0.0], "beta": [0.8, 0.0]}
    model = write_json(tmp_path / "model.json", {
        "a": [1.0, 0.0], "b": [0.0, 0.0],
        "spins": [{**spin, "g": k / 8} for k in range(1, 31)],
    })
    assert main(["predict", "--model-file", model]) == 0
    assert capsys.readouterr().out.startswith("verdict: no_verdict (n_points=466;")


def test_random_couplings_past_26_spins_exit_two_before_enumerating(capsys, monkeypatch):
    _refuse_doubling(monkeypatch)
    assert main(["predict", "--n", "27", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: spectral enumeration over 27 spins holds 2^27 values")
    assert err.endswith("; the cap is 2^26 distinct sums. Reduce N.\n")


def test_the_enumeration_cap_is_no_setting(tmp_path, capsys):
    """Neither the cap nor a merge radius is a flag or a config key: the
    spectral route has no setting."""
    for key, value in (("enumeration_cap", 3), ("omega_tolerance", 0)):
        for command in ("predict", "compare", "spectrum"):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args([command, "--" + key.replace("_", "-"), str(value)])
            assert info.value.code == 2
            config = write_json(tmp_path / "config.json", {
                "model": {"random": {"n": 4, "seed": 1}}, "verdict": {key: value},
            })
            capsys.readouterr()
            assert main([command, "--config", config]) == 2
            assert capsys.readouterr().err == f"config error: config.verdict.{key}: unknown field\n"


def test_lines_spanning_beyond_the_float_range_exit_two(tmp_path, capsys):
    """Couplings summing to 1.5e308 are floats, but their lines span 3e308:
    refused with no warning and no artifact, not written as nan."""
    spin = {"alpha": [0.6, 0.0], "beta": [0.8, 0.0]}
    model = write_json(tmp_path / "model.json", {
        "a": [1.0, 0.0], "b": [0.0, 0.0],
        "spins": [{**spin, "g": g} for g in (6e307, 5e307, 4e307)],
    })
    out = tmp_path / "predict.json"
    code = main(["predict", "--model-file", model, "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "span beyond the float range" in err
    assert "Warning" not in err
    assert not out.exists()


def test_gap_spread_beyond_the_float_range_exits_two(tmp_path, capsys):
    """Lines within 3e200 of each other span a finite range, but their gap
    spread squares beyond it: refused with no warning and no artifact, not
    written as an infinite qc_gap_cv."""
    spin = {"alpha": [0.6, 0.0], "beta": [0.8, 0.0]}
    model = write_json(tmp_path / "model.json", {
        "a": [1.0, 0.0], "b": [0.0, 0.0],
        "spins": [{**spin, "g": g} for g in (1e200, 3e199, 1e199)],
    })
    out = tmp_path / "predict.json"
    code = main(["predict", "--model-file", model, "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gap spread" in err and "beyond the float range" in err
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "compare", "spectrum"])
def test_couplings_summing_beyond_the_float_range_exit_two(command, capsys):
    code = main([command, "--n", "5", "--seed", "1", "--equal-coupling", "1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beyond the float range" in err
