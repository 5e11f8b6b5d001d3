"""Config parsing, deterministic file output, and the run pipelines."""

import dataclasses
import hashlib
import json
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinbath import (
    CapExceededError,
    ConfigError,
    RelevantObservable,
    Verdict,
    decoherence_verdict,
    generate_random,
    new_model,
    spectral_decomposition,
)
from spinbath import harness, spectrum
from spinbath.cli import main
from spinbath.evolution import sample_series
from spinbath.harness import (
    Agreement,
    DecayStats,
    FLOAT_FORMAT,
    OUTPUT_FORMATS,
    OutputSpec,
    TimeGrid,
    VERDICT_FIELDS,
    _BYTES_PER_STEP,
    _atomic_write,
    _dump_json,
    assess_agreement,
    decomposition_to_csv,
    model_from_dict,
    model_to_dict,
    parse_config,
    run_compare,
    run_oracle_check,
    run_predict,
    run_simulate,
    run_spectrum,
    series_to_csv,
    series_to_jsonable,
    write_json,
)
from spinbath.lemma import VerdictConfig
from spinbath.model import Equal, PhaseLaw, UniformPositive

from conftest import ROOT_HALF, bounded_model, use_cpus

LOOSE_VERDICT = {
    "cv_max": 30.0, "ks_max": 0.30, "eps_global": 5e-3, "eps_group": 5e-3,
}

# couplings spread by distinct powers of two keep all 64 signed sums
# distinct while the dynamics stay effectively equal-coupling
TENSION_MODEL = {
    "a": [ROOT_HALF, 0.0],
    "b": [ROOT_HALF, 0.0],
    "spins": [
        {"alpha": [ROOT_HALF, 0.0], "beta": [ROOT_HALF, 0.0],
         "g": 1.0 + (2.0 ** i) * 1e-7}
        for i in range(6)
    ],
}
TENSION_VERDICT = {"cv_max": 1e9, "ks_max": 1.0, "eps_global": 0.02, "eps_group": 1.0}

SIMULATE = OUTPUT_FORMATS["simulate"]
PREDICT = OUTPUT_FORMATS["predict"]
COMPARE = OUTPUT_FORMATS["compare"]
SPECTRUM = OUTPUT_FORMATS["spectrum"]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_config_full_document():
    config = parse_config({
        "model": {"random": {"n": 8, "seed": 3,
                             "coupling": {"law": "equal", "g": 0.4},
                             "phases": "uniform"}},
        "grid": {"t_start": 1.0, "t_end": 5.0, "steps": 100},
        "observable": {"s_uu": 1.0, "s_dd": -1.0, "s_du": [0.5, -0.5]},
        "verdict": {"n_min": 32, "eps_global": 1e-2},
        "output": {"path": "out.csv", "format": "csv"},
    }, SIMULATE)
    assert config.model == generate_random(8, 3, Equal(0.4), PhaseLaw.UNIFORM)
    assert config.grid == TimeGrid(1.0, 5.0, 100)
    assert config.observable == RelevantObservable(1.0, -1.0, 0.5 - 0.5j)
    assert config.verdict.n_min == 32
    assert config.verdict.eps_global == 1e-2
    assert config.verdict.cv_max == 1.0  # untouched default
    assert config.output == OutputSpec("out.csv", "csv")


def test_parse_config_minimal_defaults():
    config = parse_config({"model": {"random": {"n": 4, "seed": 1}}}, SIMULATE)
    model = generate_random(4, 1, UniformPositive(1.0), PhaseLaw.ZERO)
    assert config.model == model
    mean_g = sum(abs(g) for g in model.g.tolist()) / 4
    assert config.grid == TimeGrid(0.0, 20.0 / mean_g, 2000)
    assert config.observable is None
    assert config.verdict == VerdictConfig()
    assert config.output is None


def test_parse_config_inline_model():
    config = parse_config({"model": {"inline": {
        "a": [1.0, 0.0], "b": [0.0, 0.0],
        "spins": [{"alpha": [0.6, 0.0], "beta": [0.8, 0.0], "g": 2.0}],
    }}}, SIMULATE)
    assert config.model.n_spins == 1
    assert config.model.g.tolist() == [2.0]


def with_random_2(**sections):
    return {"model": {"random": {"n": 2, "seed": 1}}, **sections}


def random_2(**keys):
    return {"model": {"random": {"n": 2, "seed": 1, **keys}}}


# Each row names its id, so a row may go anywhere in the list without
# renaming the others; the ids are the ones the rows had when pytest
# numbered them by position.
@pytest.mark.parametrize("doc, path", [
    pytest.param({}, "config.model", id="doc0-config.model"),
    pytest.param({"model": {}}, "config.model", id="doc1-config.model"),
    pytest.param({"model": {"random": {"n": 2, "seed": 1}, "inline": {}}}, "config.model",
                 id="doc2-config.model"),
    pytest.param({"model": {"random": {"seed": 1}}}, "config.model.random.n",
                 id="doc3-config.model.random.n"),
    pytest.param(random_2(spam=0), "config.model.random.spam",
                 id="doc4-config.model.random.spam"),
    pytest.param({"model": {"random": {"n": True, "seed": 1}}}, "config.model.random.n",
                 id="doc5-config.model.random.n"),
    pytest.param(random_2(coupling={"law": "harmonic"}), "config.model.random.coupling.law",
                 id="doc6-config.model.random.coupling.law"),
    pytest.param(random_2(phases="none"), "config.model.random.phases",
                 id="doc7-config.model.random.phases"),
    pytest.param(with_random_2(grid={"steps": 1}), "config.grid.steps",
                 id="doc8-config.grid.steps"),
    pytest.param(with_random_2(grid={"t_start": 2.0, "t_end": 1.0}), "config.grid.t_end",
                 id="doc9-config.grid.t_end"),
    pytest.param(with_random_2(observable={"s_uu": 0.0}), "config.observable.s_dd",
                 id="doc10-config.observable.s_dd"),
    pytest.param(with_random_2(verdict={"n_max": 5}), "config.verdict.n_max",
                 id="doc11-config.verdict.n_max"),
    pytest.param(with_random_2(output={"format": "csv"}), "config.output.path",
                 id="doc12-config.output.path"),
    pytest.param(with_random_2(output={"path": "x", "format": "xml"}), "config.output.format",
                 id="doc13-config.output.format"),
    pytest.param(with_random_2(extra=1), "config.extra", id="doc14-config.extra"),
    # generate_random refuses these; numpy refuses the negative seed
    pytest.param({"model": {"random": {"n": 0, "seed": 1}}}, "config.model.random",
                 id="doc15-config.model.random"),
    pytest.param({"model": {"random": {"n": 2, "seed": -1}}}, "config.model.random",
                 id="doc16-config.model.random"),
    pytest.param(random_2(coupling={"law": "uniform_positive", "g_max": -1.0}),
                 "config.model.random", id="doc17-config.model.random"),
    # non-finite grid bounds
    pytest.param(with_random_2(grid={"t_start": math.nan}), "config.grid.t_start",
                 id="doc18-config.grid.t_start"),
    pytest.param(with_random_2(grid={"t_start": -math.inf, "t_end": 1.0}),
                 "config.grid.t_start", id="doc19-config.grid.t_start"),
    pytest.param(with_random_2(grid={"t_end": math.inf}), "config.grid.t_end",
                 id="doc20-config.grid.t_end"),
    pytest.param(with_random_2(grid={"t_end": math.nan}), "config.grid.t_end",
                 id="doc21-config.grid.t_end"),
    # a coupling takes only its own law's keys
    pytest.param(random_2(coupling={"law": "equal", "g": 0.5, "g_max": 7}),
                 "config.model.random.coupling.g_max",
                 id="doc22-config.model.random.coupling.g_max"),
    pytest.param(random_2(coupling={"law": "uniform_positive", "g": 0.5}),
                 "config.model.random.coupling.g", id="doc23-config.model.random.coupling.g"),
    # the inline model's own checks: an unnormalized system pair
    pytest.param({"model": {"inline": {
        "a": [1.0, 0.0], "b": [1.0, 0.0],
        "spins": [{"alpha": [1.0, 0.0], "beta": [0.0, 0.0], "g": 1.0}],
    }}}, "config.model.inline", id="doc24-config.model.inline"),
    # RelevantObservable's own check: a non-finite entry
    pytest.param(with_random_2(observable={"s_uu": math.nan, "s_dd": 1.0}),
                 "config.observable", id="doc25-config.observable"),
    pytest.param(with_random_2(output={"path": ""}), "config.output.path",
                 id="doc26-config.output.path"),
    # the bath's checks name the first bad spin of an inline model
    pytest.param({"model": {"inline": {
        "a": [1.0, 0.0], "b": [0.0, 0.0],
        "spins": [{"alpha": [1.0, 0.0], "beta": [0.0, 0.0], "g": 1.0},
                  {"alpha": [1.0, 0.0], "beta": [0.0, 0.0], "g": 0.0}],
    }}}, "config.model.inline.spins[1]", id="doc27-config.model.inline.spins[1]"),
    # every spin's keys are parsed before any spin's values are checked
    pytest.param({"model": {"inline": {
        "a": [1.0, 0.0], "b": [0.0, 0.0],
        "spins": [{"alpha": [0.9, 0.0], "beta": [0.9, 0.0], "g": 1.0},
                  {"alpha": [1.0, 0.0], "beta": [0.0, 0.0], "g": "x"}],
    }}}, "config.model.inline.spins[1].g", id="doc28-config.model.inline.spins[1].g"),
    # the recurrence search and the partition have no setting: each key is unknown
    pytest.param(with_random_2(verdict={"q_max": 0}), "config.verdict.q_max",
                 id="doc29-config.verdict.q_max"),
    pytest.param(with_random_2(verdict={"rel_tolerance": 2.0}), "config.verdict.rel_tolerance",
                 id="doc30-config.verdict.rel_tolerance"),
    pytest.param(with_random_2(verdict={"rel_tolerance": 0.0}), "config.verdict.rel_tolerance",
                 id="doc31-config.verdict.rel_tolerance"),
    pytest.param(with_random_2(verdict={"rel_tolerance": math.inf}),
                 "config.verdict.rel_tolerance", id="doc32-config.verdict.rel_tolerance"),
    pytest.param(with_random_2(verdict={"g_groups": -3}), "config.verdict.g_groups",
                 id="doc33-config.verdict.g_groups"),
    pytest.param(with_random_2(verdict={"g_groups": 0}), "config.verdict.g_groups",
                 id="doc34-config.verdict.g_groups"),
])
def test_parse_config_reports_field_paths(doc, path):
    with pytest.raises(ConfigError) as info:
        parse_config(doc, SIMULATE)
    assert info.value.field_path == path


@pytest.mark.parametrize("formats, fmt", [
    (PREDICT, "csv"), (COMPARE, "csv"), (SPECTRUM, "json"),
])
def test_parse_config_refuses_a_format_the_command_does_not_write(formats, fmt):
    with pytest.raises(ConfigError) as info:
        parse_config({"model": {"random": {"n": 2, "seed": 1}},
                      "output": {"path": "x", "format": fmt}}, formats)
    assert info.value.field_path == "config.output.format"


@pytest.mark.parametrize("command", sorted(OUTPUT_FORMATS))
def test_parse_config_output_format_defaults_per_command(command):
    formats = OUTPUT_FORMATS[command]
    config = parse_config({"model": {"random": {"n": 2, "seed": 1}},
                           "output": {"path": "x"}}, formats)
    assert config.output == OutputSpec("x", formats[0])


def test_an_unknown_key_is_reported_before_a_missing_one():
    doc = {"model": {"inline": {"a": [1.0, 0.0], "spam": 1}}}
    with pytest.raises(ConfigError) as info:
        parse_config(doc, SIMULATE)
    assert info.value.field_path == "config.model.inline.spam"


def test_a_uniform_coupling_without_g_max_takes_g_max_one():
    coupling = {"law": "uniform_positive"}
    doc = {"model": {"random": {"n": 3, "seed": 2, "coupling": coupling}}}
    assert parse_config(doc, SIMULATE).model == generate_random(3, 2, UniformPositive(1.0))


def test_verdict_fields_are_the_verdict_config_fields_in_order():
    assert [f.key for f in VERDICT_FIELDS] == [f.name for f in dataclasses.fields(VerdictConfig)]


REAL_KEYS = [f.key for f in VERDICT_FIELDS if f.kind is float]


def parse_verdict(section):
    return parse_config(
        {"model": {"random": {"n": 2, "seed": 1}}, "verdict": section}, PREDICT
    ).verdict


@pytest.mark.parametrize("key", REAL_KEYS)
def test_verdict_rejects_nan(key):
    """NaN fails every comparison, so a NaN gate would never pass."""
    with pytest.raises(ConfigError) as info:
        parse_verdict({key: math.nan})
    assert info.value.field_path == f"config.verdict.{key}"


@pytest.mark.parametrize("key", REAL_KEYS)
def test_verdict_accepts_infinities(key):
    for value in (math.inf, -math.inf):
        assert getattr(parse_verdict({key: value}), key) == value


def test_verdict_null_rules():
    """A null is refused for every verdict key: none stands for a default."""
    for f in VERDICT_FIELDS:
        with pytest.raises(ConfigError) as info:
            parse_verdict({f.key: None})
        assert info.value.field_path == f"config.verdict.{f.key}"


def inline_grid(model, grid):
    return parse_config({"model": {"inline": model_to_dict(model)}, "grid": grid}, SIMULATE).grid


def test_parse_config_default_horizon(rng):
    m = bounded_model(5, rng)
    mean_g = sum(abs(g) for g in m.g.tolist()) / 5
    grid = inline_grid(m, {})
    assert grid.t_start == 0.0 and grid.steps == 2000
    assert abs(grid.t_end - 20.0 / mean_g) < 1e-12
    grid = inline_grid(m, {"t_start": 3.0})
    assert abs(grid.t_end - (3.0 + 20.0 / mean_g)) < 1e-12
    assert inline_grid(m, {"t_start": 0.0, "t_end": 9.0, "steps": 10}) == TimeGrid(0.0, 9.0, 10)


def test_parse_config_builds_random_and_inline_models(rng):
    direct = generate_random(4, 9)
    random_doc = {"model": {"random": {"n": 4, "seed": 9}}}
    assert parse_config(random_doc, SIMULATE).model == direct
    inline_doc = {"model": {"inline": model_to_dict(direct)}}
    assert parse_config(inline_doc, SIMULATE).model == direct


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def test_fmt_round_trips_doubles(rng):
    values = list(rng.uniform(-1e6, 1e6, size=200))
    values += [1e-300, 1e300, math.pi, 2.0**-52, 0.1]
    for x in values:
        assert float(format(x, FLOAT_FORMAT)) == x


def test_dump_json_fixed_point():
    payload = {"a": 0.1, "b": [True, False, None], "c": "text", "n": 42}
    text = "".join(_dump_json(payload))
    assert '"a": 0.10000000000000001' in text
    assert '"b": [\n    true,\n    false,\n    null\n  ]' in text
    assert json.loads(text) == {"a": 0.1, "b": [True, False, None],
                                "c": "text", "n": 42}


def test_dump_json_writes_empty_containers_on_one_line():
    assert "".join(_dump_json({"a": {}, "b": [], "c": np.array([])})) == (
        '{\n  "a": {},\n  "b": [],\n  "c": []\n}'
    )
    assert "".join(_dump_json({})) == "{}" and "".join(_dump_json([])) == "[]"


def test_dump_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        "".join(_dump_json({"x": object()}))


def test_series_to_csv_golden(tmp_path):
    m = new_model(ROOT_HALF, ROOT_HALF, [(ROOT_HALF, ROOT_HALF, 1.0)])
    series = sample_series(m, 0.0, 1.0, 3, RelevantObservable(1.0, -1.0, 0.5))
    out = tmp_path / "series.csv"
    series_to_csv(str(out), series)
    assert out.read_text() == (
        "t,re_r,im_r,r_sq,expectation\n"
        "0,1.0000000000000002,0,1.0000000000000004,0.50000000000000022\n"
        "0.5,0.87758256189037298,0,0.77015115293407033,0.4387912809451866\n"
        "1,0.54030230586813988,0,0.29192658172642899,0.27015115293406999\n"
    )


def test_simulate_json_golden(tmp_path):
    """The same series as test_series_to_csv_golden, through simulate --format json."""
    out = tmp_path / "series.json"
    run_simulate(parse_config({
        "model": {"inline": {
            "a": [ROOT_HALF, 0.0], "b": [ROOT_HALF, 0.0],
            "spins": [{"alpha": [ROOT_HALF, 0.0], "beta": [ROOT_HALF, 0.0], "g": 1.0}],
        }},
        "grid": {"t_start": 0.0, "t_end": 1.0, "steps": 3},
        "observable": {"s_uu": 1.0, "s_dd": -1.0, "s_du": [0.5, 0.0]},
        "output": {"path": str(out), "format": "json"},
    }, SIMULATE))
    assert out.read_text() == (
        '{\n'
        '  "times": [\n    0,\n    0.5,\n    1\n  ],\n'
        '  "re_r": [\n    1.0000000000000002,\n    0.87758256189037298,\n'
        '    0.54030230586813988\n  ],\n'
        '  "im_r": [\n    0,\n    0,\n    0\n  ],\n'
        '  "r_sq": [\n    1.0000000000000004,\n    0.77015115293407033,\n'
        '    0.29192658172642899\n  ],\n'
        '  "expectation": [\n    0.50000000000000022,\n    0.4387912809451866,\n'
        '    0.27015115293406999\n  ]\n'
        '}\n'
    )


def test_series_to_csv_blank_expectation_column(rng, tmp_path):
    series = sample_series(bounded_model(2, rng), 0.0, 1.0, 3)
    out = tmp_path / "series.csv"
    series_to_csv(str(out), series)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,re_r,im_r,r_sq,expectation"
    assert all(line.endswith(",") for line in lines[1:])


def test_series_to_jsonable_shape(rng):
    series = sample_series(bounded_model(2, rng), 0.0, 1.0, 4)
    payload = series_to_jsonable(series)
    assert set(payload) == {"times", "re_r", "im_r", "r_sq", "expectation"}
    assert payload["expectation"] is None
    assert len(payload["times"]) == 4


def test_decomposition_to_csv_golden(tmp_path):
    m = new_model(ROOT_HALF, ROOT_HALF,
                  [(ROOT_HALF, ROOT_HALF, 0.5), (ROOT_HALF, ROOT_HALF, 0.5)])
    out = tmp_path / "lines.csv"
    decomposition_to_csv(str(out), spectral_decomposition(m))
    assert out.read_text() == (
        "omega,weight,multiplicity\n"
        "-1,0.25000000000000011,1\n"
        "0,0.50000000000000022,2\n"
        "1,0.25000000000000011,1\n"
    )


def _artifacts(directory, rows):
    """Bytes of the series CSV, the series JSON and the spectrum CSV, each
    of ``rows`` rows."""
    m = new_model(ROOT_HALF, ROOT_HALF, [(ROOT_HALF, ROOT_HALF, 0.5)] * 2)
    series = sample_series(m, 0.0, 3.0, rows, RelevantObservable(1.0, -1.0, 0.5))
    series_to_csv(str(directory / "series.csv"), series)
    write_json(str(directory / "series.json"), series_to_jsonable(series))
    # equal couplings over n spins give n + 1 lines
    dec = spectral_decomposition(generate_random(rows - 1, 3, Equal(0.5)))
    decomposition_to_csv(str(directory / "lines.csv"), dec)
    return [(directory / name).read_bytes() for name in ("series.csv", "series.json", "lines.csv")]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_artifact_bytes_do_not_depend_on_the_chunk_size(monkeypatch, tmp_path, chunk, offset):
    rows = 3 * chunk + offset  # just below, at and above a multiple of the chunk
    assert rows < harness._CHUNK_ROWS
    (tmp_path / "one").mkdir()
    (tmp_path / "chunked").mkdir()
    whole = _artifacts(tmp_path / "one", rows)
    monkeypatch.setattr(harness, "_CHUNK_ROWS", chunk)
    assert _artifacts(tmp_path / "chunked", rows) == whole


def _fails_partway():
    yield "half of a new artifact"
    raise RuntimeError("failed while making the text")


@pytest.mark.parametrize("write, error", [
    (lambda path: _atomic_write(path, ["head\n"], _fails_partway()), RuntimeError),
    (lambda path: write_json(path, {"r": np.arange(600.0), "x": object()}), TypeError),
])
def test_failing_pieces_leave_the_previous_artifact(tmp_path, write, error):
    out = tmp_path / "artifact"
    out.write_text("previous\n")
    with pytest.raises(error):
        write(str(out))
    assert out.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["artifact"]


# ---------------------------------------------------------------------------
# Pipelines and files
# ---------------------------------------------------------------------------

def test_run_simulate_writes_deterministic_csv(tmp_path):
    out = tmp_path / "series.csv"
    config = parse_config({
        "model": {"random": {"n": 5, "seed": 11}},
        "grid": {"t_end": 10.0, "steps": 50},
        "output": {"path": str(out), "format": "csv"},
    }, SIMULATE)
    series = run_simulate(config)
    assert len(series) == 50
    first = sha256(out)
    run_simulate(config)
    assert sha256(out) == first
    text = out.read_text()
    assert text.startswith("t,re_r,im_r,r_sq,expectation\n")
    assert len(text.strip().split("\n")) == 51
    assert not any(name.startswith(".spinbath-") for name in os.listdir(tmp_path))


def test_run_simulate_json_output(tmp_path):
    out = tmp_path / "series.json"
    config = parse_config({
        "model": {"random": {"n": 3, "seed": 2}},
        "grid": {"t_end": 5.0, "steps": 8},
        "observable": {"s_uu": 1.0, "s_dd": -1.0},
        "output": {"path": str(out), "format": "json"},
    }, SIMULATE)
    run_simulate(config)
    payload = json.loads(out.read_text())
    assert len(payload["expectation"]) == 8
    series = sample_series(generate_random(3, 2), 0.0, 5.0, 8,
                           RelevantObservable(1.0, -1.0))
    assert payload["re_r"][3] == float(series.r_values[3].real)


@pytest.mark.parametrize("command, fmt", [
    ("simulate", None), ("simulate", "csv"), ("simulate", "json"), ("compare", None),
])
def test_grid_beyond_memory_is_refused_up_front(monkeypatch, tmp_path, command, fmt):
    """One estimate per step, whatever the output: its text costs one chunk."""
    steps = 1000
    doc = {"model": {"random": {"n": 3, "seed": 1}}, "grid": {"steps": steps}}
    out = tmp_path / "out"
    if command == "compare" or fmt is not None:
        doc["output"] = {"path": str(out), **({"format": fmt} if fmt else {})}
    config = parse_config(doc, OUTPUT_FORMATS[command])
    run = run_simulate if command == "simulate" else run_compare
    need = steps * _BYTES_PER_STEP
    monkeypatch.setattr(spectrum, "_available_memory", lambda: need - 1)
    with pytest.raises(CapExceededError, match=f"{steps} steps.*free"):
        run(config)
    assert not out.exists()
    monkeypatch.setattr(spectrum, "_available_memory", lambda: need)
    run(config)


def test_random_bath_beyond_memory_is_refused_before_its_draw(monkeypatch):
    """One estimate per spin, checked before generate_random runs."""
    drawn = []
    monkeypatch.setattr(harness, "generate_random",
                        lambda *args: drawn.append(args) or generate_random(*args))
    doc = {"model": {"random": {"n": 3, "seed": 1}}}
    need = 3 * harness._BYTES_PER_SPIN
    monkeypatch.setattr(spectrum, "_available_memory", lambda: need - 1)
    with pytest.raises(CapExceededError) as info:
        parse_config(doc, SIMULATE)
    assert str(info.value) == (
        f"a random bath of 3 spins needs roughly {need / 1e6:.3g} MB; only "
        f"{(need - 1) / 1e6:.3g} MB of memory is free. Reduce n."
    )
    assert not drawn
    monkeypatch.setattr(spectrum, "_available_memory", lambda: need)
    assert parse_config(doc, SIMULATE).model == generate_random(3, 1)
    assert len(drawn) == 1


def test_atomic_write_fails_cleanly_on_missing_directory(tmp_path):
    config = parse_config({
        "model": {"random": {"n": 2, "seed": 1}},
        "grid": {"t_end": 1.0, "steps": 4},
        "output": {"path": str(tmp_path / "nosuchdir" / "x.csv"), "format": "csv"},
    }, SIMULATE)
    with pytest.raises(OSError):
        run_simulate(config)


def test_run_predict_payload(tmp_path):
    out = tmp_path / "report.json"
    config = parse_config({
        "model": {"random": {"n": 6, "seed": 4}},
        "output": {"path": str(out), "format": "json"},
    }, PREDICT)
    report = run_predict(config)
    assert report == decoherence_verdict(generate_random(6, 4))
    payload = json.loads(out.read_text())
    assert payload["n_spins"] == 6
    assert abs(payload["sum_of_weights"] - 1.0) <= 1e-12
    assert payload["verdict"] == "no_verdict"
    assert payload["n_points"] == 64
    assert list(payload) == [
        "n_spins", "sum_of_weights", "n_points", "quasi_continuous",
        "qc_gap_cv", "qc_ks_stat", "in_l1", "l1_max_weight",
        "l1_max_group_deviation", "recurrence_time",
        "lemma_sum_magnitude_at_half_tp", "verdict", "has_degenerate_lines",
    ]


@pytest.mark.parametrize("doc", [
    {"model": {"random": {"n": 16, "seed": 105}}, "verdict": dict(LOOSE_VERDICT)},
    {"model": {"random": {"n": 8, "seed": 2, "coupling": {"law": "equal", "g": 0.5}}}},
    {"model": {"inline": TENSION_MODEL}, "verdict": TENSION_VERDICT},
])
def test_compare_prediction_is_the_predict_payload(tmp_path, doc):
    predicted, compared = tmp_path / "predict.json", tmp_path / "compare.json"
    run_predict(parse_config({**doc, "output": {"path": str(predicted)}}, PREDICT))
    run_compare(parse_config({**doc, "output": {"path": str(compared)}}, COMPARE))
    payload = json.loads(predicted.read_text())
    prediction = json.loads(compared.read_text())["prediction"]
    assert list(prediction) == list(payload)
    assert prediction == payload


def test_predict_config_rejects_csv_output(tmp_path):
    with pytest.raises(ConfigError) as info:
        parse_config({
            "model": {"random": {"n": 4, "seed": 1}},
            "output": {"path": str(tmp_path / "x.csv"), "format": "csv"},
        }, PREDICT)
    assert info.value.field_path == "config.output.format"


def test_run_spectrum_writes_csv_only(tmp_path):
    out = tmp_path / "lines.csv"
    doc = {"model": {"random": {"n": 3, "seed": 2}}, "output": {"path": str(out)}}
    dec = run_spectrum(parse_config(doc, SPECTRUM))
    decomposition_to_csv(str(tmp_path / "direct.csv"), dec)
    assert out.read_text() == (tmp_path / "direct.csv").read_text()
    with pytest.raises(ConfigError) as info:
        parse_config({**doc, "output": {"path": str(out), "format": "json"}}, SPECTRUM)
    assert info.value.field_path == "config.output.format"


def test_run_predict_deterministic_bytes(tmp_path):
    out = tmp_path / "report.json"
    config = parse_config({
        "model": {"random": {"n": 10, "seed": 31}},
        "output": {"path": str(out), "format": "json"},
    }, PREDICT)
    run_predict(config)
    first = sha256(out)
    run_predict(config)
    assert sha256(out) == first


def test_run_compare_consistent_when_verdict_fires(tmp_path):
    out = tmp_path / "cmp.json"
    config = parse_config({
        "model": {"random": {"n": 16, "seed": 105}},
        "verdict": dict(LOOSE_VERDICT),
        "output": {"path": str(out), "format": "json"},
    }, COMPARE)
    result = run_compare(config)
    assert result.prediction.verdict is Verdict.DECOHERES
    assert result.agreement.consistent
    assert result.decay_stats.time_avg_r_sq_last_half < 1e-3
    payload = json.loads(out.read_text())
    assert set(payload) == {"prediction", "decay_stats", "agreement"}
    assert payload["agreement"]["status"] == "consistent"
    assert payload["decay_stats"]["lower_bound"] >= 0.0


def test_run_compare_no_verdict_is_vacuously_consistent(rng):
    config = parse_config({"model": {"random": {"n": 4, "seed": 8}},
                           "grid": {"t_end": 30.0, "steps": 500}}, COMPARE)
    result = run_compare(config)
    assert result.prediction.verdict is Verdict.NO_VERDICT
    assert result.agreement.consistent
    assert "nothing to contradict" in result.agreement.description


def test_run_compare_detects_tension(tmp_path):
    """Absurdly wide gates force a Decoheres verdict on a bath that keeps
    |r|^2 large; the reconciliation must flag it rather than average it
    away."""
    out = tmp_path / "tension.json"
    config = parse_config({
        "model": {"inline": TENSION_MODEL},
        "verdict": dict(TENSION_VERDICT),
        "output": {"path": str(out), "format": "json"},
    }, COMPARE)
    result = run_compare(config)
    assert result.prediction.verdict is Verdict.DECOHERES
    assert not result.agreement.consistent
    assert "exceeds the consistency bound" in result.agreement.description
    payload = json.loads(out.read_text())
    assert payload["agreement"]["status"] == "tension"


def test_assess_agreement_branches():
    base = decoherence_verdict(generate_random(16, 105), VerdictConfig())
    assert base.verdict is Verdict.NO_VERDICT
    stats = DecayStats(0.5, 0.5, 0.2, 0.0)
    verdict_free = assess_agreement(base, stats)
    assert verdict_free.consistent

    fired = decoherence_verdict(
        generate_random(16, 105),
        VerdictConfig(cv_max=30.0, ks_max=0.30, eps_global=5e-3, eps_group=5e-3),
    )
    ok = assess_agreement(fired, DecayStats(0.01, 1e-5, 0.0, 0.0))
    assert ok.consistent and ok.description is None
    bad = assess_agreement(fired, DecayStats(0.5, 0.5, 0.2, 0.0))
    assert not bad.consistent


def test_decay_stats_guard_against_bound_violation():
    with pytest.raises(Exception):
        DecayStats(0.5, 0.5, 0.1, 0.5)


def test_agreement_to_dict():
    assert Agreement(True, None).to_dict() == {
        "status": "consistent", "description": None}
    assert Agreement(False, "why").to_dict() == {
        "status": "tension", "description": "why"}


# ---------------------------------------------------------------------------
# Oracle check
# ---------------------------------------------------------------------------

def test_run_oracle_check_passes():
    summary = run_oracle_check(n_max=6, cases=30, seed=1)
    assert summary.passed
    assert summary.cases == 30
    assert summary.failures == ()
    assert summary.max_abs_error < 1e-10
    assert summary.tolerance == 1e-10


def test_run_oracle_check_is_seeded():
    a = run_oracle_check(n_max=4, cases=5, seed=77)
    b = run_oracle_check(n_max=4, cases=5, seed=77)
    assert a.max_abs_error == b.max_abs_error


def test_run_oracle_check_validation():
    with pytest.raises(ConfigError):
        run_oracle_check(n_max=0, cases=10, seed=1)
    with pytest.raises(ConfigError):
        run_oracle_check(n_max=13, cases=10, seed=1)
    with pytest.raises(ConfigError):
        run_oracle_check(n_max=4, cases=0, seed=1)


def test_run_oracle_check_rejects_negative_seed():
    with pytest.raises(ConfigError) as info:
        run_oracle_check(n_max=4, cases=2, seed=-1)
    assert info.value.field_path == "oracle_check.seed"


def drawn_oracle_cases(n_max, cases, seed):
    """(n, model seed, t) per case, drawn in the order run_oracle_check documents."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(cases):
        n = int(rng.integers(1, n_max + 1))
        model_seed = int(rng.integers(0, 2**63))
        rng.uniform(-0.5, 0.5, size=4)
        rng.uniform(-0.5, 0.5, size=(n, 4))
        drawn.append((n, model_seed, 50.0 * rng.random()))
    return drawn


def five_call_cases(n_max, cases, seed):
    """(n, model seed, system, env, t) per case, drawn with one generator
    call per part, as run_oracle_check drew them before one draw per case."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(cases):
        n = int(rng.integers(1, n_max + 1))
        model_seed = int(rng.integers(0, 2**63))
        system = rng.uniform(-0.5, 0.5, size=4)
        env = rng.uniform(-0.5, 0.5, size=(n, 4))
        drawn.append((n, model_seed, system, env, 50.0 * rng.random()))
    return drawn


@pytest.mark.parametrize("seed", [1, 1646266295])
def test_one_draw_per_case_reads_the_five_call_cases(monkeypatch, seed):
    """Every case of run_oracle_check, as the stacked oracle receives it,
    equals the five-call draw byte for byte, on one lane and on three.
    Lanes may draw one stack's baths and then run another's oracle pass,
    so each stack's seeds are found by its own alpha array."""
    expected = five_call_cases(12, 1000, seed)
    drawn_bath, stacked = harness.random_spin_arrays, harness.brute_force_stack
    for cpus in (1, 3):
        stack_seeds, seen, lock = [], {}, threading.Lock()

        def bath(n, seeds, *laws):
            alpha, beta, g = drawn_bath(n, seeds, *laws)
            with lock:
                stack_seeds.append((alpha, list(seeds)))
            return alpha, beta, g

        def recording(a, b, alpha, beta, g, system, env, t, **kwargs):
            with lock:
                seeds = next(seeds for drawn, seeds in stack_seeds if drawn is alpha)
                for row, model_seed in enumerate(seeds):
                    seen[model_seed] = (alpha.shape[1], system[row].tobytes(),
                                        env[row].tobytes(), np.float64(t[row]).tobytes())
            return stacked(a, b, alpha, beta, g, system, env, t, **kwargs)

        with monkeypatch.context() as patch:
            use_cpus(patch, cpus)
            patch.setattr(harness, "brute_force_stack", recording)
            patch.setattr(harness, "random_spin_arrays", bath)
            assert run_oracle_check(12, 1000, seed).passed
        assert len(seen) == len({model_seed for _, model_seed, *_ in expected}) == 1000
        for n, model_seed, system, env, t in expected:
            assert seen[model_seed] == (n, system.tobytes(), env.tobytes(),
                                        np.float64(t).tobytes())


@pytest.mark.parametrize("tolerance", [harness.ORACLE_TOLERANCE, 0.0], ids=["exact", "failing"])
def test_the_cpu_count_never_changes_the_summary(monkeypatch, tolerance):
    """One, two and three lanes, switching threads every microsecond, give
    the same maximum error, bit for bit, and the same failures."""
    monkeypatch.setattr(harness, "ORACLE_TOLERANCE", tolerance)
    summaries = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            summaries.append(run_oracle_check(12, 1000, 1646266295))
    finally:
        sys.setswitchinterval(interval)
    first = summaries[0]
    assert first.passed == (tolerance > 0)
    for summary in summaries[1:]:
        assert summary.max_abs_error.hex() == first.max_abs_error.hex()
        assert summary.failures == first.failures


class StackError(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("failing", [0, 5])
def test_an_exception_in_a_stack_reaches_the_caller(monkeypatch, cpus, failing):
    """The lanes busy when a stack fails finish their own stacks; none takes another."""
    use_cpus(monkeypatch, cpus)
    evaluate, taken, lock = harness._oracle_stack, [], threading.Lock()

    def failing_stack(n, queue, found):
        with lock:
            taken.append(n)
            number = len(taken) - 1
        if number == failing:
            raise StackError(f"stack {failing}")
        return evaluate(n, queue, found)

    monkeypatch.setattr(harness, "_oracle_stack", failing_stack)
    before = set(threading.enumerate())
    with pytest.raises(StackError, match=f"stack {failing}"):
        run_oracle_check(12, 1000, 1646266295)
    assert set(threading.enumerate()) == before
    assert failing < len(taken) <= failing + cpus


def test_a_later_stack_refused_for_memory_exits_2(monkeypatch, capsys):
    use_cpus(monkeypatch, 3)
    checks, lock = [], threading.Lock()

    def available():
        with lock:
            checks.append(None)
            return 0 if len(checks) == 4 else None

    monkeypatch.setattr(spectrum, "_available_memory", available)
    before = set(threading.enumerate())
    assert main(["oracle-check", "--n-max", "12", "--cases", "1000", "--seed", "1"]) == 2
    assert set(threading.enumerate()) == before
    assert "of memory is free" in capsys.readouterr().err


def test_one_cpu_starts_no_thread(monkeypatch):
    use_cpus(monkeypatch, 1)

    def refused(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refused)
    assert run_oracle_check(12, 1000, 1).passed


# oracle-n12 of the benchmark runs these seeds (its seeds 1 and 9).
@pytest.mark.parametrize("seed, printed", [(1646266295, "2.776e-16"), (852529970, "3.331e-16")])
def test_oracle_check_prints_its_recorded_maximum_error(capsys, seed, printed):
    assert main(["oracle-check", "--n-max", "12", "--cases", "1000", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.startswith(
        f"oracle check: 1000 cases, max |closed - brute| = {printed}")


PERTURBED = (3, 11, 12, 29)


def perturb_oracle(monkeypatch, times, offset=1e-6):
    """Make the stacked oracle off by ``offset`` on the cases at ``times``."""
    stacked = harness.brute_force_stack

    def perturbed(a, b, alpha, beta, g, system, env, t, **kwargs):
        values = stacked(a, b, alpha, beta, g, system, env, t, **kwargs)
        return np.where(np.isin(np.asarray(t), times), values + offset, values)

    monkeypatch.setattr(harness, "brute_force_stack", perturbed)


def test_oracle_failures_replay_through_the_stacked_path(monkeypatch):
    drawn = drawn_oracle_cases(6, 40, 5)
    assert len({drawn[i][0] for i in PERTURBED}) > 1  # several stacks fail
    perturb_oracle(monkeypatch, [drawn[i][2] for i in PERTURBED])
    summary = run_oracle_check(6, 40, 5)
    assert not summary.passed
    assert [f.case_index for f in summary.failures] == list(PERTURBED)
    for failure in summary.failures:
        n, model_seed, t = drawn[failure.case_index]
        assert (failure.n, failure.model_seed, failure.t) == (n, model_seed, t)
        assert abs(failure.error - 1e-6) < 1e-12
        assert model_from_dict(failure.model) == generate_random(
            n, model_seed, UniformPositive(1.0), PhaseLaw.UNIFORM)
    assert summary.max_abs_error == max(f.error for f in summary.failures)


def test_oracle_check_cli_prints_the_first_failing_model(monkeypatch, capsys):
    drawn = drawn_oracle_cases(6, 40, 5)
    perturb_oracle(monkeypatch, [drawn[i][2] for i in PERTURBED])
    assert main(["oracle-check", "--n-max", "6", "--cases", "40", "--seed", "5"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("oracle check: 40 cases, max |closed - brute| = 1.000e-06")
    index = PERTURBED[0]
    n, model_seed, t = drawn[index]
    head, replay_label, replay, *rest = err.splitlines()
    assert head.startswith(f"FAILED case {index}: n={n}, model_seed={model_seed}, "
                           f"t={t:{FLOAT_FORMAT}}, error=")
    assert replay_label == "model for replay:" and rest == []
    assert model_from_dict(json.loads(replay)) == generate_random(
        n, model_seed, UniformPositive(1.0), PhaseLaw.UNIFORM)


def test_an_oracle_value_that_is_not_a_number_fails_its_case(monkeypatch):
    drawn = drawn_oracle_cases(4, 10, 2)
    perturb_oracle(monkeypatch, [drawn[4][2]], math.nan)
    summary = run_oracle_check(4, 10, 2)
    assert not summary.passed
    assert [f.case_index for f in summary.failures] == [4]
    assert math.isnan(summary.failures[0].error)


@pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "perturbed"])
def test_the_stack_size_never_changes_a_value(monkeypatch, perturbed):
    """Stacks of 2^4 states (one case each from n = 3 on), of 2^14 and of
    the default size give the same maximum error, bit for bit, and the
    same failures: index, model seed, time, error and replay record."""
    n_max, cases, seed = (6, 40, 5) if perturbed else (12, 1000, 1646266295)
    if perturbed:
        drawn = drawn_oracle_cases(n_max, cases, seed)
        perturb_oracle(monkeypatch, [drawn[i][2] for i in PERTURBED])
    summaries = []
    for states in (2**4, 2**14, harness._ORACLE_STACK_STATES):
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_ORACLE_STACK_STATES", states)
            summaries.append(run_oracle_check(n_max, cases, seed))
    first = summaries[0]
    assert [f.case_index for f in first.failures] == (list(PERTURBED) if perturbed else [])
    for summary in summaries[1:]:
        assert summary.max_abs_error.hex() == first.max_abs_error.hex()
        assert summary.failures == first.failures


@pytest.mark.parametrize("n", range(1, 13))
def test_oracle_stack_peak_stays_within_its_estimate(monkeypatch, n):
    """A full stack of oracle-check cases, bath draw and closed-form pass
    included, peaks under tracemalloc at or below the estimate that the
    state-vector oracle charges for it up front."""
    rng = np.random.default_rng(n)
    k = harness._ORACLE_STACK_STATES >> (n + 1)
    seeds = rng.integers(0, 2**63, size=k).tolist()
    queue = list(zip(range(k), seeds, rng.random((k, 4 * n + 5))))
    estimates = []
    monkeypatch.setattr(spectrum, "require_memory", lambda estimate, *_: estimates.append(estimate))
    tracemalloc.start()
    try:
        harness._oracle_stack(n, queue, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak <= estimates[0]
