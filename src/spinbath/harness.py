"""Experiment runners behind the CLI: config parsing, pipelines, file output.

A single JSON config document (or an equivalent dict assembled from CLI
flags) describes the model source, time grid, optional observable,
verdict thresholds, and output destination. The runners are plain
functions returning value objects; files are written atomically and every
emitted numeric carries 17 significant digits so artifacts are
byte-identical across runs with the same config.

Config schema (all sections optional unless a runner needs them):

    {
      "model": {"random": {"n": int, "seed": int,
                            "coupling": {"law": "uniform_positive", "g_max": x}
                                      | {"law": "equal", "g": x},
                            "phases": "zero" | "uniform"}}
             | {"inline": {"a": [re, im], "b": [re, im],
                            "spins": [{"alpha": [re, im], "beta": [re, im],
                                       "g": x}, ...]}},
      "grid": {"t_start": x, "t_end": x, "steps": int},
      "observable": {"s_uu": x, "s_dd": x, "s_du": [re, im]},
      "verdict": {"n_min": int, "cv_max": x, "ks_max": x,
                   "eps_global": x, "eps_group": x, "g_groups": int | null,
                   "q_max": int, "rel_tolerance": x, "omega_tolerance": x,
                   "enumeration_cap": int},
      "output": {"path": str, "format": "csv" | "json"}
    }

Defaults: grid [0, 20 / mean|g|] with 2000 steps; verdict thresholds as
in :mod:`spinbath.lemma`.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .evolution import TimeSeries, r_bounds, sample_series
from .lemma import (
    LemmaReport,
    L1Thresholds,
    QCThresholds,
    Verdict,
    VerdictConfig,
    verdict_from_decomposition,
)
from .model import (
    Equal,
    FullObservable,
    LocalObservable,
    PhaseLaw,
    RelevantObservable,
    SpinBathModel,
    UniformPositive,
    generate_random,
    model_from_dict,
    model_to_dict,
    _parse_complex,
    _parse_real,
)
from .spectrum import (
    ORACLE_CAP,
    SpectralDecomposition,
    brute_force_expectation,
    spectral_decomposition,
)
from .evolution import expectation_full

ORACLE_TOLERANCE = 1e-10
DEFAULT_STEPS = 2000
DEFAULT_T_END_OVER_MEAN_G = 20.0

CSV_HEADER = "t,re_r,im_r,r_sq,expectation"


# ---------------------------------------------------------------------------
# Config value objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomSource:
    n: int
    seed: int
    coupling_law: UniformPositive | Equal = UniformPositive(1.0)
    phase_law: PhaseLaw = PhaseLaw.ZERO


@dataclass(frozen=True)
class InlineSource:
    model: SpinBathModel


ModelSource = RandomSource | InlineSource


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid; t_end None defers to the model default."""

    t_start: float = 0.0
    t_end: float | None = None
    steps: int = DEFAULT_STEPS


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"


@dataclass(frozen=True)
class OutputSpec:
    path: str
    format: OutputFormat


@dataclass(frozen=True)
class ExperimentConfig:
    model_source: ModelSource
    grid: TimeGrid = TimeGrid()
    observable: RelevantObservable | None = None
    verdict: VerdictConfig = field(default_factory=VerdictConfig)
    output: OutputSpec | None = None


def build_model(source: ModelSource) -> SpinBathModel:
    if isinstance(source, InlineSource):
        return source.model
    return generate_random(source.n, source.seed, source.coupling_law, source.phase_law)


def resolve_grid(grid: TimeGrid, model: SpinBathModel) -> tuple[float, float, int]:
    """Fill in the default horizon: 20 / mean|g| past t_start."""
    t_end = grid.t_end
    if t_end is None:
        mean_g = sum(abs(s.g) for s in model.spins) / model.n_spins
        t_end = grid.t_start + DEFAULT_T_END_OVER_MEAN_G / mean_g
    return grid.t_start, t_end, grid.steps


# ---------------------------------------------------------------------------
# Config parsing (dict -> ExperimentConfig, errors carry field paths)
# ---------------------------------------------------------------------------

def _expect_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value

def _reject_unknown(data: dict, allowed: set[str], path: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown field")


def _parse_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    return value


def _parse_random_source(data: dict, path: str) -> RandomSource:
    _reject_unknown(data, {"n", "seed", "coupling", "phases"}, path)
    for key in ("n", "seed"):
        if key not in data:
            raise ConfigError(f"{path}.{key}", "missing required field")
    n = _parse_int(data["n"], f"{path}.n")
    seed = _parse_int(data["seed"], f"{path}.seed")

    coupling: UniformPositive | Equal = UniformPositive(1.0)
    if "coupling" in data:
        cdata = _expect_dict(data["coupling"], f"{path}.coupling")
        _reject_unknown(cdata, {"law", "g_max", "g"}, f"{path}.coupling")
        law = cdata.get("law")
        if law == "uniform_positive":
            g_max = _parse_real(cdata.get("g_max", 1.0), f"{path}.coupling.g_max")
            coupling = UniformPositive(g_max)
        elif law == "equal":
            if "g" not in cdata:
                raise ConfigError(f"{path}.coupling.g", "missing required field")
            coupling = Equal(_parse_real(cdata["g"], f"{path}.coupling.g"))
        else:
            raise ConfigError(
                f"{path}.coupling.law", 'expected "uniform_positive" or "equal"'
            )

    phases = PhaseLaw.ZERO
    if "phases" in data:
        raw = data["phases"]
        try:
            phases = PhaseLaw(raw)
        except ValueError:
            raise ConfigError(f"{path}.phases", 'expected "zero" or "uniform"') from None
    return RandomSource(n, seed, coupling, phases)


def _parse_model_source(data: Any, path: str) -> ModelSource:
    data = _expect_dict(data, path)
    _reject_unknown(data, {"random", "inline"}, path)
    if ("random" in data) == ("inline" in data):
        raise ConfigError(path, 'expected exactly one of "random" or "inline"')
    if "random" in data:
        return _parse_random_source(
            _expect_dict(data["random"], f"{path}.random"), f"{path}.random"
        )
    return InlineSource(model_from_dict(data["inline"], f"{path}.inline"))


def _parse_grid(data: Any, path: str) -> TimeGrid:
    data = _expect_dict(data, path)
    _reject_unknown(data, {"t_start", "t_end", "steps"}, path)
    t_start = _parse_real(data.get("t_start", 0.0), f"{path}.t_start")
    t_end = None
    if data.get("t_end") is not None:
        t_end = _parse_real(data["t_end"], f"{path}.t_end")
    steps = DEFAULT_STEPS
    if "steps" in data:
        steps = _parse_int(data["steps"], f"{path}.steps")
    if steps < 2:
        raise ConfigError(f"{path}.steps", f"must be >= 2, got {steps}")
    if t_end is not None and t_end <= t_start:
        raise ConfigError(f"{path}.t_end", "must exceed t_start")
    return TimeGrid(t_start, t_end, steps)


def _parse_observable(data: Any, path: str) -> RelevantObservable:
    data = _expect_dict(data, path)
    _reject_unknown(data, {"s_uu", "s_dd", "s_du"}, path)
    for key in ("s_uu", "s_dd"):
        if key not in data:
            raise ConfigError(f"{path}.{key}", "missing required field")
    s_uu = _parse_real(data["s_uu"], f"{path}.s_uu")
    s_dd = _parse_real(data["s_dd"], f"{path}.s_dd")
    s_du = 0j
    if "s_du" in data:
        s_du = _parse_complex(data["s_du"], f"{path}.s_du")
    try:
        return RelevantObservable(s_uu, s_dd, s_du)
    except InvalidParameterError as exc:
        raise ConfigError(path, str(exc)) from None


_VERDICT_KEYS = {
    "n_min", "cv_max", "ks_max", "eps_global", "eps_group",
    "g_groups", "q_max", "rel_tolerance", "omega_tolerance", "enumeration_cap",
}


def _parse_verdict(data: Any, path: str) -> VerdictConfig:
    data = _expect_dict(data, path)
    _reject_unknown(data, _VERDICT_KEYS, path)
    base = VerdictConfig()
    qc = QCThresholds(
        n_min=_parse_int(data["n_min"], f"{path}.n_min") if "n_min" in data else base.qc.n_min,
        cv_max=_parse_real(data["cv_max"], f"{path}.cv_max") if "cv_max" in data else base.qc.cv_max,
        ks_max=_parse_real(data["ks_max"], f"{path}.ks_max") if "ks_max" in data else base.qc.ks_max,
    )
    l1 = L1Thresholds(
        eps_global=_parse_real(data["eps_global"], f"{path}.eps_global")
        if "eps_global" in data else base.l1.eps_global,
        eps_group=_parse_real(data["eps_group"], f"{path}.eps_group")
        if "eps_group" in data else base.l1.eps_group,
    )
    g_groups = None
    if data.get("g_groups") is not None:
        g_groups = _parse_int(data["g_groups"], f"{path}.g_groups")
    return VerdictConfig(
        qc=qc,
        l1=l1,
        g_groups=g_groups,
        q_max=_parse_int(data["q_max"], f"{path}.q_max") if "q_max" in data else base.q_max,
        rel_tolerance=_parse_real(data["rel_tolerance"], f"{path}.rel_tolerance")
        if "rel_tolerance" in data else base.rel_tolerance,
        omega_tolerance=_parse_real(data["omega_tolerance"], f"{path}.omega_tolerance")
        if "omega_tolerance" in data else base.omega_tolerance,
        enumeration_cap=_parse_int(data["enumeration_cap"], f"{path}.enumeration_cap")
        if "enumeration_cap" in data else base.enumeration_cap,
    )


def _parse_output(data: Any, path: str) -> OutputSpec:
    data = _expect_dict(data, path)
    _reject_unknown(data, {"path", "format"}, path)
    if "path" not in data:
        raise ConfigError(f"{path}.path", "missing required field")
    raw_path = data["path"]
    if not isinstance(raw_path, str) or not raw_path:
        raise ConfigError(f"{path}.path", "expected a non-empty string")
    raw_format = data.get("format", "csv")
    try:
        fmt = OutputFormat(raw_format)
    except ValueError:
        raise ConfigError(f"{path}.format", 'expected "csv" or "json"') from None
    return OutputSpec(raw_path, fmt)


def parse_config(data: Any, path: str = "config") -> ExperimentConfig:
    """Validate a config dict; every failure names its field path."""
    data = _expect_dict(data, path)
    _reject_unknown(data, {"model", "grid", "observable", "verdict", "output"}, path)
    if "model" not in data:
        raise ConfigError(f"{path}.model", "missing required field")
    source = _parse_model_source(data["model"], f"{path}.model")
    grid = _parse_grid(data["grid"], f"{path}.grid") if "grid" in data else TimeGrid()
    observable = (
        _parse_observable(data["observable"], f"{path}.observable")
        if data.get("observable") is not None else None
    )
    verdict = (
        _parse_verdict(data["verdict"], f"{path}.verdict")
        if "verdict" in data else VerdictConfig()
    )
    output = _parse_output(data["output"], f"{path}.output") if "output" in data else None
    return ExperimentConfig(source, grid, observable, verdict, output)


# ---------------------------------------------------------------------------
# Atomic file output at fixed precision
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spinbath-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj: Any, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits, keys in given order."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_dump_json(v, indent + 2)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{_dump_json(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: str, payload: Any) -> None:
    _atomic_write_text(path, _dump_json(payload) + "\n")


# Rows of series_to_csv are formatted from Python floats, made one chunk of
# rows at a time: whole columns at once raised the peak memory of a
# 2000-step simulate call by about 0.2 MB, for no gain in speed.
_CSV_CHUNK_ROWS = 256


def series_to_csv(series: TimeSeries) -> str:
    rows = [CSV_HEADER]
    r = series.r_values
    columns = [series.times, r.real, r.imag, np.abs(r) ** 2]
    blank = [""]
    if series.expectation_values is not None:
        columns.append(series.expectation_values)
        blank = []
    for start in range(0, len(series), _CSV_CHUNK_ROWS):
        chunk = (column[start:start + _CSV_CHUNK_ROWS].tolist() for column in columns)
        for row in zip(*chunk):
            rows.append(",".join([*map(_fmt, row), *blank]))
    return "\n".join(rows) + "\n"


def series_to_jsonable(series: TimeSeries) -> dict[str, Any]:
    r_sq = np.abs(series.r_values) ** 2
    return {
        "times": [float(x) for x in series.times],
        "re_r": [float(z.real) for z in series.r_values],
        "im_r": [float(z.imag) for z in series.r_values],
        "r_sq": [float(x) for x in r_sq],
        "expectation": (
            [float(x) for x in series.expectation_values]
            if series.expectation_values is not None else None
        ),
    }


def decomposition_to_csv(dec: SpectralDecomposition) -> str:
    rows = ["omega,weight,multiplicity"]
    for omega, weight, multiplicity in zip(
        dec.omega.tolist(), dec.weight.tolist(), dec.multiplicity.tolist()
    ):
        rows.append(f"{_fmt(omega)},{_fmt(weight)},{multiplicity}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def run_simulate(config: ExperimentConfig) -> TimeSeries:
    """Sample the closed-form evolution on the configured grid.

    Writes CSV columns t, re_r, im_r, r_sq, expectation (or the JSON
    equivalent) when an output is configured.
    """
    model = build_model(config.model_source)
    t_start, t_end, steps = resolve_grid(config.grid, model)
    series = sample_series(model, t_start, t_end, steps, config.observable)
    if config.output is not None:
        if config.output.format is OutputFormat.CSV:
            _atomic_write_text(config.output.path, series_to_csv(series))
        else:
            write_json(config.output.path, series_to_jsonable(series))
    return series


def _predict_payload(model: SpinBathModel, verdict_config: VerdictConfig) -> tuple[LemmaReport, dict]:
    dec = spectral_decomposition(
        model, verdict_config.omega_tolerance, max_spins=verdict_config.enumeration_cap
    )
    report = verdict_from_decomposition(dec, verdict_config)
    payload = {
        "n_spins": model.n_spins,
        "sum_of_weights": dec.weight_sum,
        **report.to_dict(),
    }
    return report, payload


def run_predict(config: ExperimentConfig) -> LemmaReport:
    """Run the analytical verdict pipeline and emit the JSON report."""
    model = build_model(config.model_source)
    report, payload = _predict_payload(model, config.verdict)
    if config.output is not None:
        if config.output.format is not OutputFormat.JSON:
            raise ConfigError("config.output.format", 'predict emits "json" only')
        write_json(config.output.path, payload)
    return report


@dataclass(frozen=True)
class DecayStats:
    """Summary of the simulated |r(t)|^2 trace against its envelope."""

    time_avg_r_sq: float
    time_avg_r_sq_last_half: float
    min_r_sq: float
    lower_bound: float

    def __post_init__(self):
        if self.min_r_sq < self.lower_bound - 1e-12:
            raise InvalidParameterError(
                "sampled |r|^2 dipped below its analytic lower bound"
            )

    def to_dict(self) -> dict[str, float]:
        return {
            "time_avg_r_sq": self.time_avg_r_sq,
            "time_avg_r_sq_last_half": self.time_avg_r_sq_last_half,
            "min_r_sq": self.min_r_sq,
            "lower_bound": self.lower_bound,
        }


@dataclass(frozen=True)
class Agreement:
    consistent: bool
    description: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": "consistent" if self.consistent else "tension",
            "description": self.description,
        }


@dataclass(frozen=True)
class ComparisonReport:
    prediction: LemmaReport
    decay_stats: DecayStats
    agreement: Agreement


def assess_agreement(prediction: LemmaReport, decay: DecayStats) -> Agreement:
    """Check the simulated decay against the analytical verdict.

    A Decoheres verdict must be matched by actual late-time decay: the
    time-averaged |r|^2 over the last half of the grid has to fall below
    max(10 * lower_bound, 10 * max_weight, 1e-4), a deliberately loose
    bound. NoVerdict claims nothing, so nothing can contradict it.
    """
    if prediction.verdict is not Verdict.DECOHERES:
        return Agreement(True, "no verdict issued; nothing to contradict")
    bound = max(
        10.0 * decay.lower_bound,
        10.0 * prediction.l1_max_weight,
        1e-4,
    )
    if decay.time_avg_r_sq_last_half <= bound:
        return Agreement(True, None)
    return Agreement(
        False,
        (
            f"verdict says decoheres but late-time average |r|^2 = "
            f"{decay.time_avg_r_sq_last_half:.3e} exceeds the consistency "
            f"bound {bound:.3e}"
        ),
    )


def run_compare(config: ExperimentConfig) -> ComparisonReport:
    """Run simulation and prediction on one model and reconcile them."""
    model = build_model(config.model_source)
    report, predict_payload = _predict_payload(model, config.verdict)

    t_start, t_end, steps = resolve_grid(config.grid, model)
    series = sample_series(model, t_start, t_end, steps)
    r_sq = np.abs(series.r_values) ** 2
    lower, _ = r_bounds(model)
    half = len(r_sq) // 2
    decay = DecayStats(
        time_avg_r_sq=float(np.mean(r_sq)),
        time_avg_r_sq_last_half=float(np.mean(r_sq[half:])),
        min_r_sq=float(np.min(r_sq)),
        lower_bound=lower,
    )
    agreement = assess_agreement(report, decay)
    result = ComparisonReport(report, decay, agreement)
    if config.output is not None:
        if config.output.format is not OutputFormat.JSON:
            raise ConfigError("config.output.format", 'compare emits "json" only')
        write_json(config.output.path, {
            "prediction": predict_payload,
            "decay_stats": decay.to_dict(),
            "agreement": agreement.to_dict(),
        })
    return result


# ---------------------------------------------------------------------------
# Oracle check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleFailure:
    case_index: int
    n: int
    model_seed: int
    t: float
    error: float
    model: dict[str, Any]


@dataclass(frozen=True)
class OracleCheckSummary:
    cases: int
    max_abs_error: float
    tolerance: float
    failures: tuple[OracleFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_oracle_check(n_max: int, cases: int, seed: int) -> OracleCheckSummary:
    """Pit the closed-form expectation against the state-vector oracle.

    Each case draws a model size in [1, n_max], a fresh model seed, a
    random Hermitian product observable with entries in [-0.5, 0.5]
    (bounded so N-fold products cannot swamp the absolute tolerance), and
    a time in [0, 50]. A case fails when the two values differ by more
    than 1e-10; failures carry the full model for replay.
    """
    if n_max < 1:
        raise ConfigError("oracle_check.n_max", f"must be >= 1, got {n_max}")
    if n_max > ORACLE_CAP:
        raise ConfigError(
            "oracle_check.n_max", f"must be <= oracle cap {ORACLE_CAP}, got {n_max}"
        )
    if cases < 1:
        raise ConfigError("oracle_check.cases", f"must be >= 1, got {cases}")

    rng = np.random.default_rng(seed)
    failures: list[OracleFailure] = []
    max_error = 0.0
    for index in range(cases):
        n = int(rng.integers(1, n_max + 1))
        model_seed = int(rng.integers(0, 2**63))
        model = generate_random(n, model_seed, UniformPositive(1.0), PhaseLaw.UNIFORM)

        c = rng.uniform(-0.5, 0.5, size=4)
        system = RelevantObservable(c[0], c[1], complex(c[2], c[3]))
        parts = tuple(
            LocalObservable(e[0], e[1], complex(e[2], e[3]))
            for e in rng.uniform(-0.5, 0.5, size=(n, 4))
        )
        obs = FullObservable(system, parts)
        t = 50.0 * rng.random()

        closed = expectation_full(model, obs, t)
        brute = brute_force_expectation(model, obs, t)
        error = abs(closed - brute)
        max_error = max(max_error, error)
        if error > ORACLE_TOLERANCE:
            failures.append(
                OracleFailure(index, n, model_seed, t, error, model_to_dict(model))
            )
    return OracleCheckSummary(cases, max_error, ORACLE_TOLERANCE, tuple(failures))
