"""Experiment runners behind the CLI: config parsing, pipelines, file output.

A single JSON config document (or an equivalent dict assembled from CLI
flags) describes the model source, time grid, optional observable,
verdict thresholds, and output destination. The runners are plain
functions returning value objects; files are written atomically, one chunk
of rows of text at a time, and every number carries 17 significant digits,
so artifacts are byte-identical across runs with the same config.

Config schema (all sections optional unless a runner needs them); each
section's keys, kinds and defaults are written once, in its field table
(``*_FIELDS``, and per coupling law COUPLING_LAWS):

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
      "verdict": {key: int | x, ...},  one key per row of VERDICT_FIELDS
      "output": {"path": str, "format": str}  one of the command's OUTPUT_FORMATS
    }

A key that no row of its table names is refused, so a coupling takes only
its own law's keys. Defaults: grid [t_start, t_start + 20 / mean|g|] with
2000 steps; verdict thresholds as in :mod:`spinbath.lemma`; the output
format first in the command's OUTPUT_FORMATS; the rest as in the tables.
The inline model schema is the one :func:`model_to_dict` writes and
:func:`model_from_dict` reads.
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, InvalidParameterError, NormalizationError
from .evolution import TimeSeries, expectation_full_stack, r_bounds, sample_series
from .lemma import LemmaReport, Verdict, VerdictConfig, decoherence_verdict
from .model import (
    BALANCED_AMPLITUDE,
    Equal,
    PhaseLaw,
    RelevantObservable,
    SpinBathModel,
    UniformPositive,
    first_invalid_spin,
    generate_random,
    random_spin_arrays,
)
from .spectrum import (
    ORACLE_CAP,
    SpectralDecomposition,
    brute_force_stack,
    require_memory,
    spectral_decomposition,
)

ORACLE_TOLERANCE = 1e-10

# States (cases x 2^(n+1)) in one stack of oracle-check cases. With
# --n-max 12, stacks of 2^13 to 2^15 states ran alike and 2^12 about 10 %
# slower; larger stacks only hold more memory.
_ORACLE_STACK_STATES = 2**14

DEFAULT_STEPS = 2000
DEFAULT_T_END_OVER_MEAN_G = 20.0

CSV_HEADER = "t,re_r,im_r,r_sq,expectation"

# Every real number written to an artifact: 17 significant digits round-trip
# any double.
FLOAT_FORMAT = ".17g"

# The output formats each command writes, its default first.
OUTPUT_FORMATS = {
    "simulate": ("csv", "json"),
    "predict": ("json",),
    "compare": ("json",),
    "spectrum": ("csv",),
}


# ---------------------------------------------------------------------------
# Config value objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid."""

    t_start: float
    t_end: float
    steps: int


@dataclass(frozen=True)
class OutputSpec:
    path: str
    format: str  # one of the command's OUTPUT_FORMATS


@dataclass(frozen=True)
class ExperimentConfig:
    model: SpinBathModel
    grid: TimeGrid
    observable: RelevantObservable | None = None
    verdict: VerdictConfig = field(default_factory=VerdictConfig)
    output: OutputSpec | None = None


# ---------------------------------------------------------------------------
# Config parsing (dict -> ExperimentConfig, errors carry field paths)
# ---------------------------------------------------------------------------

REQUIRED = object()  # a Field default: the key must be given
OMIT = object()  # a Field default: a key left out stays out, so the value object's default holds


@dataclass(frozen=True)
class Field:
    """One key of a config section: its kind (a key of _PARSERS), its default,
    and for a grid or verdict key the help of its CLI flag."""

    key: str
    kind: type
    default: Any = REQUIRED
    help: str | None = None
    null_is_default: bool = False  # a JSON null stands for the default
    enumeration: bool = False  # also a setting of the spectrum subcommand


def _expect_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value


def _parse_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "expected an integer")
    return value


def _parse_real(value: Any, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, "expected a number")
    return float(value)


def _parse_complex(value: Any, path: str) -> complex:
    if (not isinstance(value, Sequence)) or isinstance(value, (str, bytes)) or len(value) != 2:
        raise ConfigError(path, "expected a [re, im] pair")
    return complex(_parse_real(value[0], f"{path}[0]"), _parse_real(value[1], f"{path}[1]"))


def _parse_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, "expected a non-empty string")
    return value


def _parse_list(value: Any, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(path, "expected a non-empty array")
    return value


def _one_of(names: Iterable[str]) -> str:
    return "expected " + " or ".join(f'"{name}"' for name in names)


def _parse_phases(value: Any, path: str) -> PhaseLaw:
    try:
        return PhaseLaw(value)
    except ValueError:
        raise ConfigError(path, _one_of(law.value for law in PhaseLaw)) from None


_PARSERS: dict[type, Callable[[Any, str], Any]] = {
    int: _parse_int, float: _parse_real, complex: _parse_complex, str: _parse_str,
    dict: _expect_dict, list: _parse_list, PhaseLaw: _parse_phases,
}


def _fields(data: Any, path: str, fields: Sequence[Field]) -> dict[str, Any]:
    """The section at ``path`` as {key: value}, one entry per row of ``fields``.

    Refuses a non-object, then an unknown key (the first in sorted order),
    then row by row a missing required key or a value not of the row's kind.
    A key left out (or null, where that means the default) takes its default.
    """
    data = _expect_dict(data, path)
    unknown = data.keys() - {f.key for f in fields}
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown field")
    values = {}
    for f in fields:
        if f.key in data and not (f.null_is_default and data[f.key] is None):
            values[f.key] = _PARSERS[f.kind](data[f.key], f"{path}.{f.key}")
        elif f.default is REQUIRED:
            raise ConfigError(f"{path}.{f.key}", "missing required field")
        elif f.default is not OMIT:
            values[f.key] = f.default
    return values


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


# The keys of each config section, written once. A table holds no spinbath
# function; the parsers call each by its module name, which a tracer or a
# test may rebind.
CONFIG_FIELDS = (
    Field("model", dict),
    Field("grid", dict, {}),
    Field("observable", dict, None, null_is_default=True),
    Field("verdict", dict, {}),
    Field("output", dict, None),
)
MODEL_FIELDS = (Field("random", dict, None), Field("inline", dict, None))
INLINE_FIELDS = (Field("a", complex), Field("b", complex), Field("spins", list))
SPIN_FIELDS = (Field("alpha", complex), Field("beta", complex), Field("g", float))
RANDOM_FIELDS = (
    Field("n", int),
    Field("seed", int),
    Field("coupling", dict, {"law": "uniform_positive"}),
    Field("phases", PhaseLaw, PhaseLaw.ZERO),
)
# Each law's class and keys; a coupling takes only its own law's keys.
_LAW = Field("law", str)
COUPLING_LAWS = {
    "uniform_positive": (UniformPositive, (_LAW, Field("g_max", float, 1.0))),
    "equal": (Equal, (_LAW, Field("g", float))),
}
# t_end left out (or null) is the horizon t_start + 20 / mean|g|
GRID_FIELDS = (
    Field("t_start", float, 0.0),
    Field("t_end", float, None, null_is_default=True),
    Field("steps", int, DEFAULT_STEPS),
)
OBSERVABLE_FIELDS = (Field("s_uu", float), Field("s_dd", float), Field("s_du", complex, 0j))
# VerdictConfig's fields, in its order; a key left out keeps its default there
VERDICT_FIELDS = (
    Field("n_min", int, OMIT, "minimum line count gate"),
    Field("cv_max", float, OMIT, "gap spread gate"),
    Field("ks_max", float, OMIT, "uniformity gate"),
    Field("eps_global", float, OMIT, "max weight gate"),
    Field("eps_group", float, OMIT, "per-group deviation gate"),
    Field("g_groups", int, OMIT, "partition group count", null_is_default=True),
    Field("q_max", int, OMIT, "rationalization denominator cap"),
    Field("rel_tolerance", float, OMIT),
    Field("omega_tolerance", float, OMIT, "line merge radius / max|g|", enumeration=True),
    Field("enumeration_cap", int, OMIT, enumeration=True),
)
OUTPUT_FIELDS = (Field("path", str), Field("format", str, None))  # None: the command's default


def model_to_dict(model: SpinBathModel) -> dict[str, Any]:
    """Serialize a model to the inline model schema."""
    return {
        "a": _complex_pair(model.a),
        "b": _complex_pair(model.b),
        "spins": [
            {"alpha": _complex_pair(alpha), "beta": _complex_pair(beta), "g": g}
            for alpha, beta, g in zip(model.alpha.tolist(), model.beta.tolist(), model.g.tolist())
        ],
    }


def model_from_dict(data: Any, path: str = "model") -> SpinBathModel:
    """Parse and validate a model from the inline model schema.

    All failures, structural or semantic, surface as ConfigError carrying
    the dotted path of the offending field.
    """
    values = _fields(data, path, INLINE_FIELDS)
    spins = [
        _fields(entry, f"{path}.spins[{i}]", SPIN_FIELDS).values()
        for i, entry in enumerate(values["spins"])
    ]
    bath = [np.array(column) for column in zip(*spins)]
    try:
        return SpinBathModel(values["a"], values["b"], *bath)
    except (NormalizationError, InvalidParameterError) as exc:
        # the spins are checked before the system pair
        first = first_invalid_spin(*bath)
        raise ConfigError(path if first is None else f"{path}.spins[{first}]", str(exc)) from None


def _parse_coupling(data: dict, path: str) -> UniformPositive | Equal:
    law = data.get("law")
    if not isinstance(law, str) or law not in COUPLING_LAWS:
        raise ConfigError(f"{path}.law", _one_of(COUPLING_LAWS))
    cls, fields = COUPLING_LAWS[law]
    values = _fields(data, path, fields)
    del values["law"]
    return cls(**values)


# Peak-RSS rise per spin of a random model in parse_config (the draw, the
# model's copies, the horizon's list of |g|): 137-139 B in fresh processes at
# N = 2e5 and 1e6, either phase law; 104-128 B at N = 4e6.
_BYTES_PER_SPIN = 160


def _parse_random_model(data: dict, path: str) -> SpinBathModel:
    values = _fields(data, path, RANDOM_FIELDS)
    coupling = _parse_coupling(values["coupling"], f"{path}.coupling")
    n, need = values["n"], values["n"] * _BYTES_PER_SPIN
    needs = f"a random bath of {n} spins needs roughly {need / 1e6:.3g} MB"
    require_memory(need, needs, "Reduce n.")
    try:
        return generate_random(n, values["seed"], coupling, values["phases"])
    except (InvalidParameterError, ValueError) as exc:  # numpy refuses a negative seed
        raise ConfigError(path, str(exc)) from None


def _parse_model(data: Any, path: str) -> SpinBathModel:
    values = _fields(data, path, MODEL_FIELDS)
    if (values["random"] is None) == (values["inline"] is None):
        raise ConfigError(path, 'expected exactly one of "random" or "inline"')
    if values["random"] is not None:
        return _parse_random_model(values["random"], f"{path}.random")
    return model_from_dict(values["inline"], f"{path}.inline")


def _parse_grid(data: Any, path: str, model: SpinBathModel) -> TimeGrid:
    """The grid, its horizon 20 / mean|g| past t_start where t_end is absent or null."""
    values = _fields(data, path, GRID_FIELDS)
    t_start, t_end, steps = values["t_start"], values["t_end"], values["steps"]
    for key in ("t_start", "t_end"):
        if values[key] is not None and not math.isfinite(values[key]):
            raise ConfigError(f"{path}.{key}", f"must be finite, got {values[key]!r}")
    if steps < 2:
        raise ConfigError(f"{path}.steps", f"must be >= 2, got {steps}")
    if t_end is None:
        mean_g = sum(map(abs, model.g.tolist())) / model.n_spins
        t_end = t_start + DEFAULT_T_END_OVER_MEAN_G / mean_g
    elif t_end <= t_start:
        raise ConfigError(f"{path}.t_end", "must exceed t_start")
    return TimeGrid(t_start, t_end, steps)


def _parse_observable(data: Any, path: str) -> RelevantObservable:
    values = _fields(data, path, OBSERVABLE_FIELDS)
    try:
        return RelevantObservable(**values)
    except InvalidParameterError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_verdict(data: Any, path: str) -> VerdictConfig:
    """NaN is refused: it fails every comparison, so its gate would fail
    silently. Infinities are kept; +inf switches a max gate off."""
    values = _fields(data, path, VERDICT_FIELDS)
    for key, value in values.items():
        if isinstance(value, float) and math.isnan(value):
            raise ConfigError(f"{path}.{key}", "expected a number, got NaN")
    return VerdictConfig(**values)


def _parse_output(data: Any, path: str, formats: tuple[str, ...]) -> OutputSpec:
    values = _fields(data, path, OUTPUT_FIELDS)
    fmt = formats[0] if values["format"] is None else values["format"]
    if fmt not in formats:
        raise ConfigError(f"{path}.format", _one_of(formats))
    return OutputSpec(values["path"], fmt)


def parse_config(data: Any, formats: tuple[str, ...], path: str = "config") -> ExperimentConfig:
    """Validate a config dict and build its model and grid; every failure
    names its field path. ``formats`` are the output formats the command
    writes, its default first."""
    values = _fields(data, path, CONFIG_FIELDS)
    model = _parse_model(values["model"], f"{path}.model")
    grid = _parse_grid(values["grid"], f"{path}.grid", model)
    observable, output = values["observable"], values["output"]
    return ExperimentConfig(
        model,
        grid,
        None if observable is None else _parse_observable(observable, f"{path}.observable"),
        _parse_verdict(values["verdict"], f"{path}.verdict"),
        None if output is None else _parse_output(output, f"{path}.output", formats),
    )


# ---------------------------------------------------------------------------
# Atomic file output at fixed precision
# ---------------------------------------------------------------------------

def _open_mode(path: str) -> int:
    """The mode ``open(path, "w")`` would leave, not mkstemp's private 0600:
    an existing file's permission bits, else 0666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        # the umask can only be read by setting it
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _atomic_write(path: str, *parts: Iterable[str]) -> None:
    """Write each part's text pieces to a temp file beside ``path``, then move it there."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spinbath-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            os.fchmod(handle.fileno(), _open_mode(path))
            for pieces in parts:
                handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Array text is formatted from Python floats one chunk of rows at a time, so a
# file costs one chunk of text. Whole columns at once raised the peak memory of
# a 2000-step simulate call by about 0.2 MB, for no gain in speed.
_CHUNK_ROWS = 256

# One str.format call makes a whole row.
_CELL = f"{{:{FLOAT_FORMAT}}}"


def _rows(row: Callable[..., str], columns: Sequence[np.ndarray], sep: str = "") -> Iterator[str]:
    """``row(*values)`` for each row of the columns, joined by ``sep``, a piece per chunk."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        if start:
            yield sep
        chunk = [column[start:start + _CHUNK_ROWS].tolist() for column in columns]
        yield sep.join(map(row, *chunk))


def _dump_json(obj: Any, indent: int = 0) -> Iterator[str]:
    """JSON text in pieces, with floats at 17 significant digits and keys in
    given order; a numpy array is written as the list of its values."""
    if isinstance(obj, bool):
        yield "true" if obj else "false"
    elif obj is None:
        yield "null"
    elif isinstance(obj, float):
        yield format(obj, FLOAT_FORMAT)
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif not isinstance(obj, (dict, list, tuple, np.ndarray)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    elif not len(obj):
        yield "{}" if isinstance(obj, dict) else "[]"
    else:
        is_dict = isinstance(obj, dict)
        inner = " " * (indent + 2)
        yield "{\n" if is_dict else "[\n"
        if isinstance(obj, np.ndarray):
            yield from _rows(f"{inner}{_CELL}".format, [obj], ",\n")
        else:
            for i, (key, value) in enumerate(obj.items() if is_dict else enumerate(obj)):
                label = f"{json.dumps(str(key))}: " if is_dict else ""
                yield (",\n" if i else "") + inner + label
                yield from _dump_json(value, indent + 2)
        yield "\n" + " " * indent + ("}" if is_dict else "]")


def write_json(path: str, payload: Any) -> None:
    _atomic_write(path, _dump_json(payload), ["\n"])


def series_to_csv(path: str, series: TimeSeries) -> None:
    """Write the series as CSV, its expectation column blank without an observable."""
    columns = list(series_to_jsonable(series).values())
    row = ",".join("" if column is None else _CELL for column in columns) + "\n"
    present = [column for column in columns if column is not None]
    _atomic_write(path, [CSV_HEADER + "\n"], _rows(row.format, present))


def series_to_jsonable(series: TimeSeries) -> dict[str, np.ndarray | None]:
    """The series columns by JSON key, expectation None without an observable."""
    r = series.r_values
    return {
        "times": series.times,
        "re_r": r.real,
        "im_r": r.imag,
        "r_sq": np.abs(r) ** 2,
        "expectation": series.expectation_values,
    }


def decomposition_to_csv(path: str, dec: SpectralDecomposition) -> None:
    row = f"{_CELL},{_CELL},{{}}\n".format
    columns = [dec.omega, dec.weight, dec.multiplicity]
    _atomic_write(path, ["omega,weight,multiplicity\n"], _rows(row, columns))


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

# Peak-RSS rise per grid step of run_simulate and run_compare, whatever the
# output: 63-65 B measured in fresh processes on generate_random(n, 1) at
# N = 2 and 64 with 1e6 steps and a system observable, on one CPU and with
# the grid split over two threads (98-104 B before the r(t) kernel reused
# its block buffers), so the estimate keeps a wide margin.
_BYTES_PER_STEP = 128


def _require_grid_memory(grid: TimeGrid) -> None:
    estimate = grid.steps * _BYTES_PER_STEP
    require_memory(
        estimate,
        f"a grid of {grid.steps} steps needs roughly {estimate / 1e6:.3g} MB",
        "Reduce the steps.",
    )


def _require_horizon(grid: TimeGrid) -> None:
    """Refuse a grid whose default horizon does not reach past t_start.

    A given t_end is checked by the parser; the default t_start + 20 / mean|g|
    can round back to t_start or overflow, and is checked here, where the grid
    is sampled, so that a command that never samples it (predict) still runs
    and compare first reports what its enumeration finds.
    """
    if not (math.isfinite(grid.t_end) and grid.t_end > grid.t_start):
        raise ConfigError(
            "config.grid.t_end",
            f"the default horizon 20 / mean|g| does not exceed t_start = "
            f"{grid.t_start!r} (t_end would be {grid.t_end!r}); give t_end",
        )


def run_simulate(config: ExperimentConfig) -> TimeSeries:
    """Sample the closed-form evolution on the configured grid.

    Writes CSV columns t, re_r, im_r, r_sq, expectation (or the JSON
    equivalent) when an output is configured.
    """
    grid = config.grid
    _require_grid_memory(grid)
    _require_horizon(grid)
    series = sample_series(config.model, grid.t_start, grid.t_end, grid.steps, config.observable)
    if config.output is not None:
        if config.output.format == "csv":
            series_to_csv(config.output.path, series)
        else:
            write_json(config.output.path, series_to_jsonable(series))
    return series


def run_spectrum(config: ExperimentConfig) -> SpectralDecomposition:
    """Enumerate the merged spectrum, with the merge radius and the cap of
    the verdict settings, and emit it as CSV."""
    verdict = config.verdict
    dec = spectral_decomposition(
        config.model, verdict.omega_tolerance, max_spins=verdict.enumeration_cap
    )
    if config.output is not None:
        decomposition_to_csv(config.output.path, dec)
    return dec


def run_predict(config: ExperimentConfig) -> LemmaReport:
    """Run the analytical verdict pipeline and emit the JSON report."""
    report = decoherence_verdict(config.model, config.verdict)
    if config.output is not None:
        write_json(config.output.path, report.to_dict())
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
        return asdict(self)


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
    model, grid = config.model, config.grid
    _require_grid_memory(grid)
    report = decoherence_verdict(model, config.verdict)

    _require_horizon(grid)
    series = sample_series(model, grid.t_start, grid.t_end, grid.steps)
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
        write_json(config.output.path, {
            "prediction": report.to_dict(),
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
    than 1e-10; failures carry the full model for replay, in case order.

    The cases are drawn in case order from one generator and queued by
    model size. A queue is evaluated as one stack (_oracle_stack) when it
    holds _ORACLE_STACK_STATES states, and what is left in each queue at
    the end; so the memory held does not grow with the number of cases.
    """
    if n_max < 1:
        raise ConfigError("oracle_check.n_max", f"must be >= 1, got {n_max}")
    if n_max > ORACLE_CAP:
        raise ConfigError(
            "oracle_check.n_max", f"must be <= oracle cap {ORACLE_CAP}, got {n_max}"
        )
    if cases < 1:
        raise ConfigError("oracle_check.cases", f"must be >= 1, got {cases}")
    if seed < 0:
        raise ConfigError("oracle_check.seed", f"must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    queues: dict[int, list[tuple]] = {}
    found: list[tuple] = []
    max_error = 0.0
    for index in range(cases):
        n = int(rng.integers(1, n_max + 1))
        model_seed = int(rng.integers(0, 2**63))
        system = rng.uniform(-0.5, 0.5, size=4)
        env = rng.uniform(-0.5, 0.5, size=(n, 4))
        queue = queues.setdefault(n, [])
        queue.append((index, model_seed, system, env, 50.0 * rng.random()))
        if len(queue) << (n + 1) >= _ORACLE_STACK_STATES:
            max_error = max(max_error, _oracle_stack(n, queues.pop(n), found))
    for n, queue in queues.items():
        max_error = max(max_error, _oracle_stack(n, queue, found))

    failures = tuple(
        OracleFailure(index, n, model_seed, t, error, model_to_dict(
            generate_random(n, model_seed, UniformPositive(1.0), PhaseLaw.UNIFORM)))
        for index, n, model_seed, t, error in sorted(found)
    )
    return OracleCheckSummary(cases, max_error, ORACLE_TOLERANCE, failures)


def _oracle_stack(n: int, queue: list[tuple], found: list[tuple]) -> float:
    """Evaluate queued oracle-check cases of model size n in one stack.

    ``queue`` holds (case index, model seed, system entries, local entries,
    t) per case. One draw of the baths, one closed-form pass and one
    state-vector pass serve the whole stack; no model object is built.
    Appends (case index, n, model seed, t, error) of each failing case to
    ``found`` and returns the largest error.
    """
    index, seeds, system, env, t = zip(*queue)
    bath = random_spin_arrays(n, seeds, UniformPositive(1.0), PhaseLaw.UNIFORM)
    amp = BALANCED_AMPLITUDE
    closed = expectation_full_stack(amp, amp, *bath, system, env, t)
    errors = np.abs(closed - brute_force_stack(amp, amp, *bath, system, env, t))
    for row in np.flatnonzero(~(errors <= ORACLE_TOLERANCE)).tolist():
        found.append((index[row], n, seeds[row], t[row], float(errors[row])))
    return float(errors.max())
