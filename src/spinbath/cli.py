"""Command-line front end.

Subcommands: simulate, predict, compare, oracle-check, spectrum. Every
run is described by a JSON config document, CLI flags, or both; flags
override file values (a model given by flags replaces the file's model
section wholesale). Exit codes: 0 success, 1 assertion or tension
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Iterable

from .errors import ConfigError, SpinBathError
from .harness import (
    FLOAT_FORMAT,
    GRID_FIELDS,
    OUTPUT_FORMATS,
    VERDICT_FIELDS,
    Field,
    parse_config,
    run_compare,
    run_oracle_check,
    run_predict,
    run_simulate,
    run_spectrum,
)


def _load_json_file(path: str, what: str) -> Any:
    try:
        with open(path, "r") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(what, f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(what, f"invalid JSON in {path}: {exc}") from None


# The flags of a random model, in the order their conflicts are reported;
# --model-file conflicts with each of them.
_RANDOM_MODEL_FLAGS = (
    ("--n", dict(type=int, help="number of bath spins (random model)")),
    ("--seed", dict(type=int, help="random model seed")),
    ("--g-max", dict(
        type=float,
        help="uniform coupling upper bound, couplings in (0, g_max] (default 1.0)",
    )),
    ("--equal-coupling", dict(
        type=float, metavar="G",
        help="give every spin the same coupling G instead of random couplings",
    )),
    ("--phases", dict(choices=["zero", "uniform"], help="bath amplitude phases (default zero)")),
)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="FILE", help="JSON config document")
    sub.add_argument("--model-file", metavar="FILE", help="inline model JSON file")
    for flag, options in _RANDOM_MODEL_FLAGS:
        sub.add_argument(flag, **options)


def _add_setting_flags(sub: argparse.ArgumentParser, fields: Iterable[Field]) -> None:
    """One flag per row of a config field table: ``--`` plus the key with dashes."""
    for f in fields:
        sub.add_argument("--" + f.key.replace("_", "-"), type=f.kind, default=None, help=f.help)


def _add_output_flags(sub: argparse.ArgumentParser, command: str) -> None:
    formats = OUTPUT_FORMATS[command]
    sub.add_argument("--output", metavar="FILE", help="write results to this path")
    sub.add_argument(
        "--format", choices=formats, default=None,
        help=f"output format (default {formats[0]})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description=(
            "Spin-bath dephasing: simulate the closed-form evolution, or "
            "predict decoherence analytically from the exact frequency "
            "spectrum, and compare the two."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="sample r(t) and |r(t)|^2 on a grid")
    _add_model_flags(simulate)
    _add_setting_flags(simulate, GRID_FIELDS)
    _add_output_flags(simulate, "simulate")

    predict = sub.add_parser("predict", help="analytical decoherence verdict")
    _add_model_flags(predict)
    _add_setting_flags(predict, VERDICT_FIELDS)
    _add_output_flags(predict, "predict")

    compare = sub.add_parser("compare", help="run both pipelines and reconcile")
    _add_model_flags(compare)
    _add_setting_flags(compare, GRID_FIELDS)
    _add_setting_flags(compare, VERDICT_FIELDS)
    _add_output_flags(compare, "compare")

    oracle = sub.add_parser(
        "oracle-check", help="closed form vs state-vector oracle on random cases"
    )
    oracle.add_argument("--n-max", type=int, default=10, help="largest bath size")
    oracle.add_argument("--cases", type=int, default=100)
    oracle.add_argument("--seed", type=int, default=1)

    spectrum = sub.add_parser("spectrum", help="dump the exact frequency spectrum")
    _add_model_flags(spectrum)
    _add_setting_flags(spectrum, [f for f in VERDICT_FIELDS if f.enumeration])
    spectrum.add_argument("--output", metavar="FILE", help="write CSV to this path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parse tree, built on the first ``main`` call and kept for the process.

    Building it (five subparsers, about seventy flags) is a fixed cost as
    large as the physics of a small ``predict``; parsing leaves no state in it,
    so repeated in-process calls share it. A shell invocation still builds it once.
    """
    return build_parser()


def _model_dict_from_flags(args: argparse.Namespace) -> dict[str, Any] | None:
    """Translate model flags into a config model section, or None."""
    given = [flag for flag, _ in _RANDOM_MODEL_FLAGS
             if getattr(args, flag[2:].replace("-", "_")) is not None]
    if args.model_file is not None:
        if given:
            raise ConfigError("model", f"--model-file conflicts with {given[0]}")
        return {"inline": _load_json_file(args.model_file, "model")}
    if not given:
        return None
    if args.n is None or args.seed is None:
        raise ConfigError("model", "a random model needs both --n and --seed")
    if args.equal_coupling is not None and args.g_max is not None:
        raise ConfigError("model", "--equal-coupling conflicts with --g-max")
    section: dict[str, Any] = {"n": args.n, "seed": args.seed}
    if args.equal_coupling is not None:
        section["coupling"] = {"law": "equal", "g": args.equal_coupling}
    elif args.g_max is not None:
        section["coupling"] = {"law": "uniform_positive", "g_max": args.g_max}
    if args.phases is not None:
        section["phases"] = args.phases
    return {"random": section}


def _assemble(args: argparse.Namespace) -> dict[str, Any]:
    """Merge the config file (if any) with flag overrides into one dict.

    Flags merge into a section that is absent or an object; any other value
    is left as it is, for parse_config to refuse with its field path.
    """
    data: dict[str, Any] = {}
    if args.config is not None:
        loaded = _load_json_file(args.config, "config")
        if not isinstance(loaded, dict):
            raise ConfigError("config", "expected a JSON object")
        data = loaded

    model = _model_dict_from_flags(args)
    if model is not None:
        data["model"] = model

    for key, fields in (("grid", GRID_FIELDS), ("verdict", VERDICT_FIELDS)):
        flags = {f.key: v for f in fields if (v := getattr(args, f.key, None)) is not None}
        section = data.get(key, {})
        if flags and isinstance(section, dict):
            data[key] = {**section, **flags}

    output = data.get("output", {})
    path, fmt = getattr(args, "output", None), getattr(args, "format", None)
    if isinstance(output, dict):
        if path is not None:
            # a format left out here is the command's default, filled in by parse_config
            fmt = fmt or output.get("format")
            data["output"] = {"path": path, **({"format": fmt} if fmt else {})}
        elif fmt is not None and "output" in data:
            data["output"] = {**output, "format": fmt}
    return data


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = parse_config(_assemble(args), OUTPUT_FORMATS["simulate"])
    series = run_simulate(config)
    t0, t1 = float(series.times[0]), float(series.times[-1])
    print(f"simulated {len(series)} points on [{t0:{FLOAT_FORMAT}}, {t1:{FLOAT_FORMAT}}]")
    if config.output is not None:
        print(f"wrote {config.output.path}")
    else:
        final = float(abs(series.r_values[-1]) ** 2)
        print(f"final |r|^2 = {final:{FLOAT_FORMAT}}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    config = parse_config(_assemble(args), OUTPUT_FORMATS["predict"])
    report = run_predict(config)
    print(
        f"verdict: {report.verdict.value} "
        f"(n_points={report.n_points}, quasi_continuous={report.quasi_continuous}, "
        f"in_l1={report.in_l1})"
    )
    if config.output is not None:
        print(f"wrote {config.output.path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = parse_config(_assemble(args), OUTPUT_FORMATS["compare"])
    result = run_compare(config)
    status = "consistent" if result.agreement.consistent else "tension"
    print(
        f"verdict: {result.prediction.verdict.value}; "
        f"late-time avg |r|^2 = {result.decay_stats.time_avg_r_sq_last_half:{FLOAT_FORMAT}}; "
        f"agreement: {status}"
    )
    if result.agreement.description:
        print(result.agreement.description)
    if config.output is not None:
        print(f"wrote {config.output.path}")
    return 0 if result.agreement.consistent else 1


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    summary = run_oracle_check(args.n_max, args.cases, args.seed)
    print(
        f"oracle check: {summary.cases} cases, "
        f"max |closed - brute| = {summary.max_abs_error:.3e} "
        f"(tolerance {summary.tolerance:.0e})"
    )
    if summary.passed:
        return 0
    first = summary.failures[0]
    print(
        f"FAILED case {first.case_index}: n={first.n}, "
        f"model_seed={first.model_seed}, t={first.t:{FLOAT_FORMAT}}, "
        f"error={first.error:.3e}",
        file=sys.stderr,
    )
    print("model for replay:", file=sys.stderr)
    print(json.dumps(first.model), file=sys.stderr)
    return 1


def _cmd_spectrum(args: argparse.Namespace) -> int:
    data = _assemble(args)
    # the spectrum goes as CSV to --output alone, never to the config's output
    data.pop("output", None)
    if args.output is not None:
        data["output"] = {"path": args.output}
    dec = run_spectrum(parse_config(data, OUTPUT_FORMATS["spectrum"]))
    lo, hi = dec.omega[0], dec.omega[-1]
    print(f"{dec.n_lines} lines over [{lo:{FLOAT_FORMAT}}, {hi:{FLOAT_FORMAT}}]")
    if args.output is not None:
        print(f"wrote {args.output}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "oracle-check": _cmd_oracle_check,
    "spectrum": _cmd_spectrum,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpinBathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
