"""Command line entry point.

Subcommands:
  run      execute a config file
  preset   execute a shipped experiment preset by name
  bound    print a convergence envelope or the finite-step count
  compare  run several configs differing only in method and tabulate
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..bounds import heat_bound_equal, heat_bound_even, heat_bound_unequal, wave_steps_needed
from ..errors import WrkitError
from .presets import preset_names, preset_text
from .run import compare_methods, run_experiment
from .spec import ExperimentSpec, _int, _number, _number_or_list, _numbers, load_config, with_out_dir

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wrkit",
        description="Waveform-relaxation benchmark runner.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a key=value config file")
    run.add_argument("--config", required=True, help="path to the config file")
    run.add_argument("--out", default=None, help="output directory override")

    pre = sub.add_parser("preset", help="execute a shipped experiment preset")
    pre.add_argument("name", nargs="?", help="preset name; see --list")
    pre.add_argument("--list", action="store_true", help="print shipped preset names")
    pre.add_argument("--out", default=None, help="output directory override")

    bound = sub.add_parser("bound", help="print an envelope curve or step count")
    bound.add_argument(
        "--kind",
        required=True,
        choices=("heat-unequal", "heat-even", "heat-equal", "wave-steps"),
    )
    bound.add_argument(
        "--params",
        nargs="+",
        required=True,
        metavar="KEY=VALUE",
        help="e.g. count=5 h=1 nu=1 T=2 kmax=15, or T=5 widths=1,0.5,1.5,1,1 c=1",
    )

    cmp = sub.add_parser("compare", help="run configs differing only in method")
    cmp.add_argument("--configs", nargs="+", required=True, help="config files")
    cmp.add_argument("--out", default=None, help="output directory override")
    return top


def _print_report(label: str, report, out_dir: str) -> None:
    conv = (
        f"converged at iteration {report.converged_at}"
        if report.converged_at is not None
        else "did not converge"
    )
    print(f"{label}: {report.iterations} iterations, {conv}")
    print(f"  final max interface error: {report.max_errors[-1]!r}")
    print(f"  files in {out_dir}: {label}.csv, {label}_manifest.txt")


def _read_config(path: str) -> str:
    """A config file's text; one that is not UTF-8 is an error that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise WrkitError(f"{path}: not UTF-8 text ({exc})") from None


def _run_config_text(text: str, fallback_label: str, out: str | None) -> int:
    spec = load_config(text)
    if spec.label == ExperimentSpec.label and fallback_label:
        spec = replace(spec, label=fallback_label)
    spec = with_out_dir(spec, out)
    report = run_experiment(spec)
    _print_report(spec.label, report, spec.out)
    return 0


def _parse_params(tokens) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise WrkitError(f"bound params must be KEY=VALUE, got {tok!r}")
        out[key] = value
    return out


def _cmd_bound(kind: str, params: dict[str, str]) -> int:
    """Print one envelope curve or step count; every failure is a WrkitError.

    Numbers go through the config parsers, so they must be finite. All
    rows are computed before the first one is printed, so a failing call
    leaves stdout empty.
    """

    def take(key: str, parse, default: str | None = None):
        value = params.pop(key, default)
        if value is None:
            raise WrkitError(f"bound --kind {kind} needs {key}=VALUE")
        return parse(value, key)

    if kind == "wave-steps":
        fn = wave_steps_needed
        args = (take("T", _number), take("widths", _numbers), take("c", _number_or_list, "1"))
    else:
        if kind == "heat-equal":
            fn = heat_bound_equal
            args = (take("count", _int), take("h", _number), take("nu", _number), take("T", _number))
        else:
            fn = heat_bound_unequal if kind == "heat-unequal" else heat_bound_even
            args = (take("m", _int), take("widths", _numbers), take("nu", _number), take("T", _number))
        kmax = take("kmax", _int, "20")
        if kmax < 0:
            raise WrkitError(f"bound --kind {kind} needs kmax >= 0, got {kmax}")
    if params:
        raise WrkitError(f"unused bound params: {sorted(params)}")
    try:
        if kind == "wave-steps":
            lines = [str(fn(*args))]
        else:
            lines = ["k,bound"] + [f"{k},{fn(*args, k)!r}" for k in range(kmax + 1)]
    except ValueError as exc:
        raise WrkitError(f"bound: {exc}") from None
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            text = _read_config(args.config)
            return _run_config_text(text, Path(args.config).stem, args.out)

        if args.command == "preset":
            if args.list:
                for name in preset_names():
                    print(name)
                return 0
            if args.name is None:
                print("error: give a preset name or --list", file=sys.stderr)
                return 2
            return _run_config_text(preset_text(args.name), args.name, args.out)

        if args.command == "bound":
            return _cmd_bound(args.kind, _parse_params(args.params))

        specs = [load_config(_read_config(path)) for path in args.configs]
        table = compare_methods(specs, out_dir=args.out)
        print("label            method          iterations  final_err")
        for row in table.rows:
            iters = "-" if row.iterations is None else str(row.iterations)
            print(f"{row.label:<16} {row.method:<15} {iters:>10}  {row.final_error!r}")
        return 0
    except (WrkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
