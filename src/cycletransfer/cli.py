"""Command line front end: transfer, analyze, synth."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import SMOOTH_EXPONENTIAL, SMOOTH_MEAN, RunConfig
from .errors import DataError, UsageError
from .tableio import SynthSpec, read_csv, synth_generate, write_csv, write_report
from .transfer import analyze_table, transfer_table


def _add_tuning_flags(parser: argparse.ArgumentParser) -> None:
    defaults = RunConfig()
    parser.add_argument(
        "--alpha", type=float, default=defaults.alpha, help="period validation strictness"
    )
    parser.add_argument(
        "--max-order", type=int, default=defaults.max_order, help="largest candidate trend order"
    )
    parser.add_argument(
        "--smooth-radius", type=int, default=defaults.smooth_radius, help="smoothing window radius"
    )
    parser.add_argument(
        "--smooth-kind",
        choices=[SMOOTH_MEAN, SMOOTH_EXPONENTIAL],
        default=defaults.smooth_kind,
        help="smoother applied before crossover detection",
    )
    parser.add_argument(
        "--exp-alpha", type=float, default=defaults.exp_alpha, help="exponential center weight"
    )
    parser.add_argument("--channels", default=None, help="comma-separated channels to process")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    channel_filter = None
    if args.channels is not None:
        channel_filter = [name for name in args.channels.split(",") if name]
        if not channel_filter:
            raise UsageError("--channels got an empty list")
    return RunConfig(
        alpha=args.alpha,
        max_order=args.max_order,
        smooth_radius=args.smooth_radius,
        smooth_kind=args.smooth_kind,
        exp_alpha=args.exp_alpha,
        channel_filter=channel_filter,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycletransfer",
        description="Transfer the repeating pattern of a clean reference series onto a noisy target.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_transfer = sub.add_parser("transfer", help="refine a target table against a reference table")
    p_transfer.add_argument("--ref", required=True, help="reference CSV")
    p_transfer.add_argument("--target", required=True, help="target CSV")
    p_transfer.add_argument("--out", required=True, help="refined output CSV")
    p_transfer.add_argument("--report", default=None, help="optional diagnostics JSON")
    _add_tuning_flags(p_transfer)
    p_transfer.set_defaults(func=_cmd_transfer)

    p_analyze = sub.add_parser("analyze", help="report per-channel cycle diagnostics")
    p_analyze.add_argument("--input", required=True, help="input CSV")
    p_analyze.add_argument("--report", required=True, help="diagnostics JSON")
    _add_tuning_flags(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_synth = sub.add_parser("synth", help="generate a synthetic test table")
    p_synth.add_argument("--n", type=int, required=True, help="frame count")
    p_synth.add_argument("--period", type=int, required=True, help="cycle length in frames")
    p_synth.add_argument("--trend-slope", type=float, required=True)
    p_synth.add_argument("--amplitude", type=float, required=True)
    p_synth.add_argument("--noise-sigma", type=float, required=True)
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", required=True, help="output CSV")
    p_synth.add_argument("--truth-out", default=None, help="noise-free companion CSV")
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def _cmd_transfer(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    ref = read_csv(args.ref)
    target = read_csv(args.target)
    refined, diagnostics = transfer_table(ref, target, cfg)
    write_csv(refined, args.out)
    if args.report is not None:
        write_report(diagnostics, args.report)
    for name, diag in diagnostics.items():
        note = f" ({diag.detail})" if diag.detail else ""
        print(f"channel {name!r}: {diag.status}{note}", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = read_csv(args.input)
    diagnostics = analyze_table(table, cfg)
    write_report(diagnostics, args.report)
    for name, diag in diagnostics.items():
        print(f"channel {name!r}: {diag.status}", file=sys.stderr)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        n=args.n,
        period=args.period,
        trend_slope=args.trend_slope,
        amplitude=args.amplitude,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    write_csv(synth_generate(spec), args.out)
    if args.truth_out is not None:
        write_csv(synth_generate(replace(spec, noise_sigma=0.0)), args.truth_out)
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns 0 on success, 1 on usage errors, 2 on data errors."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
