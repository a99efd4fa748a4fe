"""Command-line front end: signal generation, reconstruction, calibration sweeps.

Exit codes: 0 success, 2 configuration error, 3 empty support,
4 linear-algebra failure (underdetermined or singular system).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields

import numpy as np

from .csvio import fmt, write_csv
from .hw_datapath import reconstruct_hardware, write_trace_csv
from .hw_primitives import log_lut_entries
from .montecarlo import (
    Metrics,
    compute_metrics,
    run_threshold_xcheck,
    run_variance_calibration,
)
from .recon_core import (
    AmpMode,
    SingularSystemError,
    ThresholdConfig,
    ThresholdVariant,
    UnderdeterminedError,
    reconstruct,
    write_detection_csv,
    write_spectrum_csv,
)
from .signal_model import (
    SparseSpec,
    _whole,
    random_pattern,
    read_signal_csv,
    sample,
    synthesize,
    write_signal_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY_SUPPORT = 3
EXIT_LINALG = 4


def _tone_field(convert, text: str, what: str):
    """``convert(text)``, or a ValueError naming the tone field ``what`` and its text."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"invalid {what} '{text}'") from None


def _parse_tones(text: str, n: int, seed: int | None) -> list[tuple[float, int]]:
    """Parse the tone grammar: 'A@k[,A@k...]' or 'random:K:lo:hi'."""
    text = text.strip()
    if text.startswith("random:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"expected random:K:lo:hi, got '{text}'")
        k = int(_whole(_tone_field(int, parts[1], "tone count"), "tone count", least=1))
        if k >= n:  # rng.permutation(n)[:k] would clip k to n
            raise ValueError(f"tone count {k} must be smaller than signal length {n}")
        lo, hi = (_tone_field(float, bound, "amplitude range bound") for bound in parts[2:])
        if not 0.0 <= hi - lo < np.inf:  # the ranges rng.uniform accepts
            raise ValueError(f"invalid amplitude range '{parts[2]}:{parts[3]}': "
                             "hi - lo must be finite and nonnegative")
        if seed is None:
            raise ValueError("random tones require --seed")
        rng = np.random.default_rng(int(_whole(seed, "seed", least=0)))
        bins = rng.permutation(n)[:k]
        amps = rng.uniform(lo, hi, size=k)
        return [(float(a), int(b)) for a, b in zip(amps, bins)]
    tones = []
    for item in text.split(","):
        amp_text, _, bin_text = item.partition("@")
        if not bin_text:
            raise ValueError(f"expected A@k, got '{item}'")
        tones.append((_tone_field(float, amp_text, "amplitude"),
                      _tone_field(int, bin_text, "frequency bin")))
    return tones


def _spec_from_args(args) -> SparseSpec:
    n = int(_whole(args.n, "signal length", least=2))
    tones_text = args.tones if args.tones is not None else f"random:{args.k}:1:1"
    return SparseSpec(n=n, components=_parse_tones(tones_text, n, args.seed))


_METRICS_HEADER = tuple(field.name for field in fields(Metrics))


def _write_sweep(path, report, columns, run_cells, trial_cells, summary_cells) -> None:
    """Write ``kind,trial,seed,<columns>``: a ``trial`` row per trial, then a ``summary`` row,
    each with the run-level ``run_cells`` before its own cells."""
    rows = [["trial", row.trial, row.seed, *run_cells, *trial_cells(row)]
            for row in report.trials]
    rows.append(["summary", len(report.trials), "", *run_cells, *summary_cells])
    write_csv(path, ["kind", "trial", "seed", *columns], rows)


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    write_signal_csv(args.out, synthesize(spec))
    print(f"wrote {args.out}: n={spec.n}, tones={spec.k}")
    return EXIT_OK


def cmd_recon(args) -> int:
    x = read_signal_csv(args.infile)
    n = x.size
    full_mag = np.abs(np.fft.fft(x))
    true_support = np.flatnonzero(full_mag > 1e-6 * full_mag.max())
    cfg = ThresholdConfig(p=args.p, variant=args.variant, amp_mode=args.amp_mode)
    # full-signal power equals the sum of squared amplitudes for distinct tones
    with np.errstate(over="ignore"):  # missing_noise_variance rejects inf by name
        ssa = float(np.mean(np.abs(x) ** 2))
    meas = sample(x, random_pattern(n, args.na, args.seed))
    if args.path == "hardware":
        result, trace = reconstruct_hardware(meas, cfg, ssa)
        write_trace_csv(f"{args.out}.trace.csv", trace)
    else:
        result = reconstruct(meas, cfg, ssa)
    write_spectrum_csv(f"{args.out}.spectrum.csv", result.spectrum)
    write_detection_csv(f"{args.out}.detection.csv", result.detection)
    row = astuple(compute_metrics(result, x, true_support))
    write_csv(f"{args.out}.metrics.csv", _METRICS_HEADER, [row])
    print(" ".join(f"{key}={fmt(value)}" for key, value in zip(_METRICS_HEADER, row)))
    if result.empty_support:
        print("no bins above threshold", file=sys.stderr)
        return EXIT_EMPTY_SUPPORT
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if args.trials < 100:
        raise ValueError(f"calibration needs at least 100 trials, got {args.trials}")
    spec = _spec_from_args(args)
    cfg = ThresholdConfig(p=args.p, variant=args.variant)
    report = run_variance_calibration(spec, args.na, cfg, args.trials, args.seed)
    _write_sweep(
        args.out, report,
        ["threshold", "model_variance", "noise_power_mean", "noise_mag_max", "all_below"],
        [report.threshold, report.model_variance],
        lambda row: [row.noise_power_mean, row.noise_mag_max, int(row.all_below)],
        [report.empirical_variance, max(r.noise_mag_max for r in report.trials), report.p_hat],
    )
    print(
        f"empirical_variance={fmt(report.empirical_variance)} "
        f"model_variance={fmt(report.model_variance)} "
        f"p_hat={fmt(report.p_hat)} threshold={fmt(report.threshold)}"
    )
    return EXIT_OK


def cmd_xcheck(args) -> int:
    spec = _spec_from_args(args)
    cfg = ThresholdConfig(p=args.p, variant=args.variant)
    report = run_threshold_xcheck(spec, args.na, cfg, args.trials, args.seed)
    _write_sweep(
        args.out, report, ["threshold_ref", "threshold_fixed", "rel_err", "support_match"],
        [report.threshold_ref, report.threshold_fixed, report.max_rel_err],
        lambda row: [int(row.support_match)], [report.agreement_rate],
    )
    print(f"max_rel_err={fmt(report.max_rel_err)} agreement_rate={fmt(report.agreement_rate)}")
    return EXIT_OK


def cmd_dump_lut(args) -> int:
    entries = log_lut_entries()
    write_csv(args.out, ["index", "value"], ([i, int(v)] for i, v in enumerate(entries)))
    print(f"wrote {args.out}: {entries.size} entries")
    return EXIT_OK


def _add_tone_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--tones", help="'A@k[,A@k...]' or 'random:K:lo:hi'")
    group.add_argument("--k", type=int, help="K unit tones at random distinct bins")


def _add_enum_flag(parser: argparse.ArgumentParser, flag: str, default) -> None:
    parser.add_argument(flag, choices=[m.value for m in type(default)], default=default.value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csrecon",
        description="Sparse spectral reconstruction from randomly subsampled signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="synthesize a multitone signal CSV")
    p_gen.add_argument("--n", type=int, required=True)
    _add_tone_flags(p_gen)
    p_gen.add_argument("--seed", type=int, help="required for random tones")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_recon = sub.add_parser("recon", help="reconstruct a signal from a random subset")
    p_recon.add_argument("--in", dest="infile", required=True)
    p_recon.add_argument("--na", type=int, required=True, help="available sample count")
    p_recon.add_argument("--p", type=float, required=True, help="detection confidence")
    p_recon.add_argument("--seed", type=int, required=True)
    _add_enum_flag(p_recon, "--variant", ThresholdVariant.REF10)
    _add_enum_flag(p_recon, "--amp-mode", AmpMode.ORACLE)
    p_recon.add_argument("--path", choices=["reference", "hardware"], default="reference")
    p_recon.add_argument("--out", required=True, help="output file prefix")
    p_recon.set_defaults(func=cmd_recon)

    for name, help_text, func in (
        ("calibrate", "Monte-Carlo noise model calibration", cmd_calibrate),
        ("xcheck", "reference vs fixed-point threshold check", cmd_xcheck),
    ):
        p_sweep = sub.add_parser(name, help=help_text)
        p_sweep.add_argument("--n", type=int, required=True)
        p_sweep.add_argument("--na", type=int, required=True)
        _add_tone_flags(p_sweep)
        p_sweep.add_argument("--p", type=float, required=True)
        _add_enum_flag(p_sweep, "--variant", ThresholdVariant.REF10)
        p_sweep.add_argument("--trials", type=int, required=True)
        p_sweep.add_argument("--seed", type=int, required=True)
        p_sweep.add_argument("--out", required=True)
        p_sweep.set_defaults(func=func)

    p_lut = sub.add_parser("dump-lut", help="dump the log table as index,value CSV")
    p_lut.add_argument("--out", required=True)
    p_lut.set_defaults(func=cmd_dump_lut)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnderdeterminedError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LINALG
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
