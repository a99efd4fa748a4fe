"""What the csrecon benchmark measures and why.

Every workload's parameters and reason, every end-to-end metric with its
regression bound, and every per-layer metric with the end-to-end metric it
is expected to move. ``BENCHMARK.json`` at the repository root carries the
same names, units, bounds and reasons; the benchmark's tests keep the two in
step.
"""

from __future__ import annotations

WORKLOADS = {
    "recon_wide": {
        "why": (
            "Sparse regime at large N: the dense O(N*N_a) initial DFT is ~99% of "
            "each call and the solve does almost no work, so the FFT change shows "
            "here and the solve change does not."
        ),
        "params": {
            "n": 4096, "n_a": 2048, "k": 16, "amplitude": [0.5, 2.0], "phase": "zero",
            "p": 0.99, "variant": "ref10", "amp_mode": "oracle", "inputs": 16,
            "ops_per_input": "reconstruct and reconstruct_hardware, order alternating",
        },
    },
    "recon_dense_spectrum": {
        "why": (
            "Many tones close to N_a: build_cs_matrix plus ls_solve are most of "
            "each call, so the Gram/LAPACK solve change shows here; also covers "
            "the estimate amplitude mode."
        ),
        # Uniform random phases: 192 zero-phase tones all add up at t=0, and
        # when that sample is among the 16 missing ones every bin gets a
        # |sum of amplitudes| ~ 215 offset, detection floods (up to ~500 bins)
        # and the call either raises UnderdeterminedError or solves 2-3 times
        # the columns, so latency would follow how many such inputs a seed draws.
        "params": {
            "n": 512, "n_a": 496, "k": 192, "amplitude": [1.0, 1.25], "phase": "uniform",
            "p": 0.99, "variant": "ref10", "amp_mode": "estimate", "inputs": 64,
            "ops_per_input": "reconstruct and reconstruct_hardware, order alternating",
        },
    },
    "sweeps": {
        "why": (
            "How CLI users and the acceptance suite run csrecon: hundreds of small "
            "trials where per-trial seeding, fixed-point primitives and CSV writing "
            "weigh, so Monte-Carlo batching and I/O changes show."
        ),
        "params": {
            "rounds": 4,
            "op": "one round: calibrate, xcheck, run_recovery_trials(hardware), recon",
            # p applies to all four steps
            "calibrate_xcheck_recovery": {
                "n": 256, "n_a": 128, "tones": "1@10,1@60,1@201", "p": 0.99,
                "trials": 200,
            },
            "recon": {"n": 1024, "n_a": 512, "k": 8, "amplitude": [1.0, 2.0],
                      "path": "hardware"},
        },
    },
}

# name, unit, better, bound (share of the parent's median), meaning.
# Every time is at reference machine speed (see speed.py). CPU speed on small
# shared machines drifts by tens of percent within minutes: on a 2-vCPU
# x86_64 VM the wall-clock op_p50_ms of 30 s runs spread by 0.05-0.18 of its
# median over 10 seeds, the scaled one by 0.011-0.031, and no scaled timing
# metric spread by more than 0.074.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median over 7 fresh processes of import csrecon plus one warm-up call of "
     "each entry point the workload uses"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "median latency of one operation; the wall-clock median is printed next to it"),
    ("op_tail_ms", "ms", "lower", 0.25,
     "highest percentile with at least 10 samples beyond it; the percentile and "
     "count are printed"),
    ("trials_per_s", "1/s", "higher", 0.25,
     "pipeline passes (one reconstruction or one Monte-Carlo trial) per second "
     "of timed operation time"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident set of the workload's process"),
    ("support_exact_rate", "ratio", "higher", 0.1,
     "share of reconstructions on the first pass over the inputs whose detected "
     "support equals the true support"),
    ("hw_ref_agreement", "ratio", "higher", 0.1,
     "share of inputs on which the reference and fixed-point paths detect the "
     "same support"),
    ("ok_rate", "ratio", "higher", 0.01,
     "1 - error_rate: share of operations that returned, exited 0 and passed "
     "every output check"),
)

_FFT = "op_p50_ms, trials_per_s, peak_rss_mb on recon_wide; trials_per_s on sweeps; minor on recon_dense_spectrum"
_SOLVE = "op_p50_ms on recon_dense_spectrum; no change on recon_wide"
_GLUE = "op_p50_ms on all workloads; kept flat or lower by pipeline unification"
_SWEEP = "trials_per_s on sweeps, through the recovery trials"
_FLOOR = "trials_per_s on sweeps (per-trial floor and loop overhead)"
_IO = "op_p50_ms on sweeps"
_BENCH = "none: benchmark bookkeeping, reported so self times add up to the traced operation time"

# (per-layer metric names, expected end-to-end effect)
PER_LAYER_GROUPS = (
    (("recon_core.initial_dft.self_ms", "recon_core.initial_dft.calls",
      "recon_core.initial_dft.peak_alloc_mb"), _FFT),
    (("recon_core.build_cs_matrix.self_ms", "recon_core.build_cs_matrix.peak_alloc_mb",
      "recon_core.ls_solve.self_ms", "recon_core.ls_solve.peak_alloc_mb",
      "recon_core.ls_solve.errors", "recon_core.ls_solve.useful_col_ratio"), _SOLVE),
    (("recon_core.detect_positions.self_ms", "recon_core.effective_threshold.self_ms",
      "recon_core.idft.self_ms", "recon_core.reconstruct.self_ms",
      "hw_datapath.reconstruct_hardware.self_ms", "hw_datapath.part1_pipeline.self_ms",
      "hw_datapath.comparator.self_ms"), _GLUE),
    (("hw_datapath.threshold_fixed.self_ms", "hw_datapath.threshold_fixed.calls",
      "hw_primitives.lut_log2.self_ms", "hw_primitives.lut_log2.calls",
      "hw_primitives.nr_sqrt.self_ms", "hw_primitives.nr_sqrt.calls"), _SWEEP),
    (("signal_model.random_pattern.self_ms", "signal_model.synthesize.self_ms",
      "signal_model.read_signal_csv.self_ms", "montecarlo.derive_trial_seed.self_ms",
      "montecarlo.derive_trial_seed.calls", "montecarlo.run_variance_calibration.self_ms",
      "montecarlo.run_threshold_xcheck.self_ms", "montecarlo.run_recovery_trials.self_ms",
      "montecarlo.compute_metrics.self_ms"), _FLOOR),
    (("cli.main.self_ms", "cli.cmd_calibrate.self_ms", "cli.cmd_xcheck.self_ms",
      "cli.cmd_recon.self_ms", "recon_core.write_spectrum_csv.self_ms",
      "recon_core.write_detection_csv.self_ms", "hw_datapath.write_trace_csv.self_ms"), _IO),
    (("op.self_ms", "op.traced_ms", "op.trace_overhead_ms"), _BENCH),
)

_UNITS = {
    "self_ms": ("ms", "lower"),
    "traced_ms": ("ms", "lower"),
    "trace_overhead_ms": ("ms", "lower"),
    "calls": ("count", "lower"),
    "errors": ("count", "lower"),
    "peak_alloc_mb": ("MB", "lower"),
    "useful_col_ratio": ("ratio", "higher"),
}


def per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, expected effect) for every per-layer metric."""
    out = []
    for names, moves in PER_LAYER_GROUPS:
        for name in names:
            unit, better = _UNITS[name.rsplit(".", 1)[1]]
            out.append((name, unit, better, moves))
    return out
