"""Fixed-point threshold datapath.

Mirrors the block structure of the detection front end: the threshold is
computed with the LUT logarithm and the non-restoring square root instead of
libm calls, then the pipeline shares the reference comparator,
:func:`~csrecon.recon_core.detect_positions`. The adders and multipliers
around those primitives are modeled at value level in double precision; only
the log and root stages are bit-true.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import write_trace_csv  # noqa: F401  traced by bench/spans.py
from .hw_primitives import FixedLog, SqrtResult, lut_log2, nr_sqrt
from .recon_core import (
    DetectionResult,
    ReconstructionResult,
    ThresholdConfig,
    ThresholdVariant,
    _above,
    _detect,
    _solve,
    _tail_probability,
    _threshold_terms,
    initial_dft,  # noqa: F401  bench/tests/test_bench.py checks spans wrap this binding too
    missing_noise_variance,
)
from .signal_model import Measurement

__all__ = [
    "FixedThresholdTrace",
    "threshold_fixed",
    "comparator",
    "part1_pipeline",
    "reconstruct_hardware",
]


@dataclass(frozen=True)
class FixedThresholdTrace:
    """Stage-by-stage record of the fixed-point threshold computation.

    ``var_fixed`` is the Q15 image of the variance, ``log_term`` the raw LUT
    logarithm of 1 - p**(1/n), ``root_in``/``root_out`` the integer square
    root stage, ``scale_shift`` the even power of two applied to fit the
    root argument into 32 bits, and ``t_fixed`` the rescaled root times the
    variant's scale. The root argument is -var * ln(1 - p**(1/n)) for
    ``ref10`` and -log10(1 - p**(1/n)) for ``paper``, whose scale is var/n.
    """

    var_fixed: int
    log_term: FixedLog
    root_in: int
    root_out: SqrtResult
    t_fixed: float
    scale_shift: int


def threshold_fixed(
    n: int,
    n_a: int,
    sum_sq_amp: float,
    p: float,
    variant: ThresholdVariant = ThresholdVariant.REF10,
) -> FixedThresholdTrace:
    """Threshold computed through the fixed-point primitives.

    The reference closed form with the logarithm from the Q15 LUT and the
    square root from the 32-bit non-restoring unit. The root argument is
    prescaled by an even power of two so its most significant bit lands at
    position 29 or 30, then the root is post-scaled by half that exponent;
    even shifts keep the rescaling exact. Stays within 1e-3 relative of the
    double-precision threshold for variances from 1e-6 to 1e300.
    """
    cfg = ThresholdConfig(p=p, variant=variant)
    return _fixed_threshold(missing_noise_variance(n, n_a, sum_sq_amp), n, cfg)[1]


def _fixed_threshold(var: float, n: int, cfg: ThresholdConfig):
    """Threshold stage of the hardware pipeline: the datapath and its trace."""
    # the n-th root of p has no dedicated hardware unit; host precision
    log_term = lut_log2(_tail_probability(cfg.p, n))
    scale, root_arg = _threshold_terms(var, log_term.value * math.log(2.0), n, cfg.variant)

    _, exp = math.frexp(root_arg)  # root_arg in [2**(exp-1), 2**exp), or 0
    shift = 30 - exp
    if shift % 2:
        shift += 1
    root_in = round(math.ldexp(root_arg, shift))
    root_out = nr_sqrt(root_in)
    trace = FixedThresholdTrace(
        # exact in integers: ldexp(var, 15) overflows a double past about 5.5e303
        var_fixed=(int(var) << 15) + round(math.ldexp(var - int(var), 15)),
        log_term=log_term,
        root_in=root_in,
        root_out=root_out,
        t_fixed=scale * math.ldexp(root_out.root, -(shift // 2)),
        scale_shift=shift,
    )
    return trace.t_fixed, trace


def comparator(v_spec: np.ndarray, t: float) -> np.ndarray:
    """Bit per bin (``uint8``): 1 when the magnitude strictly exceeds the
    detection level, ``t`` or 1e-9 of the spectral peak, whichever is larger.

    The pipelines use :func:`~csrecon.recon_core.detect_positions` directly;
    this stays only because the benchmark's span list names it.
    """
    return _above(np.abs(v_spec), t).astype(np.uint8)


def part1_pipeline(
    meas: Measurement,
    cfg: ThresholdConfig,
    sum_sq_amp: float | None = None,
) -> tuple[DetectionResult, np.ndarray, FixedThresholdTrace]:
    """Detection front end: the detection, the initial DFT and the threshold trace.

    :func:`reconstruct_hardware` runs the same stage; this stays only because
    the benchmark's span list names it.
    """
    return _detect(meas, cfg, sum_sq_amp, _fixed_threshold)


def reconstruct_hardware(
    meas: Measurement,
    cfg: ThresholdConfig,
    sum_sq_amp: float | None = None,
) -> tuple[ReconstructionResult, FixedThresholdTrace]:
    """Full reconstruction with detection driven by the fixed-point path.

    Runs the reference pipeline with the fixed-point threshold stage in
    place of the double-precision one; nothing else differs.
    """
    detection, _, trace = _detect(meas, cfg, sum_sq_amp, _fixed_threshold)
    return _solve(meas, detection), trace

