"""Single-pass sparse spectral reconstruction from randomly subsampled signals.

The library recovers a K-tone signal from a random subset of its time
samples: threshold detection on an initial DFT locates the occupied bins,
and a small least-squares solve on a partial DFT matrix recovers the exact
amplitudes. Alongside the double-precision reference pipeline it ships
bit-true models of the fixed-point primitives (LUT logarithm,
non-restoring square root) used by the hardware-style threshold datapath,
plus a Monte-Carlo harness that calibrates the noise model behind the
threshold.
"""

from .hw_datapath import FixedThresholdTrace, reconstruct_hardware, threshold_fixed
from .hw_primitives import (
    FixedLog,
    SqrtResult,
    lut_log2,
    lut_log10,
    nr_sqrt,
    nr_sqrt_batch,
)
from .montecarlo import (
    CalibrationResult,
    Metrics,
    XcheckResult,
    compute_metrics,
    derive_trial_seed,
    run_recovery_trials,
    run_threshold_xcheck,
    run_variance_calibration,
)
from .recon_core import (
    AmpMode,
    DetectionResult,
    ReconstructionResult,
    SingularSystemError,
    ThresholdConfig,
    ThresholdVariant,
    UnderdeterminedError,
    build_cs_matrix,
    detect_positions,
    hermitian,
    idft,
    initial_dft,
    ls_solve,
    missing_noise_variance,
    reconstruct,
    spectral_positioning,
    threshold,
)
from .signal_model import (
    Measurement,
    SamplingPattern,
    SparseSpec,
    estimate_sum_sq_amplitudes,
    random_pattern,
    sample,
    sum_sq_amplitudes,
    synthesize,
)

__version__ = "0.1.0"
