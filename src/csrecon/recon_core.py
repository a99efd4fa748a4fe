"""Reference reconstruction pipeline in double precision.

The chain: form the initial DFT from the available samples placed at their
original time positions, model the spectral noise caused by the missing
samples, derive a detection threshold, pick the bins above it, and solve a
small least-squares system on a partial DFT matrix to recover the exact
amplitudes at the detected bins. The zero-filled spectrum is then inverted
back to the time domain. Everything here is a pure function but for one memo
that changes no bit: the initial DFT keeps the kernel of a length N <= 512 that
repeats or comes as a stack of trials, at most 4 MiB. The initial DFT's row
blocks, of one trial or a stack, are shared out over one thread per usable CPU,
at most four, all joined before it returns, each row with the bits of a lone
call. The Monte-Carlo runners run the same chain on (T, N_a) stacks of trials
(:func:`_pipeline`), in chunks, each row with the bits of a lone call. The
fixed-point counterpart of the threshold stage lives in :mod:`csrecon.hw_datapath`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .csvio import write_detection_csv, write_spectrum_csv  # noqa: F401  traced by bench/spans.py
from .signal_model import (Measurement, SamplingPattern, _mean_power, _real, _typed, _whole,
                           spectral_positioning)

__all__ = [
    "ThresholdVariant",
    "AmpMode",
    "ThresholdConfig",
    "DetectionResult",
    "ReconstructionResult",
    "UnderdeterminedError",
    "SingularSystemError",
    "initial_dft",
    "missing_noise_variance",
    "threshold",
    "detect_positions",
    "effective_threshold",
    "build_cs_matrix",
    "hermitian",
    "ls_solve",
    "spectral_positioning",
    "idft",
    "reconstruct",
]


class UnderdeterminedError(ValueError):
    """More unknown bins than available measurements."""


class SingularSystemError(ValueError):
    """The normal-equation matrix is numerically singular."""


class ThresholdVariant(str, Enum):
    """Which closed form the threshold uses.

    ``paper``: T = (var/n) * sqrt(-log10(1 - P**(1/n)))
    ``ref10``: T = sqrt(-var * ln(1 - P**(1/n)))

    The ``ref10`` form matches the exponential tail statistics of the
    missing-sample noise and is the default; only it keeps the confidence
    promise that all noise bins stay below T with probability p. ``paper``
    keeps the paper's base-10 form, linear in the variance, for comparison:
    its T grows with the amplitudes squared, |V| only with the amplitudes: at
    four unit tones, N=256, N_a=128 and p=0.9 it gives T = 1.85 against
    ref10's 44.8, and noise bins pass it in every trial (``p_hat`` 0).
    """

    PAPER = "paper"
    REF10 = "ref10"


class AmpMode(str, Enum):
    """Where the sum of squared amplitudes comes from: supplied by the
    caller (``oracle``) or estimated from the measurement power
    (``estimate``)."""

    ORACLE = "oracle"
    ESTIMATE = "estimate"


@dataclass(frozen=True)
class ThresholdConfig:
    """Detection settings: confidence level, threshold form, amplitude source."""

    p: float
    variant: ThresholdVariant = ThresholdVariant.REF10
    amp_mode: AmpMode = AmpMode.ORACLE

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _real(self.p, "probability"))
        object.__setattr__(self, "variant", ThresholdVariant(self.variant))
        object.__setattr__(self, "amp_mode", AmpMode(self.amp_mode))
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"probability must lie strictly in (0, 1), got {self.p}")


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Threshold, modeled noise variance, and the detected bin indices."""

    threshold: float
    variance: float
    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64).copy()
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def n_detected(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Solved amplitudes, zero-filled spectrum, time signal, and detection info."""

    amplitudes: np.ndarray
    spectrum: np.ndarray
    time_signal: np.ndarray
    detection: DetectionResult

    @property
    def empty_support(self) -> bool:
        """No bin was detected; the spectrum and time signal are zero."""
        return self.detection.n_detected == 0


def initial_dft(meas: Measurement) -> np.ndarray:
    """DFT of the available samples placed at their original time positions.

    Returns the length-n complex vector with
    ``V[f] = sum_a v[a] * exp(-2j*pi*f*positions[a]/n)``.
    Using the original positions in the exponent is what keeps the signal
    bins aligned with the full-data DFT.
    """
    return _dense_dft(meas.values, meas.pattern.positions, meas.pattern.n)


# not smaller: after 1-2 MiB blocks glibc maps the later stages' larger arrays afresh on every
# call (about 1000 page faults per 512×496 reconstruct); 4 MiB blocks keep them in the heap
_BLOCK_BYTES = 4 << 20

# the last call's length, and the read-only n×n kernel of the last n <= 512 called twice in a
# row; a call reads _kernel once, so racing threads can at worst build it twice
_last_n = 0
_kernel = None

# a thread holds numpy's 256 KiB of ufunc buffers while it forms a block's phases, so four
# threads keep the peak within 768 KiB of one thread's whatever the host, and bound the threads
# that callers already running in parallel start
_MAX_WORKERS = 4


def _dense_dft(values: np.ndarray, positions: np.ndarray, n: int) -> np.ndarray:
    """:func:`initial_dft`'s kernel on raw arrays, which the Monte-Carlo runners check per run,
    for one trial's (N_a,) values and positions or a (T, N_a) stack of them, giving (N,) or
    (T, N): ``exp(-2j*pi*outer(k, positions)/n) @ values`` per trial, built in place in blocks
    of rows in one buffer of at most ``_BLOCK_BYTES``. k·p is exact, and a bin is the same gemv
    row sum in any block of two rows or more; numpy sends one row to its dot, which sums
    otherwise. So the bits match while N_a <= 87381, where every block has three rows or more;
    past it, up to 1e-14 off.

    A trial whose kernel fits the buffer is one block of n rows; a larger one is cut into equal
    blocks of at most one worker's slice of the buffer, threaded only while a slice holds three
    rows or more, so no block falls to one row. Every trial's blocks are shared out in equal runs
    over one thread per usable CPU, at most ``_MAX_WORKERS`` and no more than blocks or slices;
    the calling thread takes the first. So every row has the bits of a lone call on one thread.
    The threads end before the call returns; the caller's error is raised, else the
    lowest-numbered failing run's.

    A stack of two trials or more, or the second call in a row, at an n whose n×n kernel fits one
    block (n <= 512) builds and keeps that kernel, read-only, in place of any other; each trial at
    that n then gathers its columns into the block the loop would build, from the same k·p by the
    same steps in the same layout, so every bit holds. Calls at other lengths run the loop and
    leave the kernel in place."""
    global _last_n, _kernel
    vals, pos = np.atleast_2d(values, positions)
    trials, n_a = pos.shape
    kernel, repeated, _last_n = _kernel, n == _last_n or trials > 1, n
    if kernel is not None and len(kernel) != n:
        kernel = None
    if kernel is None and repeated and 16 * n * n <= _BLOCK_BYTES:
        k = np.arange(n, dtype=complex)
        kernel = _kernel_rows(np.empty((n, n), dtype=complex), k, k, n)
        kernel.flags.writeable = False
        _kernel = kernel
    rows = max(1, _BLOCK_BYTES // (16 * n_a))  # kernel rows the buffer holds
    workers = min(_usable_cpus(), _MAX_WORKERS)
    if n <= rows:  # a trial is one block, as a kept kernel's always is
        height, workers = n, min(workers, trials, rows // n)
    else:  # equal blocks of at most one worker's slice, if it holds three rows
        height, workers = (rows // workers, workers) if rows // workers >= 3 else (rows, 1)
    cuts = -(-n // height)
    blocks = [(t, n * i // cuts, n * (i + 1) // cuts) for t in range(trials) for i in range(cuts)]
    buf = np.empty((workers, height, n_a), dtype=complex)
    spectra = np.empty((trials, n), dtype=complex)

    def fill(i: int) -> None:  # the i-th of equal runs of blocks, in the i-th slice
        for t, lo, hi in blocks[len(blocks) * i // workers:len(blocks) * (i + 1) // workers]:
            _fill_rows(spectra[t], lo, hi, buf[i], vals[t], pos[t], kernel)

    with ThreadPoolExecutor(max(1, workers - 1)) as pool:  # leaving it joins every worker
        runs = [pool.submit(fill, i) for i in range(1, workers)]
        fill(0)  # the first run on the calling thread
    for run in runs:
        run.result()
    return spectra if np.ndim(values) > 1 else spectra[0]


# the Monte-Carlo runners' byte budget: a chunk's (trials, N) complex stacks, and each stacked
# solve's (items, N_a, K) matrices with their conjugates, stay within it
_CHUNK_BYTES = _BLOCK_BYTES // 16


def _spectra(pos: np.ndarray, values: np.ndarray, n: int):
    """The runners' one initial-DFT call site: the (T, n_a) trials in equal chunks whose
    (trials, n) spectra fit ``_CHUNK_BYTES``, each as its trial slice and stacked |V| rows."""
    chunks = -(-len(pos) // max(1, _CHUNK_BYTES // (16 * n)))
    for i in range(chunks):
        span = slice(len(pos) * i // chunks, len(pos) * (i + 1) // chunks)
        yield span, np.abs(_dense_dft(values[span], pos[span], n))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fill_rows(spectrum: np.ndarray, lo: int, hi: int, buf: np.ndarray, values: np.ndarray,
               positions: np.ndarray, kernel: np.ndarray | None) -> None:
    """Bins ``lo:hi`` of one trial's ``spectrum`` as one block in ``buf``: all n rows gathered
    from the kept ``kernel``, with ``positions`` checked so the gather skips its bounds check,
    or rows ``lo:hi`` built by :func:`_kernel_rows`; then one gemv."""
    block = buf[:hi - lo]
    if kernel is not None:
        np.take(kernel, positions, axis=1, out=block, mode="clip")
    else:
        _kernel_rows(block, np.arange(lo, hi, dtype=complex), positions.astype(complex),
                     len(spectrum))
    np.matmul(block, values, out=spectrum[lo:hi])


def _kernel_rows(out: np.ndarray, rows: np.ndarray, positions: np.ndarray, n: int) -> np.ndarray:
    """``exp(-2j*pi*outer(rows, positions)/n)`` built in place in ``out``; both complex."""
    np.multiply.outer(rows, positions, out=out)
    out *= -2j * np.pi
    out /= n
    return np.exp(out, out=out)


def missing_noise_variance(n: int, n_a: int, sum_sq_amp: float) -> float:
    """Variance of the spectral noise caused by the missing samples.

    ``var = (n - n_a) * n_a / (n - 1) * sum_sq_amp``: randomly omitting
    samples perturbs every DFT bin, and the perturbation's second moment
    follows the without-replacement sampling variance of the phase sums.
    """
    n = int(_whole(n, "signal length", least=2))
    n_a = int(_whole(n_a, "available count"))
    sum_sq_amp = _real(sum_sq_amp, "sum of squared amplitudes")
    if not 1 <= n_a <= n:
        raise ValueError(f"available count {n_a} outside [1, {n}]")
    if not (math.isfinite(sum_sq_amp) and sum_sq_amp >= 0.0):
        raise ValueError(f"sum of squared amplitudes must be finite and nonnegative, got {sum_sq_amp}")
    return (n - n_a) * n_a / (n - 1) * sum_sq_amp


def _tail_probability(p: float, n: int) -> float:
    """``1 - p**(1/n)``, which both threshold paths take the logarithm of;
    rejects a length that is not a whole number of at least 2.

    Below 2**-26 the subtraction has lost half its digits, so there the value
    is ``-expm1(log(p)/n)``, which keeps full relative accuracy and stays
    positive for every p < 1; above it the subtraction stands, bit for bit."""
    n = int(_whole(n, "signal length", least=2))
    u = 1.0 - p ** (1.0 / n)
    return u if u >= 2.0**-26 else -math.expm1(math.log(p) / n)


def _threshold_terms(var: float, ln_u: float, n: int, variant: ThresholdVariant):
    """Both threshold stages' closed form as T = scale * sqrt(root_arg), with
    ``ln_u`` = ln(1 - p**(1/n)). The variance stays outside the root for
    ``paper``, so a term overflows only where T does; that raises."""
    if variant is ThresholdVariant.PAPER:
        scale, root_arg = var / n, -ln_u / math.log(10.0)
    else:
        scale, root_arg = 1.0, -var * ln_u
    for name, term in (("scale", scale), ("square-root argument", root_arg)):
        if not math.isfinite(term):
            raise ValueError(f"threshold overflows: {name} is {term}")
    return scale, root_arg


def threshold(var: float, n: int, cfg: ThresholdConfig) -> float:
    """Magnitude level separating signal bins from missing-sample noise.

    For ``ref10``, with confidence ``cfg.p`` all noise bins stay below the
    returned level; ``paper``'s level scales with the variance, not with |V|,
    and keeps no such promise (see :class:`ThresholdVariant`).
    The argument of the square root is nonnegative for every valid input
    because 0 < 1 - p**(1/n) < 1 makes the logarithm negative.
    """
    var = _real(var, "variance")
    if not var >= 0.0:
        raise ValueError(f"variance must be nonnegative, got {var}")
    ln_u = math.log(_tail_probability(cfg.p, n))
    scale, root_arg = _threshold_terms(var, ln_u, n, cfg.variant)
    return scale * math.sqrt(root_arg)


def detect_positions(v_spec: np.ndarray, t: float) -> np.ndarray:
    """The comparator: ascending indices of the bins whose magnitude strictly
    exceeds :func:`effective_threshold`, which checks ``t``. ``v_spec`` is the spectrum or |V|."""
    return np.flatnonzero(_above(np.abs(v_spec), t)).astype(np.int64, copy=False)


def _above(mags: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """The comparator rule on |V|, or on each row of a stack: above its row's level."""
    return mags > effective_threshold(t, mags)


def effective_threshold(t: float | np.ndarray, v_spec: np.ndarray) -> float | np.ndarray:
    """Detection level: ``t`` or 1e-9 of the peak of |``v_spec``|, whichever is larger.
    A 2-d ``v_spec`` is a stack of spectra and gets one level per row, as a column, from one
    ``t`` or a (T, 1) column of them; any other shape (numpy would broadcast it into a (T, T)
    level) is refused, as is a NaN or negative ``t``.

    The floor keeps double-precision dust in bins that are zero in exact
    arithmetic from being detected when the modeled threshold is exactly
    zero (no missing samples); above it the floor has no effect.
    """
    if np.ndim(t) and (np.ndim(v_spec) != 2 or np.shape(t) != (len(v_spec), 1)):
        raise ValueError(f"threshold must be a number or a (T, 1) column, got shape {np.shape(t)}")
    t = _typed(t, "threshold", "a real number").astype(float)
    if not t.min(initial=0.0) >= 0.0:  # a NaN or a threshold below 0
        raise ValueError(f"threshold must be nonnegative, got {t.min()}")
    level = np.fmax(t, 1e-9 * np.abs(v_spec).max(axis=-1, initial=0.0, keepdims=True))
    return level if level.ndim > 1 else float(level[0])


def build_cs_matrix(n: int, pattern: SamplingPattern, pos: np.ndarray) -> np.ndarray:
    """Partial inverse-DFT matrix: available-sample rows, detected-bin columns.

    ``a[m, i] = (1/n) * exp(+2j*pi*positions[m]*pos[i]/n)``. With this
    convention the measurement equals the matrix applied to the unnormalized
    DFT restricted to the detected bins, so the solved amplitudes land on the
    same scale as the initial DFT. Entries come from an n-entry twiddle table
    at the phase index ``positions[m]*pos[i] mod n``, reduced exactly in int64.
    Any bin set, empty included, is built; :func:`ls_solve` decides the rest.
    """
    n = int(_whole(n, "signal length"))
    if n != pattern.n:
        raise ValueError(f"signal length {n} does not match pattern length {pattern.n}")
    return _twiddles(pattern.positions, _whole(pos, "frequency bin", n).ravel(), n)


def _twiddles(positions: np.ndarray, bins: np.ndarray, n: int) -> np.ndarray:
    """:func:`build_cs_matrix`'s entries on checked int64 arrays: positions (..., N_a) and bins
    (..., K) give (..., N_a, K), one matrix per item of a stack."""
    phase = positions[..., :, None] * bins[..., None, :]
    phase %= n  # in place, sparing a second array of the product's size
    angle = 2 * np.pi * np.arange(n) / n  # real: numpy's complex division rounds twice
    return (np.exp(1j * angle) / n)[phase]


def _mask_gram(positions: np.ndarray, bins: np.ndarray, n: int) -> np.ndarray:
    """``AᴴA`` of :func:`_twiddles`' matrices from the sampling mask, on the same checked arrays:
    (..., K, K), ``AᴴA[i, j] = M[(bins[i] - bins[j]) mod n] / n²`` with M the DFT of the 0/1 mask
    of ``positions``, in O(n log n + K²). M is one ``rfft`` whose upper half is its conjugate, so
    the Gram is exactly Hermitian; its entries lie within 5e-16 of N_a/n² of the exact sums, where
    ``ah @ a``'s lie within 2.8e-15 (n <= 4096). numpy transforms a stack row by row, so each
    item has the bits of a lone call."""
    mask = np.zeros(positions.shape[:-1] + (n,))
    np.put_along_axis(mask, positions, 1.0, axis=-1)
    half = np.fft.rfft(mask)
    spec = np.concatenate([half, half[..., 1:(n + 1) // 2][..., ::-1].conj()], axis=-1)
    parts = spec.view(float)  # real: numpy's complex division rounds twice
    parts /= n * n
    diff = (bins[..., :, None] - bins[..., None, :]) % n
    return np.take_along_axis(spec, diff.reshape(*diff.shape[:-2], -1), axis=-1).reshape(diff.shape)


def hermitian(mtx: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(mtx).conj().T


def ls_solve(a_cs: np.ndarray, v: np.ndarray, gram: np.ndarray | None = None) -> np.ndarray:
    """Least-squares amplitudes on the detected bins.

    Forms the normal equations ``AᴴA x = Aᴴv`` and solves them with one LU
    factorization (LAPACK, through numpy). ``gram`` is ``AᴴA`` where the caller
    has it in closed form, as the pipelines do from the sampling mask; without
    it ``AᴴA`` is formed from ``a_cs``. More columns than rows raise
    :class:`UnderdeterminedError`. The gate is the R of a QR of ``AᴴA``:
    :class:`SingularSystemError` is raised when R has a diagonal entry below
    1e-10 of the largest. A non-finite ``AᴴA`` or ``Aᴴv`` raises
    :class:`ValueError` before the gate; both are empty, so finite, for an
    empty support, whose solution is empty. For a consistent system, i.e. the
    true support under noiseless sampling, the solution is n times the
    component amplitudes up to a relative error that grows with cond(A)²,
    since the normal equations square A's condition number: up to 8.6e-13 at
    cond(A) < 100, where the pipeline solves, but up to 8.2e-4 at the
    cond(A) of about 1e7 that the gate still accepts (ROADMAP item 6), with
    the product or the mask Gram alike.
    """
    a_cs = np.asarray(a_cs, dtype=complex)
    gram = None if gram is None else np.asarray(gram, dtype=complex)[None]
    x, failure = _solve_stack(a_cs[None], np.asarray(v, dtype=complex)[None], gram)
    if failure is not None:
        raise failure[1]
    return x[0]


def _underdetermined(rows: int, cols: int) -> UnderdeterminedError | None:
    """The one K <= N_a check of every solve, which callers run before they form anything K×K."""
    if rows < cols:
        return UnderdeterminedError(f"{cols} detected bins but only {rows} measurements")
    return None


def _solve_stack(a: np.ndarray, v: np.ndarray, gram: np.ndarray | None = None):
    """:func:`ls_solve` on each item of a complex stack: ``a`` (B, rows, cols), ``v`` (B, rows)
    and, where the caller has it, each item's ``AᴴA`` as ``gram`` (B, cols, cols).

    Returns the (B, cols) solutions and None, or None and the index and error of the first
    item :func:`ls_solve` refuses; an item is refused at the first of its checks it fails.
    Each item's bits are those of a lone call: numpy runs the same BLAS and LAPACK call on
    every 2-d item of a stack.
    """
    items, rows, cols = a.shape
    if (error := _underdetermined(rows, cols)) is not None:
        return None, (0, error)
    if v.shape != (items, rows):
        return None, (0, ValueError(f"right-hand side length {v.shape[1:]} does not match {rows} rows"))
    if gram is not None and gram.shape != (items, cols, cols):
        return None, (0, ValueError(f"Gram shape {gram.shape[1:]} does not match {cols} columns"))
    ah = a.conj().swapaxes(1, 2)  # each item's hermitian
    with np.errstate(invalid="ignore", over="ignore"):  # reported below
        rhs = ah @ v[:, :, None]
        gram = ah @ a if gram is None else gram
    finite = np.isfinite(gram).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    gated = int(finite.argmin()) if not finite.all() else items  # items before the first non-finite
    if cols and gated:
        diag = np.abs(np.diagonal(np.linalg.qr(gram[:gated], mode="r"), axis1=1, axis2=2))
        top, low = diag.max(axis=1), diag.min(axis=1)
        singular = (top == 0.0) | (low < 1e-10 * top)
        if singular.any():
            i = int(singular.argmax())
            return None, (i, SingularSystemError(
                "normal-equation matrix is numerically singular "
                f"(diagonal spread {low[i]:.3e} / {top[i]:.3e})"
            ))
    if gated < items:
        return None, (gated, ValueError(
            "least-squares system is not finite (NaN, inf or overflow in AᴴA or Aᴴv)"))
    return np.linalg.solve(gram, rhs)[:, :, 0], None


def idft(x_spec: np.ndarray) -> np.ndarray:
    """Inverse DFT, ``x[t] = (1/n) * sum_f X[f] * exp(+2j*pi*f*t/n)``."""
    return np.fft.ifft(np.asarray(x_spec, dtype=complex))


def _reference_threshold(var: float, n: int, cfg: ThresholdConfig):
    """Threshold stage of the reference pipeline: the closed form, no record."""
    return threshold(var, n, cfg), None


def _levels(values: np.ndarray, n: int, cfg: ThresholdConfig, sum_sq_amp, threshold_stage):
    """Part 1's level step on a (T, N_a) stack of values: each row's (variance, threshold,
    record), one for all rows in oracle mode, else each from its row's mean power. The first
    row's error is raised; a later one is returned with the levels before it, else None."""
    n_a = values.shape[1]
    if cfg.amp_mode is AmpMode.ORACLE:
        if sum_sq_amp is None:
            raise ValueError("oracle amplitude mode requires sum_sq_amp")
        var = missing_noise_variance(n, n_a, sum_sq_amp)
        return [(var, *threshold_stage(var, n, cfg))] * len(values), None
    levels = []
    for row in values:
        try:
            var = missing_noise_variance(n, n_a, _mean_power(row))
            levels.append((var, *threshold_stage(var, n, cfg)))
        except ValueError as exc:
            if not levels:
                raise
            return levels, exc
    return levels, None


def _detect(meas: Measurement, cfg: ThresholdConfig, sum_sq_amp: float | None, threshold_stage):
    """Part 1 of both pipelines: the level step (:func:`_levels`), initial DFT, comparator.

    ``threshold_stage(var, n, cfg)`` is the one stage the two pipelines do
    not share; it returns the threshold and a record of how it was computed.
    Returns the detection, the initial DFT and that record.
    """
    [(var, t, record)], _ = _levels(meas.values[None], meas.pattern.n, cfg, sum_sq_amp,
                                    threshold_stage)
    v_spec = initial_dft(meas)  # last: every input is checked before the O(N·N_a) kernel
    return DetectionResult(t, var, detect_positions(v_spec, t)), v_spec, record


def _solve(meas: Measurement, detection: DetectionResult) -> ReconstructionResult:
    """Parts 2 and 3: least squares on the detected bins, then the inverse DFT. A gives only the
    right-hand side Aᴴv; ``AᴴA`` comes from the sampling mask (:func:`_mask_gram`). More bins
    than measurements are refused before A or its Gram is formed. :func:`_pipeline` at T = 1
    replaces it once the benchmark's spans stop counting ``build_cs_matrix`` and ``ls_solve``
    (ROADMAP items 2 and 7)."""
    n, positions = meas.pattern.n, meas.pattern.positions
    pos = detection.positions
    if (error := _underdetermined(positions.size, pos.size)) is not None:
        raise error
    x_tp = ls_solve(build_cs_matrix(n, meas.pattern, pos), meas.values,
                    _mask_gram(positions, pos, n))
    spectrum = spectral_positioning(x_tp, pos, n)
    return ReconstructionResult(
        amplitudes=x_tp,
        spectrum=spectrum,
        time_signal=idft(spectrum),
        detection=detection,
    )


def _pipeline(pos: np.ndarray, values: np.ndarray, levels: list, n: int):
    """Parts 1–3 on (T, N_a) rows with their levels from :func:`_levels`, in :func:`_spectra`'s
    chunks: per chunk one comparator pass against the rows' threshold column, one stacked solve
    per detected-bin count (the mask Gram; K <= N_a checked before anything K×K is formed) and
    one inverse DFT. Yields each chunk's trial slice, detected-bin mask and time signals, every
    row with the bits of a lone :func:`reconstruct`; raises the first failing row's error."""
    n_a = pos.shape[1]
    for span, mags in _spectra(pos, values, n):
        p, v = pos[span], values[span]
        above = _above(mags, np.array([[t] for _, t, _ in levels[span]]))
        counts = above.sum(axis=1)
        spectra = np.zeros(mags.shape, dtype=complex)
        failures = []  # (row in the chunk, its error)
        for k in np.unique(counts).tolist():
            rows = np.flatnonzero(counts == k)
            if (error := _underdetermined(n_a, k)) is not None:  # every row fails, before any Gram
                failures.append((rows[0], error))
                continue
            bins = np.nonzero(above[rows])[1].reshape(rows.size, k)
            step = max(1, _CHUNK_BYTES // (32 * n_a * max(k, 1)))
            for s in range(0, rows.size, step):
                r, b = rows[s:s + step], bins[s:s + step]
                gram = _mask_gram(p[r], b, n)
                amps, failure = _solve_stack(_twiddles(p[r], b, n), v[r], gram)
                if failure is not None:
                    failures.append((r[failure[0]], failure[1]))
                    break
                spectra[r[:, None], b] = amps
        if failures:
            raise min(failures, key=lambda f: f[0])[1]
        yield span, above, idft(spectra)


def reconstruct(
    meas: Measurement,
    cfg: ThresholdConfig,
    sum_sq_amp: float | None = None,
) -> ReconstructionResult:
    """Run the full pipeline on one measurement.

    ``sum_sq_amp`` is required in oracle amplitude mode and ignored in
    estimate mode, where the measurement power supplies it. An empty support is
    legitimate: the same solve on zero columns gives a zero spectrum, reported
    through ``empty_support``. Underdetermined and singular systems raise.
    """
    detection, _, _ = _detect(meas, cfg, sum_sq_amp, _reference_threshold)
    return _solve(meas, detection)

