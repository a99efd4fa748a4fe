import cmath
import decimal
import math
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csrecon import recon_core
from csrecon.hw_datapath import comparator, reconstruct_hardware, threshold_fixed
from csrecon.hw_primitives import lut_log2
from csrecon.recon_core import (
    AmpMode,
    _above,
    SingularSystemError,
    ThresholdConfig,
    ThresholdVariant,
    UnderdeterminedError,
    _tail_probability,
    build_cs_matrix,
    detect_positions,
    effective_threshold,
    hermitian,
    idft,
    initial_dft,
    ls_solve,
    missing_noise_variance,
    reconstruct,
    spectral_positioning,
    threshold,
)
from csrecon.signal_model import (
    Measurement,
    SamplingPattern,
    SparseSpec,
    random_pattern,
    sample,
    sum_sq_amplitudes,
    synthesize,
)
from helpers import (brute_force_idft, brute_force_initial_dft, exact_tail_probability,
                     one_shot_initial_dft)


def full_measurement(x):
    n = len(x)
    return sample(x, SamplingPattern(n=n, positions=np.arange(n)))


class TestInitialDft:
    def test_full_sampling_orthogonality(self):
        x = synthesize(SparseSpec(n=8, components=[(1.0, 2)]))
        v = initial_dft(full_measurement(x))
        assert abs(v[2] - 8.0) <= 1e-12
        others = np.delete(v, 2)
        assert np.max(np.abs(others)) <= 1e-12

    def test_full_sampling_multitone_bins(self):
        # tone bins carry n times the amplitude, everything else is dust
        spec = SparseSpec(n=128, components=[(1.0, 5), (2.0, 17), (0.5, 99)])
        v = initial_dft(full_measurement(synthesize(spec)))
        np.testing.assert_allclose(
            v[spec.freq_bins], 128 * spec.amplitudes, atol=1e-9
        )
        noise = np.delete(v, spec.freq_bins)
        assert np.max(np.abs(noise)) <= 1e-9

    def test_single_sample_at_origin(self):
        pat = SamplingPattern(n=4, positions=[0])
        meas = sample(np.array([3 - 1j, 0, 0, 0]), pat)
        np.testing.assert_allclose(initial_dft(meas), np.full(4, 3 - 1j), atol=1e-12)

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        meas = sample(x, random_pattern(64, 20, seed=9))
        got = initial_dft(meas)
        want = brute_force_initial_dft(meas.values, meas.pattern.positions, 64)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_permutation_invariance(self):
        # the spectrum depends only on (value, position) pairs
        rng = np.random.default_rng(6)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        pat = random_pattern(32, 12, seed=2)
        order = rng.permutation(12)
        shuffled = SamplingPattern(n=32, positions=pat.positions[order])
        np.testing.assert_allclose(
            initial_dft(sample(x, pat)),
            initial_dft(sample(x, shuffled)),
            atol=1e-9,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1536),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zeros=st.floats(min_value=0.0, max_value=0.5),
    )
    @example(n=4096, fraction=0.5, seed=1, zeros=0.1)
    @example(n=1000, fraction=0.998, seed=2, zeros=0.1)  # n_a = 999
    # n_a = 2048: 128 rows per 4 MiB block, and N a multiple of it (32 blocks)
    @example(n=4096, fraction=2047 / 4096, seed=3, zeros=0.1)
    # n_a = 2048 and N = 2049: plain 128-row blocks would leave a one-row last block
    @example(n=2049, fraction=0.9993, seed=4, zeros=0.1)
    # the largest kept length, whose whole kernel is exactly _BLOCK_BYTES, and the first not kept
    @example(n=512, fraction=0.97, seed=5, zeros=0.1)
    @example(n=513, fraction=0.97, seed=6, zeros=0.1)
    def test_same_bits_as_the_one_shot_expression(self, n, fraction, seed, zeros):
        # any length, powers of two or not; magnitudes 1e-5..1e5 and exact zeros
        n_a = min(n, 1 + int(fraction * n))
        rng = np.random.default_rng(seed)
        pat = random_pattern(n, n_a, seed)
        values = 10.0 ** rng.uniform(-5.0, 5.0, n_a) * np.exp(2j * np.pi * rng.random(n_a))
        values[rng.random(n_a) < zeros] = 0.0
        meas = Measurement(values=values, pattern=pat)
        want = one_shot_initial_dft(meas.values, pat.positions, n)
        # twice: at n <= 512 the second call in a row gathers from the kept kernel
        for _ in range(2):
            assert initial_dft(meas).tobytes() == want.tobytes()

    def test_same_bits_on_every_path_of_a_length_sequence(self, monkeypatch):
        monkeypatch.setattr(recon_core, "_last_n", 0)
        monkeypatch.setattr(recon_core, "_kernel", None)
        kept = None
        # first call, kernel built, gather, length switch, n > 512, first call again, gather
        for step, n in enumerate([256, 256, 256, 512, 700, 512, 256]):
            meas = sample(np.exp(2j * np.pi * np.random.default_rng(step).random(n)),
                          random_pattern(n, n - 3 * step, seed=step))
            want = one_shot_initial_dft(meas.values, meas.pattern.positions, n)
            assert initial_dft(meas).tobytes() == want.tobytes(), (step, n)
            if step == 1:
                kept = recon_core._kernel
            assert recon_core._kernel is kept, (step, n)
        assert kept.shape == (256, 256)

    def test_kept_kernel_is_read_only_and_spectra_are_not_views(self, monkeypatch):
        monkeypatch.setattr(recon_core, "_kernel", None)
        meas = sample(np.arange(64, dtype=complex), random_pattern(64, 40, seed=1))
        want = one_shot_initial_dft(meas.values, meas.pattern.positions, 64)
        initial_dft(meas)
        spectrum = initial_dft(meas)
        assert recon_core._kernel.shape == (64, 64)
        with pytest.raises(ValueError, match="read-only"):
            recon_core._kernel[0, 0] = 0.0
        spectrum[:] = 7.0
        assert initial_dft(meas).tobytes() == want.tobytes()

    def test_one_kernel_of_at_most_one_block_is_retained(self, monkeypatch):
        monkeypatch.setattr(recon_core, "_last_n", 0)
        monkeypatch.setattr(recon_core, "_kernel", None)
        tracemalloc.start()
        try:
            for n in (512, 512, 256, 256):
                initial_dft(sample(np.ones(n, dtype=complex), random_pattern(n, n // 2, seed=2)))
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.Filter(True, recon_core.__file__)])
        retained = sum(stat.size for stat in held.statistics("filename"))
        # the 256×256 kernel alone; the 4 MiB one for 512 would make it 5 MiB
        assert 16 * 256**2 <= retained < 16 * 256**2 + (64 << 10)
        assert retained <= recon_core._BLOCK_BYTES

    def test_threads_sharing_the_kernel_get_the_same_bits(self):
        # alternating lengths make every thread build, replace and gather the kernel
        inputs = [sample(np.exp(1j * np.arange(n)), random_pattern(n, n - 5, seed=n))
                  for n in (96, 96, 95, 96, 95, 95)]
        wants = [one_shot_initial_dft(m.values, m.pattern.positions, m.pattern.n).tobytes()
                 for m in inputs]
        failures = []

        def work():
            for _ in range(40):
                for meas, want in zip(inputs, wants):
                    if initial_dft(meas).tobytes() != want:
                        failures.append(meas.pattern.n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_kernel_memory_is_one_block(self):
        # the whole 4096×2048 kernel is 128 MiB; one block of it is 4 MiB
        n, n_a = 4096, 2048
        meas = sample(np.ones(n, dtype=complex), random_pattern(n, n_a, seed=3))
        tracemalloc.start()
        try:
            initial_dft(meas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


def _recording_kernel_rows(monkeypatch, fail_at=None):
    """Patch ``_kernel_rows`` to record each block's thread and row count, and to raise
    ``LookupError`` on the block that starts at row ``fail_at``."""
    blocks, build = [], recon_core._kernel_rows

    def record(out, rows, positions, n):
        blocks.append((threading.get_ident(), len(out)))
        if rows[0] == fail_at:
            raise LookupError(f"block at row {fail_at}")
        return build(out, rows, positions, n)

    monkeypatch.setattr(recon_core, "_kernel_rows", record)
    return blocks


@pytest.mark.parametrize("n, n_a, trials, calls, built, gathered", [
    # recon_wide: the caller and one worker each build 32 blocks of 64 rows
    (4096, 2048, 1, 1, {(True, 64): 32, (False, 64): 32}, {}),
    # the recon of sweeps, and a stack of three whose second trial spans both threads
    (1024, 512, 1, 1, {(True, 256): 2, (False, 256): 2}, {}),
    (1024, 512, 3, 1, {(True, 256): 6, (False, 256): 6}, {}),
    # a runner of sweeps: the kernel built on the caller, then 100 gathers on each thread
    (256, 128, 200, 1, {(True, 256): 1}, {True: 100, False: 100}),
    # recon_dense_spectrum's repeated call: the kernel built and gathered on the caller alone
    (512, 496, 1, 2, {(True, 512): 1}, {True: 1}),
])
def test_benchmark_shapes_keep_their_work_split_on_two_cpus(monkeypatch, n, n_a, trials, calls,
                                                             built, gathered):
    monkeypatch.setattr(recon_core, "_last_n", 0)
    monkeypatch.setattr(recon_core, "_kernel", None)
    monkeypatch.setattr(recon_core, "_usable_cpus", lambda: 2)
    values, positions = _stack(n, n_a, trials, seed=n + trials)
    for _ in range(calls - 1):
        recon_core._dense_dft(values, positions, n)
    blocks, gathers, fill = _recording_kernel_rows(monkeypatch), [], recon_core._fill_rows

    def record(*args):  # the last argument is the kept kernel, or None
        if args[-1] is not None:
            gathers.append(threading.get_ident())
        return fill(*args)

    monkeypatch.setattr(recon_core, "_fill_rows", record)
    recon_core._dense_dft(values, positions, n)
    caller = threading.get_ident()
    assert Counter((ident == caller, height) for ident, height in blocks) == built
    assert Counter(ident == caller for ident in gathers) == gathered


class TestThreadedBlocks:
    @pytest.mark.parametrize("n, n_a", [
        (1024, 512),  # two 4 MiB blocks
        (3000, 1000),  # 12 blocks of 250 rows, three uneven worker ranges
        (2049, 2048),  # 128-row blocks would leave the last one a row short
    ])
    def test_same_bits_and_one_block_of_memory_for_any_worker_count(self, monkeypatch, n, n_a):
        rng = np.random.default_rng(n)
        positions = np.sort(rng.permutation(n)[:n_a])
        values = rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
        want = one_shot_initial_dft(values, positions, n).tobytes()
        for workers in (1, 2, 3):
            monkeypatch.setattr(recon_core, "_usable_cpus", lambda: workers)
            tracemalloc.start()
            try:
                got = recon_core._dense_dft(values, positions, n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got.tobytes() == want, workers
            # the workers share one buffer of at most _BLOCK_BYTES
            assert peak < recon_core._BLOCK_BYTES + (1 << 20), workers

    @pytest.mark.parametrize("workers, rows, threaded", [
        (2, 6, True), (2, 5, False),  # a 2-worker slice of a 6-row buffer has 3 rows
        (3, 9, True), (3, 8, False),
        (1, 64, False),
    ])
    def test_threads_only_while_each_slice_has_three_rows(self, monkeypatch, workers, rows,
                                                          threaded):
        n, n_a = 72, 40
        monkeypatch.setattr(recon_core, "_kernel", None)
        monkeypatch.setattr(recon_core, "_BLOCK_BYTES", 16 * n_a * rows)
        monkeypatch.setattr(recon_core, "_usable_cpus", lambda: workers)
        blocks = _recording_kernel_rows(monkeypatch)
        meas = sample(np.exp(2j * np.pi * np.random.default_rng(rows).random(n)),
                      random_pattern(n, n_a, seed=rows))
        want = one_shot_initial_dft(meas.values, meas.pattern.positions, n)
        assert initial_dft(meas).tobytes() == want.tobytes()
        # threaded: the caller fills the first range and another thread the rest
        on_caller = {ident == threading.get_ident() for ident, _ in blocks}
        assert on_caller == ({True, False} if threaded else {True})
        assert all(2 <= height <= (rows // workers if threaded else rows) for _, height in blocks)

    def test_a_workers_error_reaches_the_caller_and_no_thread_outlives_the_call(self,
                                                                                monkeypatch):
        n, n_a = 96, 40
        monkeypatch.setattr(recon_core, "_kernel", None)
        monkeypatch.setattr(recon_core, "_BLOCK_BYTES", 16 * n_a * 8)
        monkeypatch.setattr(recon_core, "_usable_cpus", lambda: 2)
        blocks = _recording_kernel_rows(monkeypatch, fail_at=60)  # in the second range's rows
        meas = sample(np.ones(n, dtype=complex), random_pattern(n, n_a, seed=1))
        before = threading.active_count()
        with pytest.raises(LookupError, match="^block at row 60$"):
            initial_dft(meas)
        assert threading.active_count() == before
        assert len({ident for ident, _ in blocks}) == 2

    def test_threads_started_before_a_failed_start_are_joined(self, monkeypatch):
        n, n_a = 96, 40
        monkeypatch.setattr(recon_core, "_kernel", None)
        monkeypatch.setattr(recon_core, "_BLOCK_BYTES", 16 * n_a * 9)
        monkeypatch.setattr(recon_core, "_usable_cpus", lambda: 3)
        started = []

        class SecondStartFails(threading.Thread):
            def start(self):
                if len(started) == 1:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(recon_core.threading, "Thread", SecondStartFails)
        build = recon_core._kernel_rows

        def slow(out, rows, positions, n):  # keeps the started thread busy past the raise
            time.sleep(0.01)
            return build(out, rows, positions, n)

        monkeypatch.setattr(recon_core, "_kernel_rows", slow)
        meas = sample(np.ones(n, dtype=complex), random_pattern(n, n_a, seed=1))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            initial_dft(meas)
        assert threading.active_count() == before
        assert len(started) == 1 and not started[0].is_alive()

    def test_memory_is_bounded_by_the_worker_cap_not_by_the_host(self, monkeypatch):
        # 4096×2048 is 32 blocks: a host with a CPU per block still runs at most _MAX_WORKERS
        n, n_a = 4096, 2048
        meas = sample(np.ones(n, dtype=complex), random_pattern(n, n_a, seed=3))
        peaks = {}
        for cpus in (1, 32):
            monkeypatch.setattr(recon_core, "_usable_cpus", lambda: cpus)
            blocks = _recording_kernel_rows(monkeypatch)
            tracemalloc.start()
            try:
                initial_dft(meas)
                _, peaks[cpus] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            monkeypatch.undo()
        assert 2 <= len({ident for ident, _ in blocks}) <= recon_core._MAX_WORKERS
        # each thread past the first adds numpy's 256 KiB of ufunc buffers
        assert peaks[32] < peaks[1] + (1 << 20)
        assert peaks[32] < 8 << 20


def _stack(n, n_a, trials, seed):
    """``trials`` rows of distinct sorted positions in [0, n) and complex values."""
    rng = np.random.default_rng(seed)
    positions = np.array([np.sort(rng.permutation(n)[:n_a]) for _ in range(trials)])
    values = rng.standard_normal((trials, n_a)) + 1j * rng.standard_normal((trials, n_a))
    return values, positions


class TestStackedCalls:
    @pytest.mark.parametrize("n, n_a", [
        (256, 128),  # kept kernel, eight 512 KiB gathers to a buffer
        (512, 496),  # kept kernel whose one gather nearly fills the buffer
        (700, 300),  # one computed block, not kept
        (1024, 512),  # two blocks: the threads split every trial's rows
    ])
    @pytest.mark.parametrize("trials", [1, 3, 5])  # one, fewer than four workers, indivisible
    def test_rows_have_the_bits_of_a_lone_call_for_any_worker_count(self, monkeypatch, n, n_a,
                                                                      trials):
        values, positions = _stack(n, n_a, trials, seed=n + trials)
        wants = [one_shot_initial_dft(v, p, n).tobytes() for v, p in zip(values, positions)]
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(recon_core, "_usable_cpus", lambda: workers)
            monkeypatch.setattr(recon_core, "_kernel", None)
            got = recon_core._dense_dft(values, positions, n)
            assert got.shape == (trials, n)
            assert [row.tobytes() for row in got] == wants, workers
            assert recon_core._dense_dft(values[0], positions[0], n).tobytes() == wants[0]

    def test_a_stack_keeps_the_kernel_at_its_first_call(self, monkeypatch):
        monkeypatch.setattr(recon_core, "_last_n", 0)
        monkeypatch.setattr(recon_core, "_kernel", None)
        values, positions = _stack(96, 40, 2, seed=1)
        got = recon_core._dense_dft(values, positions, 96)
        assert recon_core._kernel.shape == (96, 96)
        for row, v, p in zip(got, values, positions):
            assert row.tobytes() == one_shot_initial_dft(v, p, 96).tobytes()
        # a length whose kernel exceeds one block is never kept, stacked or not
        recon_core._dense_dft(*_stack(513, 40, 2, seed=2), 513)
        assert recon_core._kernel.shape == (96, 96)

    def test_a_workers_error_reaches_the_caller_and_no_thread_outlives_the_call(self,
                                                                                monkeypatch):
        monkeypatch.setattr(recon_core, "_usable_cpus", lambda: 2)
        trials_on, fill = [], recon_core._fill_rows

        def fail_off_the_caller(*args):
            trials_on.append(threading.get_ident())
            if threading.get_ident() != threading.main_thread().ident:
                raise LookupError("trial on a worker")
            return fill(*args)

        monkeypatch.setattr(recon_core, "_fill_rows", fail_off_the_caller)
        values, positions = _stack(256, 128, 4, seed=3)
        before = threading.active_count()
        with pytest.raises(LookupError, match="^trial on a worker$"):
            recon_core._dense_dft(values, positions, 256)
        assert threading.active_count() == before
        # the caller's two trials, and the worker's first
        assert trials_on.count(threading.main_thread().ident) == 2 and len(trials_on) == 3

    @pytest.mark.parametrize("n, n_a, trials, threads", [
        (256, 128, 600, 3),  # eight gathers fit the buffer; the worker cap allows four
        (512, 496, 40, 0),  # one gather nearly fills the buffer, so the caller works alone
    ])
    def test_threads_and_memory_are_capped_whatever_the_host(self, monkeypatch, n, n_a, trials,
                                                             threads):
        values, positions = _stack(n, n_a, trials, seed=4)
        recon_core._dense_dft(values[:2], positions[:2], n)  # keeps the kernel, untraced
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(recon_core.threading, "Thread", Counted)
        monkeypatch.setattr(recon_core, "_usable_cpus", lambda: 32)
        tracemalloc.start()
        try:
            got = recon_core._dense_dft(values, positions, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(started) == threads <= recon_core._MAX_WORKERS - 1
        assert peak < got.nbytes + recon_core._BLOCK_BYTES + (1 << 20)
        for t in (0, trials // 2, trials - 1):
            assert got[t].tobytes() == one_shot_initial_dft(values[t], positions[t], n).tobytes()


class TestMissingNoiseVariance:
    def test_no_missing_samples(self):
        assert missing_noise_variance(128, 128, 3.0) == 0.0

    def test_direct_arithmetic(self):
        got = missing_noise_variance(256, 128, 1.0)
        assert got == pytest.approx(16384 / 255, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            missing_noise_variance(1, 1, 1.0)
        with pytest.raises(ValueError):
            missing_noise_variance(8, 9, 1.0)
        with pytest.raises(ValueError):
            missing_noise_variance(8, 4, -1.0)

    def test_fractional_counts_rejected(self):
        with pytest.raises(ValueError, match="signal length must be a whole number, got 8.9"):
            missing_noise_variance(8.9, 2, 1.0)
        with pytest.raises(ValueError, match="available count must be a whole number, got 2.5"):
            missing_noise_variance(8, 2.5, 1.0)
        assert missing_noise_variance(8.0, 2.0, 1.0) == missing_noise_variance(8, 2, 1.0)

    def test_matches_monte_carlo(self):
        # empirical noise-bin power of the initial DFT against the model
        n, n_a = 128, 64
        spec = SparseSpec(n=n, components=[(1.0, 37)])
        x = synthesize(spec)
        powers = []
        for seed in range(2000):
            v = initial_dft(sample(x, random_pattern(n, n_a, seed)))
            noise = np.delete(v, 37)
            powers.append(np.mean(np.abs(noise) ** 2))
        model = missing_noise_variance(n, n_a, 1.0)
        assert abs(np.mean(powers) - model) <= 0.10 * model


class TestThreshold:
    def test_zero_variance(self):
        for variant in ThresholdVariant:
            cfg = ThresholdConfig(p=0.99, variant=variant)
            assert threshold(0.0, 256, cfg) == 0.0

    def test_printed_form(self):
        var = 16384 / 255
        cfg = ThresholdConfig(p=0.99, variant="paper")
        expected = math.sqrt(-(var**2) * math.log10(1.0 - 0.99 ** (1.0 / 256))) / 256
        assert threshold(var, 256, cfg) == pytest.approx(expected, rel=1e-12)
        assert threshold(var, 256, cfg) == pytest.approx(0.527, abs=5e-4)

    def test_tail_consistent_form(self):
        var = 49152 / 255  # three unit tones, half of 256 samples
        cfg = ThresholdConfig(p=0.99, variant="ref10")
        expected = math.sqrt(-var * math.log(1.0 - 0.99 ** (1.0 / 256)))
        assert threshold(var, 256, cfg) == pytest.approx(expected, rel=1e-12)
        assert threshold(var, 256, cfg) == pytest.approx(44.2, abs=0.05)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ThresholdConfig(p=0.0)
        with pytest.raises(ValueError):
            ThresholdConfig(p=1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            threshold(-1.0, 64, ThresholdConfig(p=0.9))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=65536),
        p=st.floats(min_value=0.5, max_value=0.9999),
        log10_var=st.floats(min_value=-6.0, max_value=300.0),
    )
    def test_closed_forms_property(self, n, p, log10_var):
        # both forms stay finite up to var = 1e300; the paper form's variance
        # is outside the root, so squaring it cannot overflow. Below 2**-26
        # u is the exact value; above it the library keeps the subtraction bit
        # for bit, which is up to 3.6e-9 off in u (1e-10 in T) near the switch
        var = 10.0**log10_var
        u = 1.0 - p ** (1.0 / n)
        if u < 2.0**-26:
            u = float(exact_tail_probability(p, n))
        forms = {"paper": var / n * math.sqrt(-math.log10(u)), "ref10": math.sqrt(-var * math.log(u))}
        for variant, expected in forms.items():
            got = threshold(var, n, ThresholdConfig(p=p, variant=variant))
            assert math.isfinite(got)
            assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    log10_q=st.floats(min_value=-16.0, max_value=math.log10(0.5)),
    n=st.integers(min_value=2, max_value=2**20),
)
@example(log10_q=-16.0, n=1024)
@example(log10_q=-16.0, n=2)
@example(log10_q=-2.0, n=2**20)
def test_tail_probability_against_decimal(log10_q, n):
    # 1 - p from 1e-16 to 0.5: the subtraction where it keeps half its digits,
    # full relative accuracy below, and never 0 for p < 1
    p = 1.0 - 10.0**log10_q
    u = _tail_probability(p, n)
    err = abs(decimal.Decimal(u) - exact_tail_probability(p, n))
    subtraction = 1.0 - p ** (1.0 / n)
    if subtraction >= 2.0**-26:
        assert u == subtraction
        assert err <= 2.0**-53
    else:
        assert u > 0.0
        assert err <= 4 * 2.0**-53 * u
    assert err <= 2.0**-27 * u


@pytest.mark.parametrize("stage, message", [
    (lambda: threshold(math.nan, 64, ThresholdConfig(p=0.99)), "variance must be nonnegative, got nan"),
    (lambda: detect_positions(np.array([1.0, 2.0, 3.0]), math.nan),
     "threshold must be nonnegative, got nan"),
    (lambda: effective_threshold(math.nan, np.ones(4)), "threshold must be nonnegative, got nan"),
    (lambda: effective_threshold(-1.0, np.ones(4)), "threshold must be nonnegative, got -1.0"),
    (lambda: effective_threshold(np.array([[0.5], [math.nan], [1.0]]), np.ones((3, 4))),
     "threshold must be nonnegative, got nan"),
], ids=["threshold", "detect_positions", "effective_threshold-nan", "effective_threshold-negative",
        "effective_threshold-column"])
def test_nan_at_threshold_stage_boundary_rejected(stage, message):
    # NaN compares false both ways; a `< 0` guard lets it through
    with pytest.raises(ValueError, match=message):
        stage()


@pytest.mark.parametrize("bad", [
    np.complex128(0.5 + 1j), 0.5 + 0j, True, np.bool_(True), "0.5",
    # an object array is checked by the element it holds
    np.array("0.5", dtype=object), np.array(True, dtype=object),
    np.array(0.5 + 1j, dtype=object), np.array(None, dtype=object),
], ids=["numpy-complex", "complex", "bool", "numpy-bool", "text",
        "object-text", "object-bool", "object-complex", "object-none"])
@pytest.mark.parametrize("call, what", [
    (lambda v: SparseSpec(n=8, components=[(v, 2)]), "amplitude"),
    (lambda v: ThresholdConfig(p=v), "probability"),
    (lambda v: threshold_fixed(64, 32, 1.0, v), "probability"),
    (lambda v: missing_noise_variance(64, 32, v), "sum of squared amplitudes"),
    (lambda v: threshold_fixed(64, 32, v, 0.99), "sum of squared amplitudes"),
    (lambda v: reconstruct(full_measurement(np.ones(8)), ThresholdConfig(p=0.99), v),
     "sum of squared amplitudes"),
    (lambda v: reconstruct_hardware(full_measurement(np.ones(8)), ThresholdConfig(p=0.99), v),
     "sum of squared amplitudes"),
    (lambda v: threshold(v, 64, ThresholdConfig(p=0.99)), "variance"),
    (lambda v: detect_positions(np.ones(4), v), "threshold"),
    (lambda v: effective_threshold(v, np.ones(4)), "threshold"),
    (lambda v: lut_log2(v), "input"),
], ids=["amplitude", "p", "threshold_fixed-p", "variance-ssa", "threshold_fixed-ssa",
        "reconstruct-ssa", "reconstruct_hardware-ssa", "threshold-var", "detect_positions-t",
        "effective_threshold-t", "lut_log2-x"])
def test_real_argument_refuses_complex_bool_and_text(call, what, bad):
    # float() would drop the imaginary part, read a bool as 0 or 1, or parse the text
    raw = np.asarray(bad)
    shown = type(raw.item()).__name__ if raw.dtype == object else raw.dtype.name
    message = f"{what} must be a real number, not {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


class TestDetectPositions:
    def test_single_peak(self):
        np.testing.assert_array_equal(detect_positions([0, 10, 0, 0], 5.0), [1])

    def test_all_below(self):
        assert detect_positions([1, 2, 3], 5.0).size == 0

    def test_exact_tie_excluded(self):
        np.testing.assert_array_equal(detect_positions([5.0, 5.0001, 3j], 5.0), [1])

    def test_sorted_ascending(self):
        pos = detect_positions([9, 0, 7, 0, 8], 1.0)
        np.testing.assert_array_equal(pos, [0, 2, 4])

    @staticmethod
    def assert_forms_agree(v, t):
        mags = np.abs(v)
        expected = np.flatnonzero(mags > max(t, 1e-9 * mags.max()))
        for got in (detect_positions(v, t), detect_positions(mags, t),
                    np.flatnonzero(comparator(v, t))):
            np.testing.assert_array_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_spectrum_and_magnitudes_agree(self, data):
        # entries mix exact zeros, exact ties at t, dust near 1e-9 of the
        # peak and ordinary values, so every side of the level is reached
        t = data.draw(st.sampled_from([0.0, 1e-12, 0.5, 1.0]) | st.floats(0.0, 10.0))
        value = st.builds(complex, st.floats(-10, 10), st.floats(-10, 10))
        dust = st.builds(complex, st.floats(-1e-8, 1e-8), st.floats(-1e-8, 1e-8))
        entry = st.sampled_from([0j, complex(t), complex(-t), 1j * t]) | value | dust
        v = np.array(data.draw(st.lists(entry, min_size=1, max_size=64)), dtype=complex)
        self.assert_forms_agree(v, t)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_row_form_matches_each_row(self, data):
        # the Monte-Carlo runners compare a stack of |V| rows at once; each row must get
        # its own dust floor, all-zero rows and t = 0 included
        t = data.draw(st.sampled_from([0.0, 1e-12, 0.5, 1.0]) | st.floats(0.0, 10.0))
        width = data.draw(st.integers(1, 16))
        mag = st.sampled_from([0.0, t]) | st.floats(0.0, 10.0) | st.floats(0.0, 1e-8)
        row = st.lists(mag, min_size=width, max_size=width) | st.just([0.0] * width)
        mags = np.array(data.draw(st.lists(row, min_size=1, max_size=5)), dtype=float)
        levels = effective_threshold(t, mags)
        assert levels.shape == (len(mags), 1)
        for r, level, above in zip(mags, levels, _above(mags, t)):
            assert level[0] == effective_threshold(t, r)
            np.testing.assert_array_equal(np.flatnonzero(above), detect_positions(r, t))
        # the recovery runner's form: a (T, 1) column of one threshold per row
        ts = np.array(data.draw(st.lists(st.sampled_from([0.0, t]) | st.floats(0.0, 10.0),
                                         min_size=len(mags), max_size=len(mags))))[:, None]
        levels = effective_threshold(ts, mags)
        assert levels.shape == (len(mags), 1)
        for r, ti, level, above in zip(mags, ts[:, 0], levels, _above(mags, ts)):
            assert level[0] == effective_threshold(ti, r)
            np.testing.assert_array_equal(np.flatnonzero(above), detect_positions(r, ti))

    @pytest.mark.parametrize("t, v_spec", [
        (np.ones(3), np.ones((3, 4))),  # a row, not a column
        (np.ones((1, 3)), np.ones((3, 4))),
        (np.ones((3, 3)), np.ones((3, 4))),
        (np.ones((2, 1)), np.ones((3, 4))),  # one threshold short
        (np.ones((4, 1)), np.ones(4)),  # a column for one spectrum
        (np.ones(1), np.ones(4)),
    ], ids=["row", "row-2d", "square", "short-column", "column-one-spectrum", "one-element"])
    def test_threshold_of_another_shape_is_refused(self, t, v_spec):
        # numpy would broadcast a (T,) or (1, T) threshold against the (T, 1) floor into (T, T)
        message = f"threshold must be a number or a (T, 1) column, got shape {t.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            effective_threshold(t, v_spec)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 16])
    def test_all_zero_spectrum_detects_nothing(self, n, t):
        v = np.zeros(n, dtype=complex)
        self.assert_forms_agree(v, t)
        assert detect_positions(v, t).size == 0


class TestEffectiveThreshold:
    def test_floor_sets_level_at_zero_threshold(self):
        v = np.array([3.0, -4.0j, 1e-12, 0.0])
        assert effective_threshold(0.0, v) == 1e-9 * 4.0
        np.testing.assert_array_equal(detect_positions(v, effective_threshold(0.0, v)), [0, 1])
        np.testing.assert_array_equal(detect_positions(v, 0.0), [0, 1])

    def test_no_effect_above_floor(self):
        v = np.array([3.0, -4.0j, 1e-12, 0.0])
        for t in (4e-9, 1e-6, 3.5, 10.0):
            assert effective_threshold(t, v) == t


class TestBuildCsMatrix:
    def test_full_matrix_is_synthesis_matrix(self):
        pat = SamplingPattern(n=4, positions=np.arange(4))
        a = build_cs_matrix(4, pat, np.arange(4))
        t, k = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        expected = np.exp(2j * np.pi * t * k / 4) / 4
        np.testing.assert_allclose(a, expected, atol=1e-15)

    def test_half_turn_column(self):
        pat = SamplingPattern(n=4, positions=[0, 2])
        a = build_cs_matrix(4, pat, [1])
        np.testing.assert_allclose(a, [[0.25], [-0.25]], atol=1e-15)

    def test_shape(self):
        pat = random_pattern(64, 32, seed=0)
        assert build_cs_matrix(64, pat, np.arange(5)).shape == (32, 5)

    def test_entry_magnitude(self):
        pat = random_pattern(32, 10, seed=1)
        a = build_cs_matrix(32, pat, [3, 7, 30])
        np.testing.assert_allclose(np.abs(a), 1 / 32, atol=1e-15)

    def test_empty_support(self):
        # the empty support is built and solved like any other
        pat = random_pattern(8, 4, seed=0)
        a = build_cs_matrix(8, pat, np.array([], dtype=int))
        assert a.shape == (4, 0)
        assert ls_solve(a, np.ones(4)).shape == (0,)

    def test_underdetermined(self):
        # built as asked; ls_solve is what rejects it
        pat = random_pattern(8, 2, seed=0)
        a = build_cs_matrix(8, pat, [1, 2, 3])
        assert a.shape == (2, 3)
        with pytest.raises(UnderdeterminedError,
                           match=r"^3 detected bins but only 2 measurements$"):
            ls_solve(a, np.ones(2))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_bin_set_is_built_and_ls_solve_decides(self, data):
        n = data.draw(st.integers(min_value=2, max_value=256), label="n")
        n_a = data.draw(st.integers(min_value=1, max_value=n), label="n_a")
        k = data.draw(st.integers(min_value=0, max_value=n), label="k")
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        pat = random_pattern(n, n_a, seed)
        a = build_cs_matrix(n, pat, rng.choice(n, size=k, replace=False))
        assert a.shape == (n_a, k)
        v = rng.normal(size=n_a) + 1j * rng.normal(size=n_a)
        if k > n_a:
            with pytest.raises(UnderdeterminedError,
                               match=f"^{k} detected bins but only {n_a} measurements$"):
                ls_solve(a, v)
            return
        try:
            assert ls_solve(a, v).shape == (k,)
        except SingularSystemError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_entries_match_reduced_phase_oracle(self, data):
        n = data.draw(st.integers(min_value=2, max_value=4096), label="n")
        n_a = data.draw(st.integers(min_value=1, max_value=min(n, 64)), label="n_a")
        pat = random_pattern(n, n_a, data.draw(st.integers(0, 2**31 - 1), label="seed"))
        bins = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n_a, 8)),
                         label="bins")
        a = build_cs_matrix(n, pat, bins)
        for m, p in enumerate(pat.positions):
            for i, k in enumerate(bins):
                want = cmath.exp(2j * math.pi * ((int(p) * k) % n) / n) / n
                assert abs(a[m, i] - want) <= 1e-15 / n

    def test_large_n_phase_is_exact(self):
        # unreduced, the phase 2*pi*p*k/n of p*k near 2.7e8 carries errors near 1e-11/n
        n = 16384
        pat = random_pattern(n, 2048, seed=5)
        bins = np.concatenate([[n - 1, n // 2 + 1], np.random.default_rng(5).choice(n, 30)])
        a = build_cs_matrix(n, pat, bins)
        pi = 4 * np.arctan(np.longdouble(1))
        phase = 2 * pi * (np.outer(pat.positions, bins) % n).astype(np.longdouble) / n
        err = np.hypot(a.real - np.cos(phase) / n, a.imag - np.sin(phase) / n)
        assert err.max() * n <= 1e-14

    def test_aliased_columns_identical(self):
        # even positions on an 8-point grid: 5*p = p (mod 8), so bins 1 and 5 alias exactly
        pat = SamplingPattern(n=8, positions=[0, 2, 4, 6])
        a = build_cs_matrix(8, pat, [1, 5])
        np.testing.assert_array_equal(a[:, 0], a[:, 1])

    def test_length_must_be_whole(self):
        pat = random_pattern(32, 8, seed=0)
        with pytest.raises(ValueError, match="signal length must be a whole number, got 32.7"):
            build_cs_matrix(32.7, pat, [1])

    def test_bin_must_be_whole(self):
        pat = random_pattern(32, 8, seed=0)
        with pytest.raises(ValueError, match="frequency bin must be a whole number, got 1.5"):
            build_cs_matrix(32, pat, [1.5])

    @pytest.mark.parametrize("bad", [40, 32, -1])
    def test_bin_outside_grid(self, bad):
        pat = random_pattern(32, 8, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"frequency bin {bad} outside [0, 32)")):
            build_cs_matrix(32, pat, [3, bad])

    def test_length_must_match_pattern(self):
        # positions 16 to 31 would otherwise wrap mod 16
        with pytest.raises(ValueError, match="signal length 16 does not match pattern length 32"):
            build_cs_matrix(16, random_pattern(32, 8, seed=0), [1])


class TestHermitian:
    def test_real_diagonal_fixed(self):
        m = np.diag([1.0, 2.0]).astype(complex)
        np.testing.assert_array_equal(hermitian(m), m)

    def test_imaginary_unit(self):
        np.testing.assert_array_equal(hermitian(np.array([[1j]])), [[-1j]])

    def test_involution(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        np.testing.assert_array_equal(hermitian(hermitian(m)), m)


class TestLsSolve:
    def test_full_sampling_tone(self):
        x = synthesize(SparseSpec(n=4, components=[(3.0, 1)]))
        meas = full_measurement(x)
        a = build_cs_matrix(4, meas.pattern, [1])
        np.testing.assert_allclose(ls_solve(a, meas.values), [12.0], atol=1e-9)

    def test_half_sampling_consistent(self):
        x = synthesize(SparseSpec(n=4, components=[(3.0, 1)]))
        pat = SamplingPattern(n=4, positions=[0, 2])
        meas = sample(x, pat)
        a = build_cs_matrix(4, pat, [1])
        np.testing.assert_allclose(ls_solve(a, meas.values), [12.0], atol=1e-9)

    def test_against_pseudo_inverse(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pat = random_pattern(32, 12, int(rng.integers(1 << 30)))
            a = build_cs_matrix(32, pat, rng.choice(32, size=4, replace=False))
            v = rng.normal(size=12) + 1j * rng.normal(size=12)
            got = ls_solve(a, v)
            want, *_ = np.linalg.lstsq(a, v, rcond=None)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_recovers_scaled_amplitudes(self):
        spec = SparseSpec(n=64, components=[(1.0, 4), (2.5, 20), (0.5, 51)])
        x = synthesize(spec)
        pat = random_pattern(64, 32, seed=3)
        meas = sample(x, pat)
        a = build_cs_matrix(64, pat, spec.freq_bins)
        got = ls_solve(a, meas.values)
        np.testing.assert_allclose(got, 64 * spec.amplitudes, rtol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exact_recovery_property(self, data):
        n = data.draw(st.integers(min_value=16, max_value=512), label="n")
        k = data.draw(st.integers(min_value=1, max_value=min(12, n // 2)), label="k")
        n_a = data.draw(st.integers(min_value=2 * k, max_value=n), label="n_a")
        bins = np.array(data.draw(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True), label="bins"))
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.1, 10.0, size=k) * np.exp(2j * np.pi * rng.uniform(size=k))
        x = amps @ np.exp(2j * np.pi * np.outer(bins, np.arange(n)) / n)
        pat = random_pattern(n, n_a, seed)
        a = build_cs_matrix(n, pat, bins)
        assume(np.linalg.cond(a) < 1e3)
        got = ls_solve(a, sample(x, pat).values)
        assert np.linalg.norm(got - n * amps) <= 1e-9 * np.linalg.norm(n * amps)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        pat = random_pattern(48, 20, seed=4)
        a = build_cs_matrix(48, pat, [2, 9, 30, 41])
        v = rng.normal(size=20) + 1j * rng.normal(size=20)
        x = ls_solve(a, v)
        residual = hermitian(a) @ (a @ x - v)
        assert np.max(np.abs(residual)) <= 1e-9

    def test_singular_system(self):
        # even-only sampling of an 8-point grid aliases bins 1 and 5
        pat = SamplingPattern(n=8, positions=[0, 2, 4, 6])
        a = build_cs_matrix(8, pat, [1, 5])
        np.testing.assert_allclose(a[:, 0], a[:, 1], atol=1e-15)
        with pytest.raises(SingularSystemError):
            ls_solve(a, np.ones(4, dtype=complex))

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedError):
            ls_solve(np.ones((2, 3), dtype=complex), np.ones(2))

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            ls_solve(np.eye(3, dtype=complex), np.ones(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_non_finite_system_rejected(self, where, bad):
        a = build_cs_matrix(32, random_pattern(32, 12, seed=2), [3, 17])
        v = np.ones(12, dtype=complex)
        if where == "matrix":
            a[4, 1] = bad
        else:
            v[4] = bad
        with pytest.raises(ValueError, match="least-squares system is not finite"):
            ls_solve(a, v)

    def test_a_given_gram_is_the_one_solved(self):
        a = build_cs_matrix(16, random_pattern(16, 9, seed=3), [1, 4, 6])
        v = a @ np.array([2.0, -1.0j, 0.5])
        assert ls_solve(a, v, hermitian(a) @ a).tobytes() == ls_solve(a, v).tobytes()
        with pytest.raises(SingularSystemError):
            ls_solve(a, v, np.zeros((3, 3)))

    def test_gram_shape_checked(self):
        a = build_cs_matrix(16, random_pattern(16, 9, seed=3), [1, 4, 6])
        with pytest.raises(ValueError, match=r"^Gram shape \(2, 2\) does not match 3 columns$"):
            ls_solve(a, np.ones(9), np.eye(2))


# |mask Gram - AᴴA| over N_a/N², the diagonal: at most 2.8e-15 over 400 of the cases below
_GRAM_BOUND = 1e-14


@st.composite
def _gram_cases(draw):
    """(n, n_a, k, items, seed): N in [2, 4096], any N_a and K in [0, N_a], with N_a·K at most
    2**18 so that a reference A takes at most 4 MiB."""
    n = draw(st.integers(2, 4096), label="n")
    n_a = draw(st.integers(1, n), label="n_a")
    k = draw(st.integers(0, min(n_a, 2**18 // n_a)), label="k")
    return n, n_a, k, draw(st.integers(1, 3), label="items"), draw(st.integers(0, 2**31 - 1))


class TestStackedCores:
    """The Monte-Carlo runner solves stacks of systems; each item must get a lone call's result."""

    @staticmethod
    def _outcome(a, v):
        try:
            return ls_solve(a, v)
        except ValueError as exc:
            return type(exc), str(exc)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_solve_stack_equals_ls_solve_on_each_item(self, data):
        items = data.draw(st.integers(1, 5), label="items")
        rows = data.draw(st.integers(1, 24), label="rows")
        cols = data.draw(st.integers(0, rows + 1), label="cols")  # rows + 1: underdetermined
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
        a = rng.normal(size=(items, rows, cols)) + 1j * rng.normal(size=(items, rows, cols))
        v = rng.normal(size=(items, rows)) + 1j * rng.normal(size=(items, rows))
        for i in range(items):
            fault = data.draw(st.sampled_from(["none", "none", "singular", "nan", "inf"]))
            if fault == "singular" and cols:
                a[i, :, -1] = a[i, :, 0] if cols > 1 else 0.0
            elif fault == "nan" and cols:
                a[i, rng.integers(rows), rng.integers(cols)] = np.nan
            elif fault == "inf":
                v[i, rng.integers(rows)] = np.inf
        x, failure = recon_core._solve_stack(a, v)
        outcomes = [self._outcome(a[i], v[i]) for i in range(items)]
        failed = [i for i, o in enumerate(outcomes) if isinstance(o, tuple)]
        if failed:
            assert x is None
            i, exc = failure
            assert i == failed[0]
            assert (type(exc), str(exc)) == outcomes[i]
            return
        assert failure is None and x.shape == (items, cols)
        for i, lone in enumerate(outcomes):
            ah = hermitian(a[i])
            assert x[i].tobytes() == lone.tobytes()
            assert lone.tobytes() == np.linalg.solve(ah @ a[i], ah @ v[i]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_twiddles_equal_build_cs_matrix_on_each_item(self, data):
        n = data.draw(st.integers(2, 512), label="n")
        items = data.draw(st.integers(1, 4), label="items")
        n_a = data.draw(st.integers(1, n), label="n_a")
        k = data.draw(st.integers(0, 8), label="k")
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        patterns = [random_pattern(n, n_a, seed + i) for i in range(items)]
        bins = np.random.default_rng(seed).integers(0, n, size=(items, k))
        stack = recon_core._twiddles(np.array([p.positions for p in patterns]), bins, n)
        assert stack.shape == (items, n_a, k)
        for i, pattern in enumerate(patterns):
            assert stack[i].tobytes() == build_cs_matrix(n, pattern, bins[i]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=_gram_cases())
    @example(case=(512, 496, 192, 1, 0))  # recon_dense_spectrum's shape
    @example(case=(1000, 600, 437, 2, 9))  # not a power of two: 1/N and 1/N² round
    @example(case=(4096, 4096, 64, 1, 4))
    @example(case=(7, 1, 1, 3, 2))
    @example(case=(2, 2, 0, 2, 1))
    def test_mask_gram_equals_ah_a_on_each_item(self, case):
        n, n_a, k, items, seed = case
        patterns = [random_pattern(n, n_a, seed + i) for i in range(items)]
        bins = np.random.default_rng(seed).integers(0, n, size=(items, k))
        stack = recon_core._mask_gram(np.array([p.positions for p in patterns]), bins, n)
        assert stack.shape == (items, k, k)
        for i, pattern in enumerate(patterns):
            lone = recon_core._mask_gram(pattern.positions, bins[i], n)
            assert stack[i].tobytes() == lone.tobytes()
            assert np.array_equal(lone, hermitian(lone))  # exactly Hermitian, up to the sign of 0
            a = build_cs_matrix(n, pattern, bins[i])
            assert np.abs(lone - hermitian(a) @ a).max(initial=0.0) <= _GRAM_BOUND * n_a / n**2


class TestSpectralPositioning:
    def test_single_bin(self):
        np.testing.assert_array_equal(
            spectral_positioning([12.0], [1], 4), [0, 12, 0, 0]
        )

    def test_empty(self):
        np.testing.assert_array_equal(
            spectral_positioning(np.zeros(0), np.zeros(0, dtype=int), 4), np.zeros(4)
        )

    def test_all_bins_verbatim(self):
        vals = np.arange(4, dtype=complex)
        np.testing.assert_array_equal(spectral_positioning(vals, np.arange(4), 4), vals)

    def test_masking_identity(self):
        vals = np.array([1 + 2j, -3j])
        pos = np.array([5, 1])
        spectrum = spectral_positioning(vals, pos, 8)
        np.testing.assert_array_equal(spectrum[pos], vals)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectral_positioning([1.0, 2.0], [3], 8)

    def test_bin_must_be_whole(self):
        with pytest.raises(ValueError, match="frequency bin must be a whole number, got 1.9"):
            spectral_positioning([5.0], [1.9], 4)

    def test_length_must_be_whole(self):
        with pytest.raises(ValueError, match="signal length must be a whole number, got 4.5"):
            spectral_positioning([5.0], [1], 4.5)

    @pytest.mark.parametrize("bad", [4, -1])
    def test_bin_outside_grid(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"frequency bin {bad} outside [0, 4)")):
            spectral_positioning([5.0], [bad], 4)

    def test_duplicate_bins_rejected(self):
        with pytest.raises(ValueError, match=re.escape("duplicate frequency bins: [3, 3]")):
            spectral_positioning([1.0, 2.0], [3, 3], 8)


class TestIdft:
    def test_single_tone(self):
        x = idft([0, 12, 0, 0])
        expected = 3 * np.exp(2j * np.pi * np.arange(4) / 4)
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_zeros(self):
        np.testing.assert_array_equal(idft(np.zeros(8)), np.zeros(8))

    def test_against_direct_sum(self):
        rng = np.random.default_rng(10)
        spectrum = rng.normal(size=24) + 1j * rng.normal(size=24)
        np.testing.assert_allclose(idft(spectrum), brute_force_idft(spectrum), atol=1e-9)

    def test_round_trip_full_sampling(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        v = initial_dft(full_measurement(x))
        np.testing.assert_allclose(idft(v), x, atol=1e-9)


class TestReconstruct:
    def test_full_sampling_exact(self):
        spec = SparseSpec(n=32, components=[(1.0, 3), (2.0, 17)])
        x = synthesize(spec)
        res = reconstruct(full_measurement(x), ThresholdConfig(p=0.99), sum_sq_amplitudes(spec))
        assert res.detection.variance == 0.0
        assert res.detection.threshold == 0.0
        np.testing.assert_array_equal(res.detection.positions, [3, 17])
        np.testing.assert_allclose(res.time_signal, x, atol=1e-9)

    def test_half_sampling_exact(self):
        spec = SparseSpec(n=256, components=[(1.0, 10), (1.0, 60), (1.0, 201)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(256, 128, seed=1))
        res = reconstruct(meas, ThresholdConfig(p=0.99), sum_sq_amplitudes(spec))
        np.testing.assert_array_equal(res.detection.positions, [10, 60, 201])
        rel_mse = np.sum(np.abs(res.time_signal - x) ** 2) / np.sum(np.abs(x) ** 2)
        assert rel_mse <= 1e-12

    def test_spectrum_matches_full_dft_on_exact_support(self):
        spec = SparseSpec(n=128, components=[(2.0, 9), (1.0, 77)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(128, 80, seed=5))
        res = reconstruct(meas, ThresholdConfig(p=0.99), sum_sq_amplitudes(spec))
        np.testing.assert_array_equal(res.detection.positions, [9, 77])
        full = np.fft.fft(x)
        assert np.linalg.norm(res.spectrum - full) <= 1e-9 * np.linalg.norm(full)

    def test_spectrum_zero_off_support(self):
        spec = SparseSpec(n=64, components=[(1.0, 5)])
        x = synthesize(spec)
        res = reconstruct(
            sample(x, random_pattern(64, 48, seed=6)),
            ThresholdConfig(p=0.99),
            sum_sq_amplitudes(spec),
        )
        mask = np.ones(64, dtype=bool)
        mask[res.detection.positions] = False
        assert np.all(res.spectrum[mask] == 0)
        np.testing.assert_allclose(res.time_signal, idft(res.spectrum), atol=1e-12)

    def test_empty_support_flagged(self):
        # a wildly inflated amplitude oracle pushes the threshold above
        # every bin; the zero spectrum comes back flagged, not raised
        spec = SparseSpec(n=16, components=[(1.0, 3)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(16, 8, seed=7))
        res = reconstruct(meas, ThresholdConfig(p=0.99), sum_sq_amp=1e6)
        assert res.empty_support
        assert res.detection.n_detected == 0
        np.testing.assert_array_equal(res.spectrum, np.zeros(16))
        np.testing.assert_array_equal(res.time_signal, np.zeros(16))

    def test_estimate_mode(self):
        spec = SparseSpec(n=256, components=[(1.0, 10), (1.0, 60), (1.0, 201)])
        x = synthesize(spec)
        meas = sample(x, random_pattern(256, 128, seed=1))
        cfg = ThresholdConfig(p=0.99, amp_mode=AmpMode.ESTIMATE)
        res = reconstruct(meas, cfg)
        np.testing.assert_array_equal(res.detection.positions, [10, 60, 201])

    def test_oracle_mode_requires_amplitudes(self):
        spec = SparseSpec(n=16, components=[(1.0, 3)])
        meas = sample(synthesize(spec), random_pattern(16, 8, seed=0))
        with pytest.raises(ValueError):
            reconstruct(meas, ThresholdConfig(p=0.99))
