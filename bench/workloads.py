"""csrecon benchmark workloads: generated inputs, operations and output checks.

Inputs are drawn from the workload seed with plain numpy before timing
starts, so the truth that outputs are checked against does not come from
csrecon. The program receives only signals, measurements and argv lists.
Operations call csrecon through its module attributes at call time, so the
traced run's wrappers (see :mod:`spans`) take effect. Each operation is
timed with a :class:`speed.Stopwatch`, which also scales it to reference
machine speed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from csrecon import cli, hw_datapath, montecarlo, recon_core
from csrecon.recon_core import ThresholdConfig
from csrecon.signal_model import Measurement, SamplingPattern, SparseSpec

import catalog
import spans
import speed

EXACT_REL_ERR = 1e-9  # time-domain error allowed on an exact-support reconstruction
AMP_REL_ERR = 1e-9  # reference vs fixed-point amplitudes on a shared support
VAR_REL_TOL = 0.10  # calibrate: empirical vs model variance
XCHECK_REL_ERR = 1e-3  # xcheck: fixed-point vs reference threshold


def tone_signal(n: int, bins: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """x[t] = sum_i amps[i] * exp(2j*pi*bins[i]*t/n)."""
    t = np.arange(n)
    return amps @ np.exp(2j * np.pi * np.outer(bins, t) / n)


def _rel_err(estimate: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def _no_split() -> None:
    """``split`` for calls that are not timed."""


@dataclass
class Outcome:
    """Checks of one unit (one input, or one sweep round)."""

    problems: list  # per operation: None, or why its output is wrong
    digests: list  # per operation: hash of everything it returned or wrote
    passes: int = 0  # reconstructions plus Monte-Carlo trials completed
    reconstructions: int = 0
    exact: int = 0
    agree: float = 0.0  # inputs on which both paths found the same support
    compared: int = 0


@dataclass
class Run:
    latencies: list = field(default_factory=list)  # seconds at reference speed, one per op
    wall: list = field(default_factory=list)  # wall seconds, one per operation
    reference: list = field(default_factory=list)  # reference kernel times, seconds
    kinds: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (operation index, reason)
    units: int = 0
    passes: int = 0
    reconstructions: int = 0
    exact: int = 0
    agree: float = 0.0
    compared: int = 0

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_loop(workload, units, seconds: float, recorder, min_units: int, max_units: int,
             splits: bool = True) -> Run:
    """Closed loop, one client: each operation starts when the last one ends.

    Cycles through ``units`` until ``seconds`` have passed and at least
    ``min_units`` units ran, or ``max_units`` units ran. Only the program
    call is timed; checks and reference runs are between operations. With
    ``splits`` an operation made of several steps also runs the reference
    between its steps; the traced run passes ``False`` so that no reference
    run falls inside a span. Quality rates count the first pass over the
    units only, so they are fixed by the seed.
    """
    run = Run()
    gauge = speed.Gauge()
    start = time.perf_counter()
    while run.units < max_units and (
        run.units < min_units or time.perf_counter() - start < seconds
    ):
        unit = units[run.units % len(units)]
        results = []
        for kind, op in workload.ops(unit, run.units):
            watch = speed.Stopwatch(gauge, splits)
            with recorder.operation(run.ops):
                watch.start()
                try:
                    value, error = op(recorder, watch.split), None
                except Exception as exc:  # a failing operation is counted, not fatal
                    value, error = None, f"{kind}: {type(exc).__name__}: {exc}"
                watch.stop()
            wall, scaled = watch.read()
            run.wall.append(wall)
            run.latencies.append(scaled)
            run.kinds.append(kind)
            results.append((kind, value, error))
        outcome = workload.check(unit, results)
        first_op = run.ops - len(results)
        for i, problem in enumerate(outcome.problems):
            if problem is not None:
                run.failures.append((first_op + i, problem))
        run.digests.extend(outcome.digests)
        run.passes += outcome.passes
        if run.units < len(units):
            run.reconstructions += outcome.reconstructions
            run.exact += outcome.exact
            run.agree += outcome.agree
            run.compared += outcome.compared
        run.units += 1
    run.reference = gauge.samples
    return run


@dataclass(frozen=True)
class ReconUnit:
    x: np.ndarray
    bins: np.ndarray  # ascending
    ssa: float | None
    meas: Measurement
    truth: frozenset  # the bins as a set, for the traced run's solve counters


class ReconWorkload:
    """Each input runs through ``reconstruct`` and ``reconstruct_hardware``
    as two operations; their order alternates between inputs."""

    def __init__(self, name: str, stream: int) -> None:
        self.name = name
        self.stream = stream
        p = catalog.WORKLOADS[name]["params"]
        self.n, self.n_a, self.k = p["n"], p["n_a"], p["k"]
        self.amp_lo, self.amp_hi = p["amplitude"]
        self.random_phase = p["phase"] == "uniform"
        self.inputs = p["inputs"]
        self.cfg = ThresholdConfig(p=p["p"], variant=p["variant"], amp_mode=p["amp_mode"])

    def _unit(self, rng, n, n_a, k, lo, hi) -> ReconUnit:
        bins = np.sort(rng.choice(n, size=k, replace=False))
        amps = rng.uniform(lo, hi, size=k)
        if self.random_phase:
            amps = amps * np.exp(2j * np.pi * rng.random(k))
        x = tone_signal(n, bins, amps)
        positions = rng.permutation(n)[:n_a]
        meas = Measurement(values=x[positions], pattern=SamplingPattern(n=n, positions=positions))
        ssa = float(np.sum(np.abs(amps) ** 2)) if self.cfg.amp_mode.value == "oracle" else None
        return ReconUnit(x=x, bins=bins, ssa=ssa, meas=meas,
                         truth=frozenset(int(b) for b in bins))

    def make_units(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng([self.stream, int(seed)])
        return [
            self._unit(rng, self.n, self.n_a, self.k, self.amp_lo, self.amp_hi)
            for _ in range(self.inputs)
        ]

    def warm_up(self, workdir: Path) -> None:
        unit = self._unit(np.random.default_rng(0), 64, 48, 2, 1.0, 1.5)
        for _, op in self.ops(unit, 0):
            op(spans.Untraced(), _no_split)

    def ops(self, unit: ReconUnit, index: int) -> list:
        def reference(rec, split):
            rec.truth = unit.truth
            return recon_core.reconstruct(unit.meas, self.cfg, unit.ssa)

        def hardware(rec, split):
            rec.truth = unit.truth
            return hw_datapath.reconstruct_hardware(unit.meas, self.cfg, unit.ssa)

        pair = [("reference", reference), ("hardware", hardware)]
        return pair if index % 2 == 0 else pair[::-1]

    def _problem(self, unit: ReconUnit, result) -> str | None:
        n = unit.x.size
        if result.spectrum.shape != (n,) or result.time_signal.shape != (n,):
            return f"output length {result.spectrum.shape} for n={n}"
        if not (np.isfinite(result.spectrum).all() and np.isfinite(result.time_signal).all()):
            return "non-finite spectrum or time signal"
        if np.array_equal(result.detection.positions, unit.bins):
            err = _rel_err(result.time_signal, unit.x)
            if not err <= EXACT_REL_ERR:
                return f"time-domain error {err:.3e} > {EXACT_REL_ERR} on the exact support"
        return None

    def check(self, unit: ReconUnit, results: list) -> Outcome:
        out = Outcome(problems=[], digests=[])
        solved = {}
        for kind, value, error in results:
            if error is not None:
                out.problems.append(error)
                out.digests.append(error)
                continue
            result, extra = (value if kind == "hardware" else (value, None))
            out.problems.append(self._problem(unit, result))
            out.digests.append(_sha(
                result.detection.positions.tobytes(), result.spectrum.tobytes(),
                result.time_signal.tobytes(), repr(result.detection.threshold).encode(),
                repr(extra).encode(),
            ))
            solved[kind] = result
            out.passes += 1
            out.reconstructions += 1
            out.exact += bool(np.array_equal(result.detection.positions, unit.bins))
        if len(solved) == 2:
            ref, hw = solved["reference"], solved["hardware"]
            out.compared = 1
            if np.array_equal(ref.detection.positions, hw.detection.positions):
                out.agree = 1.0
                scale = float(np.max(np.abs(ref.amplitudes), initial=0.0))
                diff = float(np.max(np.abs(ref.amplitudes - hw.amplitudes), initial=0.0))
                if diff > AMP_REL_ERR * scale and out.problems[-1] is None:
                    out.problems[-1] = f"paths share the support but amplitudes differ by {diff:.3e}"
        return out


@dataclass(frozen=True)
class SweepRound:
    spec: SparseSpec  # calibrate, xcheck and recovery signal
    n_a: int
    trials: int
    p: float
    path: str  # recon datapath
    seeds: tuple  # calibrate, xcheck, recovery, recon
    signal: np.ndarray  # recon input, also written to signal_csv
    signal_bins: np.ndarray
    signal_n_a: int
    truths: tuple  # true supports of the recovery trials and of the recon
    signal_csv: Path
    out: Path  # output directory of the round's CLI commands

    def argv(self, command: str) -> list:
        if command == "recon":
            return ["recon", "--in", str(self.signal_csv), "--na", str(self.signal_n_a),
                    "--p", str(self.p), "--seed", str(self.seeds[3]), "--path", self.path,
                    "--out", str(self.out / "recon")]
        tones = ",".join(f"{a:g}@{k}" for a, k in self.spec.components)
        seed = self.seeds[0 if command == "calibrate" else 1]
        return [command, "--n", str(self.spec.n), "--na", str(self.n_a), "--tones", tones,
                "--p", str(self.p), "--trials", str(self.trials), "--seed", str(seed),
                "--out", str(self.out / f"{command}.csv")]


# Warm-up settings: the same entry points on small inputs.
_SMALL_SWEEP = {
    "calibrate_xcheck_recovery": {"n": 64, "n_a": 32, "tones": "1@5", "p": 0.99, "trials": 100},
    "recon": {"n": 64, "n_a": 32, "k": 2, "amplitude": [1.0, 2.0], "path": "hardware"},
}


class SweepsWorkload:
    """One operation is one round: calibrate, xcheck, hardware recovery
    trials and one hardware recon, at fixed settings."""

    name = "sweeps"
    stream = 3

    def __init__(self) -> None:
        p = catalog.WORKLOADS[self.name]["params"]
        self.rounds = p["rounds"]
        self.mc, self.rc = p["calibrate_xcheck_recovery"], p["recon"]

    def make_units(self, seed: int, workdir: Path, settings: dict | None = None,
                   rounds: int | None = None) -> list:
        mc = (settings or {}).get("calibrate_xcheck_recovery", self.mc)
        rc = (settings or {}).get("recon", self.rc)
        rng = np.random.default_rng([self.stream, int(seed)])
        bins = np.sort(rng.choice(rc["n"], size=rc["k"], replace=False))
        signal = tone_signal(rc["n"], bins, rng.uniform(*rc["amplitude"], size=rc["k"]))
        signal_csv = workdir / "signal.csv"
        with open(signal_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for i, v in enumerate(signal):
                writer.writerow([i, format(v.real, ".17g"), format(v.imag, ".17g")])
        tones = tuple(
            (float(a), int(k)) for a, _, k in (t.partition("@") for t in mc["tones"].split(","))
        )
        spec = SparseSpec(n=mc["n"], components=tones)
        return [
            SweepRound(
                spec=spec, n_a=mc["n_a"], trials=mc["trials"], p=mc["p"], path=rc["path"],
                seeds=tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=4)),
                signal=signal, signal_bins=bins, signal_n_a=rc["n_a"],
                truths=(frozenset(k for _, k in tones), frozenset(int(b) for b in bins)),
                signal_csv=signal_csv, out=workdir,
            )
            for _ in range(rounds or self.rounds)
        ]

    def warm_up(self, workdir: Path) -> None:
        workdir = workdir / "warm-up"
        workdir.mkdir(exist_ok=True)
        (unit,) = self.make_units(0, workdir, _SMALL_SWEEP, rounds=1)
        value = self._round(unit, spans.Untraced(), _no_split)
        bad = {k: v for k, v in value["codes"].items() if v != 0}
        if bad:
            raise RuntimeError(f"warm-up commands failed: {bad}\n{value['stderr']}")

    def _round(self, unit: SweepRound, rec, split) -> dict:
        cfg = ThresholdConfig(p=unit.p)
        codes = {}
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rec.truth = frozenset()
            codes["calibrate"] = cli.main(unit.argv("calibrate"))
            split()
            codes["xcheck"] = cli.main(unit.argv("xcheck"))
            split()
            rec.truth = unit.truths[0]
            recovery = montecarlo.run_recovery_trials(
                unit.spec, unit.n_a, cfg, unit.trials, unit.seeds[2], hardware=True
            )
            split()
            rec.truth = unit.truths[1]
            codes["recon"] = cli.main(unit.argv("recon"))
        return {"codes": codes, "recovery": recovery,
                "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def ops(self, unit: SweepRound, index: int) -> list:
        return [("round", lambda rec, split: self._round(unit, rec, split))]

    def check(self, unit: SweepRound, results: list) -> Outcome:
        ((_, value, error),) = results
        if error is not None:
            return Outcome(problems=[error], digests=[error])
        trials = unit.trials
        problems = []
        out = Outcome(problems=[], digests=[])
        codes = value["codes"]
        for step, code in codes.items():
            if code != 0:
                problems.append(f"{step} exited {code}: {value['stderr'].strip()}")
        if codes["calibrate"] == 0:
            out.passes += trials
            problems += self._check_calibrate(unit.out / "calibrate.csv", trials)
        if codes["xcheck"] == 0:
            out.passes += trials
            xc_problems, agreement = self._check_xcheck(unit.out / "xcheck.csv", trials)
            problems += xc_problems
            if agreement is not None:
                out.agree, out.compared = agreement * trials, trials
        recovery = value["recovery"]
        out.passes += len(recovery)
        out.reconstructions += len(recovery)
        out.exact += sum(m.support_exact for m in recovery)
        problems += self._check_recovery(recovery, trials)
        if codes["recon"] == 0:
            out.passes += 1
            out.reconstructions += 1
            recon_problems, exact = self._check_recon(unit)
            problems += recon_problems
            out.exact += exact
        out.problems = ["; ".join(problems) if problems else None]
        out.digests = [_sha(repr(codes).encode(), repr(recovery).encode(), value["stdout"].encode(),
                            *(f.read_bytes() for f in sorted(unit.out.glob("*.csv"))))]
        return out

    @staticmethod
    def _summary(path: Path) -> list:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[-1][0] != "summary":
            raise ValueError(f"{path.name}: no summary row")
        return rows[-1]

    def _check_calibrate(self, path: Path, trials: int) -> list:
        try:
            row = self._summary(path)
            count, model, empirical = int(row[1]), float(row[4]), float(row[5])
        except (OSError, ValueError, IndexError) as exc:
            return [f"calibrate summary unreadable: {exc}"]
        problems = []
        if count != trials:
            problems.append(f"calibrate summary counts {count} trials, expected {trials}")
        rel = abs(empirical - model) / model
        if not rel <= VAR_REL_TOL:
            problems.append(
                f"calibrate empirical variance {empirical:.6g} is {rel:.1%} off model {model:.6g}"
            )
        return problems

    def _check_xcheck(self, path: Path, trials: int):
        try:
            row = self._summary(path)
            count, max_rel_err, agreement = int(row[1]), float(row[5]), float(row[6])
        except (OSError, ValueError, IndexError) as exc:
            return [f"xcheck summary unreadable: {exc}"], None
        problems = []
        if count != trials:
            problems.append(f"xcheck summary counts {count} trials, expected {trials}")
        if not max_rel_err <= XCHECK_REL_ERR:
            problems.append(f"xcheck max_rel_err {max_rel_err:.3e} > {XCHECK_REL_ERR}")
        if not 0.0 <= agreement <= 1.0:
            problems.append(f"xcheck agreement_rate {agreement} outside [0, 1]")
        return problems, agreement

    @staticmethod
    def _check_recovery(recovery: list, trials: int) -> list:
        problems = []
        if len(recovery) != trials:
            problems.append(f"recovery returned {len(recovery)} trials, expected {trials}")
        for i, m in enumerate(recovery):
            if not math.isfinite(m.rel_mse_time):
                problems.append(f"recovery trial {i}: non-finite error")
            elif m.support_exact and not math.sqrt(m.rel_mse_time) <= EXACT_REL_ERR:
                problems.append(
                    f"recovery trial {i}: time-domain error {math.sqrt(m.rel_mse_time):.3e} "
                    f"on the exact support"
                )
        return problems

    @staticmethod
    def _check_recon(unit: SweepRound) -> tuple[list, int]:
        prefix = unit.out / "recon"
        try:
            with open(f"{prefix}.spectrum.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            spectrum = np.array([complex(float(r[1]), float(r[2])) for r in rows])
            with open(f"{prefix}.detection.csv", newline="") as fh:
                det = list(csv.reader(fh))[1]
            positions = np.array([int(p) for p in det[3].split(";") if p], dtype=np.int64)
            with open(f"{prefix}.trace.csv", newline="") as fh:
                trace_rows = list(csv.reader(fh))
        except (OSError, ValueError, IndexError) as exc:
            return [f"recon outputs unreadable: {exc}"], 0
        problems = []
        if spectrum.shape != unit.signal.shape or not np.isfinite(spectrum).all():
            problems.append("recon spectrum has the wrong length or non-finite values")
        if trace_rows[-1][0] != "threshold":
            problems.append("recon trace has no threshold row")
        exact = bool(np.array_equal(positions, unit.signal_bins))
        if exact and not problems:
            err = _rel_err(np.fft.ifft(spectrum), unit.signal)
            if not err <= EXACT_REL_ERR:
                problems.append(f"recon time-domain error {err:.3e} on the exact support")
        return problems, int(exact)


WORKLOADS = {
    "recon_wide": ReconWorkload("recon_wide", stream=1),
    "recon_dense_spectrum": ReconWorkload("recon_dense_spectrum", stream=2),
    "sweeps": SweepsWorkload(),
}
