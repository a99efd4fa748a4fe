"""csrecon benchmark: a closed loop with one client over three workloads.

Run every workload, each in its own fresh process, one after another, and
print all end-to-end metrics with their units::

    python3 bench/run.py [--seed 1] [--seconds 30] [--trace 0]

Run one workload; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 bench/run.py --workload recon_wide --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first runs the
workload untraced for half the time, then replays the same operations with a
timing span around every public csrecon function (see ``spans.py``),
checks that the outputs are identical and reports the per-layer metrics;
peak allocations come from a further replay of two inputs under
``tracemalloc``.
Every time is reported at reference machine speed (see ``speed.py``): the
run times a fixed reference kernel between operations and scales each
operation by it, so that the CPU-speed drift of a shared host cancels out.
The raw wall times are printed and kept in the report next to them.
Each run also writes a JSON report, and a traced run its spans, under
``bench/out/``. The benchmark reads and writes nothing outside the
repository, and fails without a result if ``src/csrecon`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import catalog
import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One BLAS/OpenMP thread: the only BLAS work is a matrix-vector product, and
# a single thread keeps runs on a shared 2-core machine comparable.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
TRACE_MAX_UNITS = 1000  # bounds the span log if operations become very fast
ALLOC_UNITS = 2  # units replayed under tracemalloc for the peak-allocation metrics
CHILD_TIMEOUT_S = 900


def _prepare() -> None:
    """Pin the thread count and make ``import csrecon`` load this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "csrecon" / "__init__.py").is_file():
        raise SystemExit(f"error: csrecon sources not found at {SRC / 'csrecon'}")
    sys.path.insert(0, str(SRC))


def _check_import() -> None:
    import csrecon

    if SRC.resolve() not in Path(csrecon.__file__).resolve().parents:
        raise SystemExit(f"error: imported csrecon from {csrecon.__file__}, not {SRC}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def probe_setup(name: str) -> None:
    """Time, in this fresh process, ``import csrecon`` plus one warm-up call
    of each entry point the workload uses."""
    t0 = time.perf_counter()
    import csrecon  # noqa: F401  (the import is what is timed)
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workloads.WORKLOADS[name].warm_up(Path(tmp))
        elapsed = time.perf_counter() - t0
    import speed  # after the timing: it imports numpy, which set-up must include

    print(json.dumps({"setup_s": speed.at_reference_speed(elapsed), "wall_s": elapsed}))


def measure_setup(name: str) -> list[dict]:
    """``setup_s`` at reference speed and ``wall_s`` of each fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def _ms(seconds: list[float]) -> list[float]:
    return [1e3 * s for s in seconds]


def end_to_end(run, setup: list[dict]) -> dict:
    lat = _ms(run.latencies)
    return {
        "setup_s": stats.median([s["setup_s"] for s in setup]),
        "op_p50_ms": stats.median(lat),
        "op_tail_ms": stats.tail(lat).value,
        "trials_per_s": run.passes / sum(run.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "support_exact_rate": run.exact / run.reconstructions if run.reconstructions else 0.0,
        "hw_ref_agreement": run.agree / run.compared if run.compared else 0.0,
        "ok_rate": 1.0 - len(run.failures) / run.ops,
    }


def _kind_p50(run, times: list[float]) -> dict:
    kinds = sorted(set(run.kinds))
    return {
        k: stats.median([1e3 * s for s, kk in zip(times, run.kinds) if kk == k])
        for k in kinds
    }


def _speed(run) -> dict:
    """Raw wall-clock figures of a run and the reference times behind the scaling."""
    import speed

    return {
        "op_p50_wall_ms": stats.median(_ms(run.wall)),
        "op_p50_wall_ms_by_kind": _kind_p50(run, run.wall),
        "reference_p50_ms": stats.median(_ms(run.reference)),
        "reference_nominal_ms": 1e3 * speed.REF_S,
        "reference_runs": len(run.reference),
    }


def _replay(workload, units, recorder, n_units: int):
    """Run exactly ``n_units`` units with every traced function wrapped."""
    import spans
    import workloads

    patched = spans.install(recorder)
    try:
        return workloads.run_loop(workload, units, 0.0, recorder, n_units, n_units,
                                  splits=False)
    finally:
        spans.uninstall(patched)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload in this process; returns (result line, report)."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    setup = [] if trace else measure_setup(name)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        units = workload.make_units(seed, Path(tmp))
        workload.warm_up(Path(tmp))
        # one untimed full-size unit, so heap growth and lazy set-up are done
        workloads.run_loop(workload, units[:1], 0.0, spans.Untraced(), 1, 1)
        base = workloads.run_loop(
            workload, units, seconds / 2 if trace else seconds, spans.Untraced(),
            min_units=len(units), max_units=TRACE_MAX_UNITS if trace else sys.maxsize,
        )
        if trace:
            recorder = spans.Recorder()
            traced = _replay(workload, units, recorder, base.units)
            alloc = spans.Recorder(measure_alloc=True)
            _replay(workload, units, alloc, min(ALLOC_UNITS, len(units)))

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "why": catalog.WORKLOADS[name]["why"],
        "params": catalog.WORKLOADS[name]["params"],
        "units": base.units, "ops": base.ops,
        "op_p50_ms_by_kind": _kind_p50(base, base.latencies), "speed": _speed(base),
        "failures": base.failures[:20],
        "wait_time": "not reported: csrecon runs single-threaded and queues nothing",
    }
    failed = len(base.failures)
    attempted = base.ops
    correct = failed == 0
    if not trace:
        metrics = end_to_end(base, setup)
        unit_of = {m[0]: m[1] for m in catalog.END_TO_END}
        tail = stats.tail(_ms(base.latencies))
        report.update(setup_samples=setup, op_tail=tail._asdict())
    else:
        layer = spans.per_layer(recorder, traced.ops, alloc.peak_alloc)
        # spans hold wall times; scale them as the traced operations were scaled
        factor = sum(traced.latencies) / sum(traced.wall)
        layer = {k: v * factor if k.endswith("_ms") else v for k, v in layer.items()}
        layer["op.trace_overhead_ms"] = (
            stats.median(_ms(traced.latencies)) - stats.median(_ms(base.latencies))
        )
        declared = catalog.per_layer()
        metrics = {m[0]: layer[m[0]] for m in declared}
        unit_of = {m[0]: m[1] for m in declared}
        self_sum = sum(spans.self_times(recorder.spans))
        traced_total = sum(s.end - s.start for s in recorder.spans if s.name == spans.ROOT)
        outputs_match = traced.digests == base.digests
        sums_match = abs(self_sum - traced_total) <= 1e-9 * max(traced_total, 1.0)
        correct = correct and not traced.failures and outputs_match and sums_match
        failed += len(traced.failures)
        attempted += traced.ops
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        spans.write_spans(spans_path, recorder.spans)
        report.update(
            traced_speed=_speed(traced), traced_scale=factor,
            traced_failures=traced.failures[:20],
            traced_outputs_identical=outputs_match,
            self_time_sum_ms=1e3 * self_sum, traced_op_time_ms=1e3 * traced_total,
            share_of_op_time={
                "recon_core.initial_dft": layer["recon_core.initial_dft.self_ms"]
                / layer["op.traced_ms"],
                "recon_core.build_cs_matrix+ls_solve": (
                    layer["recon_core.build_cs_matrix.self_ms"]
                    + layer["recon_core.ls_solve.self_ms"]
                ) / layer["op.traced_ms"],
            },
            expected_effect={m[0]: m[3] for m in declared},
            spans_file=str(spans_path.relative_to(ROOT)),
        )
    report["metrics"] = {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": report["metrics"]}
    report["correct"], report["attempted"], report["failed"] = correct, attempted, failed
    with open(OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return result, report


def describe(report: dict) -> list[str]:
    """Human-readable lines for one workload's report."""
    env = report["environment"]
    lines = [
        f"== {report['workload']}  seed={report['seed']}  units={report['units']}  "
        f"ops={report['ops']}  python {env['python']}  numpy {env['numpy']}  "
        f"{env['blas']}  threads={env['blas_threads']}  nproc={env['nproc']}  "
        f"commit={env['git_commit'][:12]}",
        f"   closed loop, 1 client; {report['why']}",
    ]
    for name, m in report["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            t = report["op_tail"]
            note = f"  (p{t['percentile']:.1f}; {t['beyond']} of {t['n']} samples beyond)"
        elif name == "setup_s":
            wall = stats.median([s["wall_s"] for s in report["setup_samples"]])
            note = (f"  (median of {len(report['setup_samples'])} fresh processes; "
                    f"wall {wall:.4g} s)")
        elif name == "op_p50_ms":
            sp = report["speed"]
            note = "  (" + ", ".join(
                f"{k} {v:.2f}" for k, v in report["op_p50_ms_by_kind"].items()) + (
                f"; wall {sp['op_p50_wall_ms']:.2f})")
        lines.append(f"   {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    if not report["trace"]:
        rate = report["failed"] / report["attempted"]
        lines.append(f"   {'error_rate':<44} {rate:>14.6g} ratio  "
                     f"({report['failed']} of {report['attempted']} operations)")
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in report["share_of_op_time"].items())
        lines.append(f"   share of traced op time: {shares}")
        lines.append(f"   self times sum to {report['self_time_sum_ms']:.3f} ms of "
                     f"{report['traced_op_time_ms']:.3f} ms traced wall time; outputs identical to "
                     f"untraced run: {report['traced_outputs_identical']}")
    sp = report["speed"]
    lines.append(f"   times at reference speed: reference kernel {sp['reference_p50_ms']:.3f} ms "
                 f"median over {sp['reference_runs']} runs, nominal "
                 f"{sp['reference_nominal_ms']:.3f} ms")
    lines.append(f"   wait time {report['wait_time']}")
    for index, reason in report["failures"]:
        lines.append(f"   FAILED op {index}: {reason}")
    return lines


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own fresh process, one after another."""
    status = 0
    results = {}
    for name in catalog.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {name}: exited {proc.returncode}\n{proc.stderr}", flush=True)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    if results and not trace:
        names = list(results)
        print("\n" + f"{'metric':<20}{'unit':>7}" + "".join(f"{n:>22}" for n in names))
        for metric, unit, *_ in catalog.END_TO_END:
            row = "".join(f"{results[n]['metrics'][metric]['value']:>22.6g}" for n in names)
            print(f"{metric:<20}{unit:>7}{row}")
        row = "".join(f"{results[n]['failed'] / results[n]['attempted']:>22.6g}" for n in names)
        print(f"{'error_rate':<20}{'ratio':>7}{row}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")

    _prepare()
    if args.setup_probe:
        probe_setup(args.workload)
        return 0
    _check_import()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(describe(report)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
