"""Tests of the benchmark's own parts.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catalog
import run
import spans
import speed
import stats
import workloads
from csrecon import hw_datapath, recon_core

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(name, start, end, parent, op=0):
    return spans.Span(name, float(start), float(end), parent, op)


def test_self_times_on_nested_tree():
    tree = [
        _span("op", 0, 10, -1),
        _span("a", 1, 4, 0),
        _span("b", 2, 3, 1),
        _span("c", 5, 9, 0),
        _span("d", 5, 6, 3),
        _span("e", 6.5, 8, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    # properly nested spans: the self times add up to the root's duration
    assert sum(spans.self_times(tree)) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    tree = [_span("op", 0, 10, -1), _span("x", 2, 6, 0), _span("y", 4, 8, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_per_layer_means_per_operation():
    recorder = spans.Recorder()
    recorder.spans = [
        _span("op", 0, 4, -1, 0),
        _span("recon_core.initial_dft", 1, 3, 0, 0),
        _span("op", 10, 12, -1, 1),
        _span("recon_core.initial_dft", 10, 11, 2, 1),
    ]
    layer = spans.per_layer(recorder, 2, {"recon_core.ls_solve": 3 * 2**20})
    assert layer["recon_core.initial_dft.self_ms"] == pytest.approx(1500.0)
    assert layer["recon_core.initial_dft.calls"] == 1.0
    assert layer["op.self_ms"] == pytest.approx(1500.0)
    assert layer["op.traced_ms"] == pytest.approx(3000.0)
    assert layer["recon_core.ls_solve.peak_alloc_mb"] == 3.0
    assert layer["recon_core.build_cs_matrix.peak_alloc_mb"] == 0.0


@pytest.mark.parametrize("n", [11, 12, 37, 100, 1000])
def test_tail_has_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) + 1.0)
    t = stats.tail(samples)
    assert sum(s > t.value for s in samples) == 10 == t.beyond
    assert t.value == n - 10
    assert t.percentile == pytest.approx(100.0 * (n - 10) / n)
    assert t.n == n


def test_tail_of_a_small_sample_is_its_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == stats.Tail(3.0, 100.0, 0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def _fixed_kernel(times):
    samples = iter(times)
    return lambda: next(samples)


def test_stopwatch_scales_each_segment_by_the_references_around_it():
    ref = speed.REF_S
    # untimed first call, then the reference before the operation, then one
    # after each of its two segments
    gauge = speed.Gauge(_fixed_kernel([9.0, ref, 3 * ref, ref]))
    watch = speed.Stopwatch(gauge)
    watch.start()
    watch.split()
    watch.stop()
    wall, scaled = watch.read()
    assert gauge.samples == [ref, 3 * ref, ref]
    # each segment sits between references ref and 3*ref: twice as slow as nominal
    assert wall > 0
    assert scaled == pytest.approx(wall / 2)


def test_stopwatch_without_splits_is_one_segment():
    ref = speed.REF_S
    gauge = speed.Gauge(_fixed_kernel([0.0, ref, 2 * ref, 99.0]))
    watch = speed.Stopwatch(gauge, splits=False)
    watch.start()
    watch.split()  # ignored: no reference run
    watch.stop()
    wall, scaled = watch.read()
    assert gauge.samples == [ref, 2 * ref]
    assert scaled == pytest.approx(wall / 1.5)


def _fingerprint(units):
    out = []
    for u in units:
        if isinstance(u, workloads.ReconUnit):
            out.append((u.x.tobytes(), u.bins.tobytes(), u.ssa,
                        u.meas.values.tobytes(), u.meas.pattern.positions.tobytes()))
        else:
            out.append((u.seeds, u.signal.tobytes(), u.signal_bins.tobytes(),
                        u.signal_csv.read_bytes(), u.spec.components))
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_fixed_by_the_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _fingerprint(wl.make_units(7, dirs[0]))
    again = _fingerprint(wl.make_units(7, dirs[1]))
    other = _fingerprint(wl.make_units(8, dirs[2]))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_has_no_errors(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    units = wl.make_units(1, tmp_path)[:1]
    wl.warm_up(tmp_path)
    result = workloads.run_loop(wl, units, 0.0, spans.Untraced(), 1, 1)
    assert result.ops >= 1
    assert result.failures == []
    assert result.reconstructions >= 1 and result.compared >= 1
    assert result.passes >= result.ops


def test_failed_output_check_is_counted_not_fatal(tmp_path):
    wl = workloads.WORKLOADS["recon_dense_spectrum"]
    unit = wl.make_units(1, tmp_path)[0]
    wrong = dataclasses.replace(unit, x=unit.x * 2)
    result = workloads.run_loop(wl, [wrong], 0.0, spans.Untraced(), 1, 1)
    assert result.ops == 2
    assert len(result.failures) == 2
    assert "time-domain error" in result.failures[0][1]


def test_traced_replay_matches_and_restores(tmp_path):
    wl = workloads.WORKLOADS["recon_dense_spectrum"]
    units = wl.make_units(2, tmp_path)[:1]
    original = recon_core.initial_dft
    base = workloads.run_loop(wl, units, 0.0, spans.Untraced(), 1, 1)
    recorder = spans.Recorder(measure_alloc=True)
    patched = spans.install(recorder)
    try:
        assert hw_datapath.initial_dft is recon_core.initial_dft is not original
        traced = workloads.run_loop(wl, units, 0.0, recorder, 1, 1)
    finally:
        spans.uninstall(patched)
    assert recon_core.initial_dft is original and hw_datapath.initial_dft is original
    assert traced.digests == base.digests
    names = {s.name for s in recorder.spans}
    assert {"op", "recon_core.reconstruct", "hw_datapath.reconstruct_hardware",
            "recon_core.initial_dft", "hw_primitives.nr_sqrt"} <= names
    assert recorder.peak_alloc["recon_core.initial_dft"] > 0
    assert recorder.useful_cols == recorder.solved_cols > 0


@pytest.mark.parametrize("trace", [False, True])
def test_run_workload_reports_every_declared_metric(trace, monkeypatch):
    monkeypatch.setattr(workloads.WORKLOADS["recon_dense_spectrum"], "inputs", 2)
    result, report = run.run_workload("recon_dense_spectrum", 3, 0.0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = catalog.per_layer() if trace else catalog.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m[0]: m[1] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert report["traced_outputs_identical"]
        assert report["self_time_sum_ms"] == pytest.approx(report["traced_op_time_ms"])
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result


def test_benchmark_json_matches_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert doc["workloads"] == [
        {"name": n, "why": w["why"]} for n, w in catalog.WORKLOADS.items()
    ]
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd, _ in catalog.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in catalog.per_layer()
    ]
    assert "setup_s" in {m["name"] for m in doc["end_to_end"]}
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [
        w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "recon_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "csrecon sources not found" in proc.stderr
