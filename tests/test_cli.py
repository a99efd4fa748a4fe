import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csrecon
from csrecon.cli import main
from csrecon.recon_core import idft
from csrecon.signal_model import read_signal_csv
from helpers import exact_tail_probability


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_dc_tone(self, tmp_path):
        out = tmp_path / "dc.csv"
        assert run("gen", "--n", "8", "--tones", "1@0", "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "index,re,im"
        assert len(rows) == 9
        x = read_signal_csv(out)
        np.testing.assert_allclose(x, np.ones(8), atol=1e-15)

    def test_quarter_turn(self, tmp_path):
        out = tmp_path / "q.csv"
        assert run("gen", "--n", "4", "--tones", "2@1", "--out", str(out)) == 0
        np.testing.assert_allclose(read_signal_csv(out), [2, 2j, -2, -2j], atol=1e-12)

    def test_random_tones_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("gen", "--n", "64", "--tones", "random:3:0.5:2.0",
                       "--seed", "9", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k_shorthand(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run("gen", "--n", "64", "--k", "3", "--seed", "4", "--out", str(out)) == 0
        x = read_signal_csv(out)
        spectrum = np.fft.fft(x)
        assert np.sum(np.abs(spectrum) > 1.0) == 3

    def test_bad_tone_grammar(self, tmp_path):
        assert run("gen", "--n", "8", "--tones", "nope", "--out", str(tmp_path / "x.csv")) == 2

    def test_random_tones_need_seed(self, tmp_path):
        assert run("gen", "--n", "8", "--tones", "random:2:1:1",
                   "--out", str(tmp_path / "x.csv")) == 2

    def test_duplicate_bins_config_error(self, tmp_path):
        assert run("gen", "--n", "8", "--tones", "1@3,1@3",
                   "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("tones, message", [
        ("inf@1", "amplitude must be finite and strictly positive, got inf"),
        ("1e308@1,1e308@2", "x.csv: samples must be finite"),  # the sum overflows
    ])
    def test_non_finite_signal_is_config_error(self, tmp_path, capsys, tones, message):
        out = tmp_path / "x.csv"
        with np.errstate(over="ignore"):
            assert run("gen", "--n", "8", "--tones", tones, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("tones", [["--k", "-1"], ["--tones", "random:-1:1:2"]])
    def test_negative_tone_count_is_config_error(self, tmp_path, capsys, tones):
        out = tmp_path / "x.csv"
        assert run("gen", "--n", "16", *tones, "--seed", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: tone count must be at least 1, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("tones, message", [
        ("1@2.5", "invalid frequency bin '2.5'"),
        ("random:2.5:1:2", "invalid tone count '2.5'"),
        ("1@x", "invalid frequency bin 'x'"),
        ("abc@3", "invalid amplitude 'abc'"),
        ("", "expected A@k, got ''"),
        ("random:2:3:1", "invalid amplitude range '3:1': hi - lo must be finite and nonnegative"),
        ("random:2:1:inf",
         "invalid amplitude range '1:inf': hi - lo must be finite and nonnegative"),
        ("random:2:nan:2",
         "invalid amplitude range 'nan:2': hi - lo must be finite and nonnegative"),
        ("random:2:1", "expected random:K:lo:hi, got 'random:2:1'"),
    ])
    def test_tone_grammar_error_names_the_field(self, tmp_path, capsys, tones, message):
        out = tmp_path / "x.csv"
        assert run("gen", "--n", "16", "--tones", tones, "--seed", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n, tones, message", [
        ("8", ["--tones", "random:20:1:2"], "tone count 20 must be smaller than signal length 8"),
        ("8", ["--k", "8"], "tone count 8 must be smaller than signal length 8"),
        ("-5", ["--k", "1"], "signal length must be at least 2, got -5"),
    ])
    def test_tone_count_must_stay_below_length(self, tmp_path, capsys, n, tones, message):
        out = tmp_path / "x.csv"
        assert run("gen", "--n", n, *tones, "--seed", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unallocatable_length_is_config_error(self, tmp_path, capsys):
        # N = 2**59: drawing K bins asks for 4 EiB, refused at once on any 64-bit host
        out = tmp_path / "x.csv"
        assert run("gen", "--n", str(2**59), "--k", "1", "--seed", "1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_negative_random_tone_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("gen", "--n", "16", "--tones", "random:2:1:2", "--seed", "-3",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be at least 0, got -3\n"
        assert not out.exists()

    def test_overflowing_tones_print_one_line(self, tmp_path):
        # no numpy warning, whose text carries the installed numpy's path
        env = dict(os.environ, PYTHONPATH=str(Path(csrecon.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "csrecon.cli", "gen", "--n", "8",
             "--tones", "1e308@1,1e308@2", "--out", "x.csv"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert result.returncode == 2
        assert result.stderr == "error: x.csv: samples must be finite\n"
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["calibrate", "--n", "128", "--na", "64", "--tones", "1e200@37", "--p", "0.9",
     "--trials", "100", "--seed", "7", "--out", "o.csv"],
    ["recon", "--in", "b.csv", "--na", "8", "--p", "0.9", "--seed", "1", "--out", "b"],
    ["recon", "--in", "b.csv", "--na", "8", "--p", "0.9", "--seed", "1",
     "--amp-mode", "estimate", "--out", "b"],
], ids=["calibrate", "recon-oracle", "recon-estimate"])
def test_overflowing_power_sum_prints_one_line(tmp_path, argv):
    # |x|**2 = 1e400 overflows; numpy's warning would carry the installed file's path
    assert run("gen", "--n", "16", "--tones", "1e200@1", "--out", str(tmp_path / "b.csv")) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(csrecon.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-m", "csrecon.cli", *argv],
                            capture_output=True, text=True, env=env, cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr == ("error: sum of squared amplitudes must be finite and "
                             "nonnegative, got inf\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv"]


@pytest.fixture()
def three_tone_signal(tmp_path):
    path = tmp_path / "sig.csv"
    assert run("gen", "--n", "256", "--tones", "1@10,1@60,1@201", "--out", str(path)) == 0
    return path


def read_metrics(prefix):
    with open(f"{prefix}.metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows[0]


class TestRecon:
    def test_full_sampling(self, tmp_path, three_tone_signal):
        prefix = tmp_path / "full"
        code = run("recon", "--in", str(three_tone_signal), "--na", "256",
                   "--p", "0.99", "--seed", "0", "--out", str(prefix))
        assert code == 0
        m = read_metrics(prefix)
        assert m["support_exact"] == "true"
        assert float(m["rel_mse_time"]) < 1e-12
        assert float(m["threshold"]) == 0.0

    def test_half_sampling_exact(self, tmp_path, three_tone_signal):
        prefix = tmp_path / "half"
        code = run("recon", "--in", str(three_tone_signal), "--na", "128",
                   "--p", "0.99", "--seed", "1", "--variant", "ref10",
                   "--amp-mode", "oracle", "--out", str(prefix))
        assert code == 0
        m = read_metrics(prefix)
        assert m["support_exact"] == "true"
        assert float(m["rel_mse_time"]) <= 1e-12
        # verify support by brute-force comparison against the input's DFT
        x = read_signal_csv(three_tone_signal)
        true_support = sorted(np.flatnonzero(np.abs(np.fft.fft(x)) > 1e-6 * 256))
        with open(f"{prefix}.detection.csv", newline="") as fh:
            det = list(csv.DictReader(fh))[0]
        got = sorted(int(p) for p in det["positions"].split(";"))
        assert got == true_support == [10, 60, 201]

    def test_hardware_path_writes_trace(self, tmp_path, three_tone_signal):
        prefix = tmp_path / "hw"
        code = run("recon", "--in", str(three_tone_signal), "--na", "128",
                   "--p", "0.99", "--seed", "1", "--path", "hardware",
                   "--out", str(prefix))
        assert code == 0
        assert (tmp_path / "hw.trace.csv").exists()
        assert read_metrics(prefix)["support_exact"] == "true"

    def test_metrics_recomputable_from_spectrum(self, tmp_path, three_tone_signal):
        prefix = tmp_path / "redo"
        assert run("recon", "--in", str(three_tone_signal), "--na", "128",
                   "--p", "0.99", "--seed", "3", "--out", str(prefix)) == 0
        x = read_signal_csv(three_tone_signal)
        with open(f"{prefix}.spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        spectrum = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
        rel_mse = np.sum(np.abs(idft(spectrum) - x) ** 2) / np.sum(np.abs(x) ** 2)
        reported = float(read_metrics(prefix)["rel_mse_time"])
        assert abs(rel_mse - reported) <= 1e-12

    def test_empty_support_exit_code(self, tmp_path):
        # one available sample of a two-tone signal can never clear the
        # threshold, so detection comes back empty deterministically
        sig = tmp_path / "two.csv"
        assert run("gen", "--n", "16", "--tones", "1@1,1@5", "--out", str(sig)) == 0
        prefix = tmp_path / "empty"
        code = run("recon", "--in", str(sig), "--na", "1", "--p", "0.99",
                   "--seed", "0", "--out", str(prefix))
        assert code == 3
        m = read_metrics(prefix)
        assert m["n_detected"] == "0"

    def test_underdetermined_exit_code(self, tmp_path):
        # a permissive confidence level detects far more bins than there
        # are measurements, forcing the underdetermined failure
        sig = tmp_path / "three.csv"
        assert run("gen", "--n", "16", "--tones", "1@1,1@5,1@11", "--out", str(sig)) == 0
        code = run("recon", "--in", str(sig), "--na", "2", "--p", "1e-9",
                   "--seed", "0", "--out", str(tmp_path / "under"))
        assert code == 4

    @pytest.mark.parametrize("path", ["reference", "hardware"])
    def test_nan_sample_is_config_error(self, tmp_path, path):
        sig = tmp_path / "nan.csv"
        rows = ["index,re,im"] + [f"{i},1,0" for i in range(16)]
        rows[4] = "3,nan,0"
        sig.write_text("\n".join(rows) + "\n")
        code = run("recon", "--in", str(sig), "--na", "8", "--p", "0.99",
                   "--seed", "0", "--path", path, "--out", str(tmp_path / "nan"))
        assert code == 2

    @pytest.mark.parametrize("path", ["reference", "hardware"])
    def test_probability_next_to_one_reconstructs(self, tmp_path, three_tone_signal, path):
        # 1 - p**(1/256) rounds to 0; the threshold takes the exact value, 4.34e-19
        code = run("recon", "--in", str(three_tone_signal), "--na", "128",
                   "--p", "0.9999999999999999", "--seed", "0", "--path", path,
                   "--out", str(tmp_path / "p1"))
        assert code == 0
        m = read_metrics(tmp_path / "p1")
        assert m["support_exact"] == "true"
        u = exact_tail_probability(0.9999999999999999, 256)
        want = math.sqrt(-float(m["variance"]) * math.log(u))
        assert float(m["threshold"]) == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("path", ["reference", "hardware"])
    def test_threshold_overflow_is_config_error(self, tmp_path, path, capsys):
        # var = 16.25 * 1.4e153**2 ≈ 3.2e307; times -ln(1 - 0.99**(1/64)) ≈ 8.8 it overflows
        sig = tmp_path / "huge.csv"
        assert run("gen", "--n", "64", "--tones", "1.4e153@5", "--out", str(sig)) == 0
        code = run("recon", "--in", str(sig), "--na", "32", "--p", "0.99",
                   "--seed", "1", "--path", path, "--out", str(tmp_path / "huge"))
        assert code == 2
        assert "threshold overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["reference", "hardware"])
    def test_q15_variance_overflow_still_thresholds(self, tmp_path, path, capsys):
        # var = 1.6e305: its Q15 image overflows a double, the paper threshold 4.95e303 does not
        sig = tmp_path / "big.csv"
        assert run("gen", "--n", "64", "--tones", "1e152@5", "--out", str(sig)) == 0
        prefix = tmp_path / "big"
        code = run("recon", "--in", str(sig), "--na", "32", "--p", "0.99", "--seed", "1",
                   "--variant", "paper", "--path", path, "--out", str(prefix))
        assert code == 3
        assert float(read_metrics(prefix)["threshold"]) == pytest.approx(4.95e303, rel=1e-3)

    @pytest.mark.parametrize("body", ["", "0,1,0\n1,1\n", "0,1,0\n1,nan,0\n",
                                      "0,1,0\n2,1,0\n1,1,0\n7,1,0\n",
                                      "foo,1,0\nbar,1,0\n"])
    def test_malformed_signal_is_config_error(self, tmp_path, body, capsys):
        sig = tmp_path / "bad.csv"
        sig.write_text("index,re,im\n" + body)
        code = run("recon", "--in", str(sig), "--na", "1", "--p", "0.99",
                   "--seed", "0", "--amp-mode", "estimate", "--out", str(tmp_path / "bad"))
        assert code == 2
        assert "bad.csv" in capsys.readouterr().err

    def test_na_too_large_is_config_error(self, tmp_path, three_tone_signal, capsys):
        for na in ("0", "257"):
            for path in ("reference", "hardware"):
                code = run("recon", "--in", str(three_tone_signal), "--na", na,
                           "--p", "0.99", "--seed", "0", "--path", path,
                           "--out", str(tmp_path / "x"))
                assert code == 2
                err = capsys.readouterr().err
                assert err == f"error: available count {na} outside [1, 256]\n"

    def test_negative_seed_is_config_error(self, tmp_path, three_tone_signal, capsys):
        code = run("recon", "--in", str(three_tone_signal), "--na", "128", "--p", "0.99",
                   "--seed", "-1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
        assert not list(tmp_path.glob("x.*"))

    def test_deterministic_outputs(self, tmp_path, three_tone_signal):
        pa, pb = tmp_path / "ra", tmp_path / "rb"
        for prefix in (pa, pb):
            assert run("recon", "--in", str(three_tone_signal), "--na", "128",
                       "--p", "0.99", "--seed", "5", "--out", str(prefix)) == 0
        for suffix in (".spectrum.csv", ".detection.csv", ".metrics.csv"):
            assert (tmp_path / f"ra{suffix}").read_bytes() == (tmp_path / f"rb{suffix}").read_bytes()


class TestCalibrate:
    def test_summary_row(self, tmp_path):
        out = tmp_path / "cal.csv"
        code = run("calibrate", "--n", "128", "--na", "64", "--tones", "1@37",
                   "--p", "0.9", "--trials", "100", "--seed", "7", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 101
        summary = rows[-1]
        assert summary["kind"] == "summary"
        model = float(summary["model_variance"])
        empirical = float(summary["noise_power_mean"])
        assert abs(empirical - model) <= 0.1 * model
        assert 0.8 <= float(summary["all_below"]) <= 1.0  # targets 0.9

    def test_too_few_trials(self, tmp_path):
        code = run("calibrate", "--n", "128", "--na", "64", "--tones", "1@37",
                   "--p", "0.9", "--trials", "99", "--seed", "7",
                   "--out", str(tmp_path / "c.csv"))
        assert code == 2

    def test_full_sampling_vacuous(self, tmp_path):
        out = tmp_path / "cal0.csv"
        code = run("calibrate", "--n", "64", "--na", "64", "--tones", "1@7",
                   "--p", "0.9", "--trials", "100", "--seed", "1", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            summary = list(csv.DictReader(fh))[-1]
        assert float(summary["model_variance"]) == 0.0
        assert float(summary["all_below"]) == 1.0


class TestXcheck:
    def test_zero_variance_full_agreement(self, tmp_path):
        out = tmp_path / "xc0.csv"
        code = run("xcheck", "--n", "64", "--na", "64", "--tones", "1@7",
                   "--p", "0.99", "--trials", "20", "--seed", "2", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            summary = list(csv.DictReader(fh))[-1]
        assert float(summary["threshold_ref"]) == 0.0
        assert float(summary["threshold_fixed"]) == 0.0
        assert float(summary["rel_err"]) == 0.0
        assert float(summary["support_match"]) == 1.0

    def test_half_sampling(self, tmp_path):
        out = tmp_path / "xc.csv"
        code = run("xcheck", "--n", "256", "--na", "128", "--k", "3",
                   "--p", "0.99", "--trials", "50", "--seed", "3", "--out", str(out))
        assert code == 0
        with open(out, newline="") as fh:
            summary = list(csv.DictReader(fh))[-1]
        assert float(summary["rel_err"]) <= 1e-3
        assert float(summary["support_match"]) >= 0.98


    def test_zero_trials_is_config_error(self, tmp_path, capsys):
        code = run("xcheck", "--n", "64", "--na", "32", "--k", "1", "--p", "0.99",
                   "--trials", "0", "--seed", "2", "--out", str(tmp_path / "xc.csv"))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "xc.csv"
        code = run("xcheck", "--n", "64", "--na", "32", "--tones", "1@7", "--p", "0.99",
                   "--trials", "5", "--seed", "-1", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "error: master seed must be at least 0, got -1\n"
        assert not out.exists()


@pytest.mark.parametrize("na", ["0", "257"])
@pytest.mark.parametrize("command", ["calibrate", "xcheck"])
def test_sweep_na_out_of_range_is_config_error(tmp_path, capsys, command, na):
    code = run(command, "--n", "256", "--na", na, "--tones", "1@3", "--p", "0.9",
               "--trials", "100", "--seed", "1", "--out", str(tmp_path / "c.csv"))
    assert code == 2
    assert capsys.readouterr().err == f"error: available count {na} outside [1, 256]\n"


def test_sweep_and_metrics_csv_layouts(tmp_path, three_tone_signal, capsys):
    cal, xc, prefix = tmp_path / "cal.csv", tmp_path / "xc.csv", tmp_path / "ref"
    assert run("calibrate", "--n", "128", "--na", "64", "--tones", "1@37", "--p", "0.9",
               "--trials", "100", "--seed", "7", "--out", str(cal)) == 0
    assert run("xcheck", "--n", "256", "--na", "128", "--k", "3", "--p", "0.99",
               "--trials", "50", "--seed", "11", "--out", str(xc)) == 0
    capsys.readouterr()
    assert run("recon", "--in", str(three_tone_signal), "--na", "128", "--p", "0.99",
               "--seed", "1", "--out", str(prefix)) == 0
    stdout_keys = [pair.split("=")[0] for pair in capsys.readouterr().out.split()]
    layouts = {
        cal: ("kind,trial,seed,threshold,model_variance,noise_power_mean,noise_mag_max,all_below",
              ["trial", "0", "2083679832"], ["summary", "100", ""]),
        xc: ("kind,trial,seed,threshold_ref,threshold_fixed,rel_err,support_match",
             ["trial", "0", "1926383459"], ["summary", "50", ""]),
    }
    for path, (header, first_trial, summary) in layouts.items():
        lines = path.read_text().splitlines()
        assert lines[0] == header
        assert lines[1].split(",")[:3] == first_trial
        assert lines[-1].split(",")[:3] == summary
    metrics_header = "support_exact,precision,recall,rel_mse_time,threshold,variance,n_detected"
    assert Path(f"{prefix}.metrics.csv").read_text().splitlines()[0] == metrics_header
    assert stdout_keys == metrics_header.split(",")


class TestDumpLut:
    def test_contents(self, tmp_path):
        out = tmp_path / "lut.csv"
        assert run("dump-lut", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4096
        assert rows[0]["value"] == "0"
        assert rows[2048]["value"] == "19168"


def test_console_entry_point(tmp_path):
    # the child interpreter imports the same csrecon as this test session
    env = dict(os.environ, PYTHONPATH=str(Path(csrecon.__file__).parents[1]))
    sig = tmp_path / "sig.csv"
    result = subprocess.run(
        [sys.executable, "-m", "csrecon.cli", "gen", "--n", "8",
         "--tones", "1@0", "--out", str(sig)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "wrote" in result.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "csrecon.cli", "gen", "--n", "8",
         "--tones", "nope", "--out", str(tmp_path / "y.csv")],
        capture_output=True, text=True, env=env,
    )
    assert bad.returncode == 2
    assert "error" in bad.stderr
