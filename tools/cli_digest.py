"""Fingerprint the csrecon CLI on a fixed command set.

Runs every command below with ``python -m csrecon.cli`` from this checkout's
``src/``, all in one fresh temporary directory, and prints one
``<sha256>  <name>`` line for each command's stdout, stderr and exit code,
then for every file the commands wrote. Two checkouts that print the same
lines produce byte-identical CLI results; a differing line names the output
that moved.

    python tools/cli_digest.py > digests.txt

With ``--keep DIR`` the commands run in DIR, which must be new or empty, and
what they wrote stays there, next to each command's stdout and stderr as
``<name>.stdout`` and ``<name>.stderr``, so that two checkouts' moved outputs
can be compared digit by digit; the printed lines are the same.

    python tools/cli_digest.py --keep ../digest-new > /dev/null
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (name, argv); later commands read the signals the first two write
COMMANDS = (
    ("gen-tones", ["gen", "--n", "256", "--tones", "1@10,1@60,1@201", "--out", "sig.csv"]),
    ("gen-random", ["gen", "--n", "256", "--tones", "random:5:0.5:2.0", "--seed", "7",
                    "--out", "rand.csv"]),
    ("recon-reference", ["recon", "--in", "sig.csv", "--na", "128", "--p", "0.99",
                         "--seed", "1", "--out", "ref"]),
    ("recon-hardware", ["recon", "--in", "rand.csv", "--na", "128", "--p", "0.99",
                        "--seed", "1", "--path", "hardware", "--out", "hw"]),
    ("recon-estimate-paper-hardware", ["recon", "--in", "rand.csv", "--na", "128",
                                       "--p", "0.99", "--seed", "2", "--variant", "paper",
                                       "--amp-mode", "estimate", "--path", "hardware",
                                       "--out", "est"]),
    ("recon-full-sampling", ["recon", "--in", "sig.csv", "--na", "256", "--p", "0.99",
                             "--seed", "0", "--out", "full"]),
    ("gen-two-tones", ["gen", "--n", "16", "--tones", "1@1,1@5", "--out", "two.csv"]),
    ("recon-empty-support", ["recon", "--in", "two.csv", "--na", "1", "--p", "0.99",
                             "--seed", "0", "--out", "empty"]),
    ("calibrate", ["calibrate", "--n", "128", "--na", "64", "--tones", "1@37", "--p", "0.9",
                   "--trials", "200", "--seed", "7", "--out", "cal.csv"]),
    ("xcheck-ref10", ["xcheck", "--n", "256", "--na", "128", "--k", "3", "--p", "0.99",
                      "--trials", "50", "--seed", "11", "--out", "xc.csv"]),
    ("xcheck-paper", ["xcheck", "--n", "256", "--na", "128", "--k", "3", "--p", "0.99",
                      "--variant", "paper", "--trials", "50", "--seed", "11",
                      "--out", "xcp.csv"]),
    ("dump-lut", ["dump-lut", "--out", "lut.csv"]),
    ("recon-invalid-p", ["recon", "--in", "sig.csv", "--na", "128", "--p", "1.5",
                         "--seed", "1", "--out", "bad"]),
    ("xcheck-zero-trials", ["xcheck", "--n", "64", "--na", "32", "--k", "1", "--p", "0.99",
                            "--trials", "0", "--seed", "1", "--out", "xc0.csv"]),
    # 1 - p**(1/256) rounds to 0; the exact tail probability reconstructs, exit 0
    ("recon-p-near-one", ["recon", "--in", "sig.csv", "--na", "128",
                          "--p", "0.9999999999999999", "--seed", "1", "--out", "p1"]),
    ("recon-empty-support-hardware", ["recon", "--in", "two.csv", "--na", "1", "--p", "0.99",
                                      "--seed", "0", "--path", "hardware", "--out", "emptyhw"]),
    ("xcheck-full-sampling", ["xcheck", "--n", "64", "--na", "64", "--tones", "1@7",
                              "--p", "0.99", "--trials", "20", "--seed", "2",
                              "--out", "xcfull.csv"]),
    ("gen-huge-tone", ["gen", "--n", "64", "--tones", "1e80@5", "--out", "huge.csv"]),
    # var = 1.6e161: var**2 overflows, the paper threshold var/n * sqrt(-log10 u) does not
    ("recon-paper-huge-variance", ["recon", "--in", "huge.csv", "--na", "32", "--p", "0.99",
                                   "--seed", "1", "--variant", "paper", "--out", "huge"]),
    ("gen-alias", ["gen", "--n", "8", "--tones", "1@1,1@5", "--out", "alias.csv"]),
    # positions {0, 2, 4, 6}: bins 1 and 5 alias and both are detected
    ("recon-singular", ["recon", "--in", "alias.csv", "--na", "4", "--p", "0.99",
                        "--seed", "18", "--out", "alias"]),
    ("recon-full-sampling-hardware", ["recon", "--in", "sig.csv", "--na", "256",
                                      "--p", "0.99", "--seed", "0", "--path", "hardware",
                                      "--out", "fullhw"]),
    ("recon-estimate-reference", ["recon", "--in", "rand.csv", "--na", "128", "--p", "0.99",
                                  "--seed", "2", "--amp-mode", "estimate", "--out", "estref"]),
    ("calibrate-paper", ["calibrate", "--n", "128", "--na", "64", "--tones", "1@37",
                         "--p", "0.9", "--variant", "paper", "--trials", "200", "--seed", "7",
                         "--out", "calp.csv"]),
    ("gen-paper-tone", ["gen", "--n", "64", "--tones", "40@5", "--out", "tone.csv"]),
    # the paper threshold on the hardware path, through to a written trace
    ("recon-paper-hardware", ["recon", "--in", "tone.csv", "--na", "32", "--p", "0.99",
                              "--seed", "1", "--variant", "paper", "--path", "hardware",
                              "--out", "paperhw"]),
    ("gen-ref10-overflow", ["gen", "--n", "64", "--tones", "1.4e153@5", "--out", "over.csv"]),
    # var = 3.2e307: the ref10 root argument -var * ln u overflows, exit 2
    ("recon-ref10-overflow", ["recon", "--in", "over.csv", "--na", "32", "--p", "0.99",
                              "--seed", "1", "--out", "over"]),
    ("gen-q15-overflow", ["gen", "--n", "64", "--tones", "1e152@5", "--out", "q15.csv"]),
    # var = 1.6e305: its Q15 image overflows a double, the paper threshold 4.95e303 does not;
    # nothing is detected, exit 3 on both paths
    ("recon-q15-overflow-reference", ["recon", "--in", "q15.csv", "--na", "32", "--p", "0.99",
                                      "--seed", "1", "--variant", "paper", "--out", "q15ref"]),
    ("recon-q15-overflow-hardware", ["recon", "--in", "q15.csv", "--na", "32", "--p", "0.99",
                                     "--seed", "1", "--variant", "paper", "--path", "hardware",
                                     "--out", "q15hw"]),
    # the top bin of a long grid: an unreduced phase 2*pi*k*t/n would be off by 1e-11 here
    ("gen-top-bin", ["gen", "--n", "16384", "--tones", "1@16383", "--out", "top.csv"]),
    # a non-finite amplitude is refused before any file is written, exit 2
    ("gen-nonfinite", ["gen", "--n", "8", "--tones", "inf@1", "--out", "inf.csv"]),
    # finite tones whose sum overflows: one error line, no numpy warning, exit 2
    ("gen-overflow", ["gen", "--n", "8", "--tones", "1e308@1,1e308@2", "--out", "sum.csv"]),
    # negative seeds and tone counts fail by name before anything is written, exit 2
    ("recon-negative-seed", ["recon", "--in", "sig.csv", "--na", "128", "--p", "0.99",
                             "--seed", "-1", "--out", "negseed"]),
    ("xcheck-negative-seed", ["xcheck", "--n", "64", "--na", "32", "--tones", "1@7",
                              "--p", "0.99", "--trials", "5", "--seed", "-1",
                              "--out", "xcneg.csv"]),
    ("gen-negative-tone-count", ["gen", "--n", "16", "--k", "-1", "--seed", "1",
                                 "--out", "negk.csv"]),
    # the arguments of recon-estimate-paper-hardware on the reference path: 250 detected
    # bins against 128 measurements, exit 4
    ("recon-underdetermined-reference", ["recon", "--in", "rand.csv", "--na", "128",
                                         "--p", "0.99", "--seed", "2", "--variant", "paper",
                                         "--amp-mode", "estimate", "--out", "under"]),
    # a tone text that does not parse names its field and text, exit 2
    ("gen-fractional-bin", ["gen", "--n", "16", "--tones", "1@2.5", "--out", "fbin.csv"]),
    ("gen-fractional-tone-count", ["gen", "--n", "16", "--tones", "random:2.5:1:2",
                                   "--seed", "1", "--out", "fcount.csv"]),
    ("gen-text-bin", ["gen", "--n", "16", "--tones", "1@x", "--out", "tbin.csv"]),
    ("gen-text-amplitude", ["gen", "--n", "16", "--tones", "abc@3", "--out", "tamp.csv"]),
    # an empty tone text is parsed as given, not replaced by --k's default
    ("gen-empty-tones", ["gen", "--n", "16", "--tones", "", "--out", "etones.csv"]),
    ("gen-reversed-range", ["gen", "--n", "16", "--tones", "random:2:3:1", "--seed", "1",
                            "--out", "rrange.csv"]),
    ("gen-infinite-range", ["gen", "--n", "16", "--tones", "random:2:1:inf", "--seed", "1",
                            "--out", "irange.csv"]),
    ("gen-nan-range", ["gen", "--n", "16", "--tones", "random:2:nan:2", "--seed", "1",
                       "--out", "nrange.csv"]),
    # a tone count at or above the length is named, not clipped to it, exit 2
    ("gen-tone-count-above-length", ["gen", "--n", "8", "--tones", "random:20:1:2",
                                     "--seed", "1", "--out", "kbig.csv"]),
    # N = 2**59: drawing the bins asks for 4 EiB, refused at once; one error line, exit 2
    ("gen-unallocatable-length", ["gen", "--n", "576460752303423488", "--k", "1",
                                  "--seed", "1", "--out", "nbig.csv"]),
    # threshold 0: the 1e-9 dust floor decides every trial's comparison
    ("calibrate-full-sampling", ["calibrate", "--n", "64", "--na", "64", "--tones", "1@7",
                                 "--p", "0.99", "--trials", "100", "--seed", "2",
                                 "--out", "calfull.csv"]),
    # the sum of squared amplitudes overflows: one error line, no numpy warning, exit 2
    ("calibrate-power-overflow", ["calibrate", "--n", "128", "--na", "64", "--tones",
                                  "1e200@37", "--p", "0.9", "--trials", "100", "--seed", "7",
                                  "--out", "calpow.csv"]),
    ("gen-power-overflow", ["gen", "--n", "16", "--tones", "1e200@1", "--out", "pow.csv"]),
    ("recon-power-overflow", ["recon", "--in", "pow.csv", "--na", "8", "--p", "0.9",
                              "--seed", "1", "--out", "pow"]),
    # lengths that are not powers of two, where 1/N is inexact and dividing the
    # initial DFT's phase by N rounds
    ("gen-odd-length", ["gen", "--n", "1000", "--tones", "random:6:1:2", "--seed", "4",
                        "--out", "odd.csv"]),
    ("recon-odd-length", ["recon", "--in", "odd.csv", "--na", "600", "--p", "0.99",
                          "--seed", "9", "--out", "odd"]),
    ("recon-odd-length-hardware", ["recon", "--in", "odd.csv", "--na", "600", "--p", "0.99",
                                   "--seed", "9", "--path", "hardware", "--out", "oddhw"]),
    ("calibrate-odd-length", ["calibrate", "--n", "300", "--na", "150", "--tones",
                              "1@17,2@101", "--p", "0.9", "--trials", "100", "--seed", "3",
                              "--out", "codd.csv"]),
    # N=4096, N_a=2048: the initial DFT's kernel runs in 32 blocks of 128 rows
    ("gen-wide", ["gen", "--n", "4096", "--tones", "random:16:1:2", "--seed", "5",
                  "--out", "wide.csv"]),
    ("recon-wide", ["recon", "--in", "wide.csv", "--na", "2048", "--p", "0.99", "--seed", "6",
                    "--out", "wide"]),
    ("recon-wide-hardware", ["recon", "--in", "wide.csv", "--na", "2048", "--p", "0.99",
                             "--seed", "6", "--path", "hardware", "--out", "widehw"]),
    # N=768, N_a=384: no kernel is kept and a trial's kernel passes 4 MiB, so each of the 101
    # trials is cut into row blocks, and on two CPUs the threads' runs meet inside trial 50
    ("calibrate-multi-block", ["calibrate", "--n", "768", "--na", "384", "--tones",
                               "1@37,2@500", "--p", "0.9", "--trials", "101", "--seed", "3",
                               "--out", "cmb.csv"]),
    # seeds of 2**32 and above: two-word master entropy for the trial seeds, and the
    # largest master seed a run accepts
    ("calibrate-two-word-seed", ["calibrate", "--n", "128", "--na", "64", "--tones", "1@37",
                                 "--p", "0.9", "--trials", "100", "--seed", "4294967296",
                                 "--out", "cal2w.csv"]),
    ("xcheck-largest-seed", ["xcheck", "--n", "256", "--na", "128", "--k", "3", "--p", "0.99",
                             "--trials", "50", "--seed", "9223372036854775807",
                             "--out", "xcmax.csv"]),
    ("recon-two-word-seed", ["recon", "--in", "sig.csv", "--na", "128", "--p", "0.99",
                             "--seed", "4294967297", "--out", "seed2w"]),
    # 200 trials at N=256: a run of four 50-trial chunks of (trials, N) spectra
    ("xcheck-multi-chunk", ["xcheck", "--n", "256", "--na", "128", "--k", "3", "--p", "0.99",
                            "--trials", "200", "--seed", "11", "--out", "xcmc.csv"]),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(cli_args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Fingerprint the csrecon CLI.")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="run in DIR, new or empty, and leave the outputs there")
    keep = parser.parse_args(cli_args).keep
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lines, streams = [], {}
    with (contextlib.nullcontext(keep) if keep else
          tempfile.TemporaryDirectory(prefix="cli_digest_")) as tmp:
        work = Path(tmp)
        work.mkdir(parents=True, exist_ok=True)
        if any(work.iterdir()):  # a file already there would be digested as an output
            parser.error(f"{work} is not empty")
        for name, argv in COMMANDS:
            done = subprocess.run(
                [sys.executable, "-m", "csrecon.cli", *argv],
                cwd=work, env=env, capture_output=True, check=False,
            )
            streams[f"{name}.stdout"], streams[f"{name}.stderr"] = done.stdout, done.stderr
            lines.append(f"{_sha(done.stdout)}  {name}.stdout")
            lines.append(f"{_sha(done.stderr)}  {name}.stderr")
            lines.append(f"{_sha(str(done.returncode).encode())}  {name}.exit={done.returncode}")
        for path in sorted(work.iterdir()):
            lines.append(f"{_sha(path.read_bytes())}  {path.name}")
        if keep:  # after the digest, which covers only the commands' own files
            for fname, data in streams.items():
                (work / fname).write_bytes(data)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
