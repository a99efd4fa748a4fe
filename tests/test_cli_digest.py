"""The CLI digest of this checkout equals the committed ``tools/cli_digest.txt``.

A change that moves CLI output on purpose regenerates the file with
``python tools/cli_digest.py > tools/cli_digest.txt`` and names the moved
digits in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_cli_digest_matches_the_committed_lines():
    done = subprocess.run([sys.executable, str(TOOLS / "cli_digest.py")],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    expected = (TOOLS / "cli_digest.txt").read_text().splitlines()
    assert done.stdout.splitlines() == expected
