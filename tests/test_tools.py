"""The fingerprint tool gives the same output on every run.

A change that should pose the same SDPs and return the same results is
checked by comparing `tools/sdp_fingerprints.py` output before and after
it, byte for byte; that check means something only if two runs of one
checkout agree.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fingerprints():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sdp_fingerprints.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_fingerprints_repeat_byte_for_byte_and_every_solve_is_optimal():
    first, second = _fingerprints(), _fingerprints()
    assert first == second
    last = first.splitlines()[-1]
    counts = re.fullmatch(r"(\d+) solves, \d+ iterations, Optimal (\d+)", last)
    assert counts is not None, last
    assert int(counts.group(1)) == int(counts.group(2)) > 0
