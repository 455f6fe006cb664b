"""Each demo prints the same bytes: the sha256 of its stdout is pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_two_origin_walkthrough.py": "b8042eb4b4fe73a4be19de4288cc7785c6ef7b64b3d2fa02ceea915644142ae8",
    "02_counting_line_bundles.py": "763187c712a65373fbba1e27b7a7bfa15dbf4481a8ab9a4925d0ae4563ef82bf",
    "03_bundles_and_sections.py": "bd8a0b60b684b0d50a7cc0154c282cd753eae77ba6490853791692949d1da2c7",
    "04_refinement_naturality.py": "6e93dce05a5666b996abe330defb3f7f14b67708dc2ba5aa84663966e707d8f8",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_prints_its_pinned_bytes(name):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name], done.stdout.decode()
