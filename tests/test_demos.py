"""The demo scripts run and print what they printed when their output was
recorded: the SHA-256 of each script's stdout is pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "dihedral_homology.py": "a5a3519d7fd7caaf2d2280bf6770b07a1c0db14e435673a5b8613b3c0ebdfb67",
    "product_graphs.py": "c52f1956d6c75200396da396a49be4c58cd67df5b71d86839a82bf3b3350b5b9",
    "worked_examples.py": "92bc9f8d877215c2d1c608c4ccaa8b1a94d15f99026b2a03a88a710e0fe474f9",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("script", sorted(DIGESTS))
def test_demo_output_is_unchanged(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[script]
