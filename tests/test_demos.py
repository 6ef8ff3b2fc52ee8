"""Every demo script runs to completion and prints exactly its frozen output."""

import glob
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))

# sha256 of each demo's stdout; a change here is a change of printed output
DIGESTS = {
    "01_spectral_basis.py": "6cd4760e022e4d14d2161a652e30083d7a060638630393b47289c1f0d30f3732",
    "02_involutions_and_det.py": "92bd699b29e4ec98a2c2b25f1c3c5be3794de2c910ea1e28c9e0ab97b9e39de4",
    "03_signature_embeddings.py": "592400956d76a6027df95ac1491c429ceacefda3e6f9edef46a2102d425e6e52",
    "04_symmetric_group.py": "0c54e9cc109660effb8ce847bf983310d686ccd7a2f08a5f4ceb9cf97050abd0",
    "05_regular_representation.py": "5fdaeba686372794963453802fcdffb1895694502d9cd83769072b4b81f04885",
}


def test_demos_exist():
    assert sorted(map(os.path.basename, DEMOS)) == sorted(DIGESTS)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, path], cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[os.path.basename(path)]
