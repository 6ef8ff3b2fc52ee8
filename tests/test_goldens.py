"""The frozen reference checks must all pass."""

import os
import subprocess
import sys

import pytest

from wittmat import a, b, run_all, u_dag
from wittmat.goldens import _entry


def test_all_reference_checks_pass():
    results = run_all()
    assert len(results) == 30
    failures = [f"{r.name}: {r.detail}" for r in results if not r.ok]
    assert not failures, "\n".join(failures)


def test_results_carry_names_and_details():
    results = run_all()
    assert len({r.name for r in results}) == len(results)
    for r in results:
        assert isinstance(r.detail, str)


def test_entry_parses_frozen_tokens():
    assert _entry(2, "-b2 u1d") == -(b(2, 2) * u_dag(2, 1))
    assert _entry(2, "a21") == a(2, 2) * a(2, 1)
    assert _entry(2, "u12d") == u_dag(2, 1) * u_dag(2, 2)
    for bad in ("c1", "a1d", "u"):
        with pytest.raises(AssertionError):
            _entry(2, bad)


def test_corrupted_value_fails_under_optimize():
    # python -O strips assert statements; a wrong frozen value must still fail
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        "from wittmat import goldens\n"
        "from wittmat.cli import main\n"
        "goldens._TABLE_RANK1[0][0] = 'a1'\n"
        "sys.exit(main(['verify-paper', '--format', 'pretty']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout
    assert "FAIL  rank1-spectral-table" in proc.stdout
    assert "29/30 checks passed" in proc.stdout
