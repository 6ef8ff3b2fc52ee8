"""The frozen reference checks must all pass, and must fail on a wrong matrix."""

import os
import re
import subprocess
import sys

import pytest

from wittmat import ExactMatrix, a, b, goldens, run_all, u_dag
from wittmat.goldens import _check_matrix, _entry

# the checks whose matrix clauses compare whole matrices through _check_matrix
MATRIX_CHECKS = {
    "rank1-null-matrices", "rank2-null-matrices", "rank1-block-embeddings", "involution-rank1", "involution-rank2",
    "perm-rep-small", "nine-cycle", "allones-casimir", "surgery-diagonalization", "standard-irrep-matrices",
    "commutant-full-s4", "commutant-klein", "surgery-band-cut", "column-extraction", "regrep-matrix",
    "regrep-block-decomposition",
}


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


def _verify_paper_under_optimize(corruption):
    # python -O strips assert statements; a wrong frozen value must still fail
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        "from wittmat import goldens\n"
        "from wittmat.cli import main\n"
        f"{corruption}\n"
        "sys.exit(main(['verify-paper', '--format', 'pretty']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)


def test_corrupted_value_fails_under_optimize():
    proc = _verify_paper_under_optimize("goldens._TABLE_RANK1[0][0] = 'a1'")
    assert proc.returncode == 1, proc.stdout
    assert "FAIL  rank1-spectral-table" in proc.stdout
    assert "29/30 checks passed" in proc.stdout


def test_corrupted_matrix_fails_under_optimize():
    proc = _verify_paper_under_optimize("goldens._EPS_DAG = (1, 1, -1, 1)")
    assert proc.returncode == 1, proc.stdout
    assert "FAIL  involution-rank2" in proc.stdout
    assert "29/30 checks passed" in proc.stdout


class TestCheckMatrix:
    def test_equal_matrices_pass(self):
        _check_matrix(ExactMatrix([[1, 2], [3, 4]]), [[1, 2], [3, 4]], "m")

    def test_first_differing_entry_is_named_one_based(self):
        got = ExactMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(AssertionError, match=re.escape("m at (2,3)")):
            _check_matrix(got, [[1, 2, 3], [4, 5, 7]], "m")
        with pytest.raises(AssertionError, match=re.escape("m at (1,2)")):
            _check_matrix(got, [[1, 0, 3], [4, 5, 7]], "m")

    def test_shape_mismatch_fails(self):
        # every overlapping entry agrees, so only the shape can fail these
        got = ExactMatrix([[1, 2, 3], [4, 5, 6]])
        for want in ([[1, 2], [4, 5]], [[1, 2, 3]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
            with pytest.raises(AssertionError, match="m: 2x3, want"):
                _check_matrix(got, want, "m")


def _bump(M):
    """M with its (1,1) entry raised by one."""
    rows = [list(r) for r in M.cells]
    rows[0][0] += 1
    return ExactMatrix(rows)


def test_matrix_checks_go_through_check_matrix(monkeypatch):
    calls = []
    real = goldens._check_matrix
    monkeypatch.setattr(goldens, "_check_matrix", lambda *args: calls.append(args) or real(*args))
    used = set()
    for name, fn in goldens._REGISTRY:
        calls.clear()
        fn()
        if calls:
            used.add(name)
    assert used == MATRIX_CHECKS


def test_matrix_checks_fail_on_one_wrong_entry(monkeypatch):
    # every matrix that these checks compare comes from one of these five sources
    real = {name: getattr(goldens, name) for name in ("to_matrix", "std_rep_matrix", "perm_matrix", "regrep_decompose", "commutant")}

    def regrep_decompose(X):
        P, D = real["regrep_decompose"](X)
        return P, _bump(D)

    def commutant(gens):
        c = real["commutant"](gens)
        return c._replace(basis=tuple(map(_bump, c.basis)))

    def perm_matrix(p, m):
        # the commutant checks take perm_matrix(p, 4) as generators, which they do not compare;
        # a bumped generator would change the commutant's dimension before any matrix is compared
        P = real["perm_matrix"](p, m)
        return _bump(P) if m < 4 else P

    monkeypatch.setattr(goldens, "to_matrix", lambda g: _bump(real["to_matrix"](g)))
    monkeypatch.setattr(goldens, "std_rep_matrix", lambda p, m: _bump(real["std_rep_matrix"](p, m)))
    monkeypatch.setattr(goldens, "perm_matrix", perm_matrix)
    monkeypatch.setattr(goldens, "regrep_decompose", regrep_decompose)
    monkeypatch.setattr(goldens, "commutant", commutant)
    results = {r.name: r for r in run_all()}
    for name in MATRIX_CHECKS:
        assert not results[name].ok, name
        assert re.search(r" at \(\d+,\d+\)$", results[name].detail), (name, results[name].detail)
