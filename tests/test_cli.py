"""Command-line interface: outputs, formats, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from wittmat import one, to_matrix, u
from wittmat.cli import main


# sha256 of the stdout of fixed commands, frozen with the benchmark
DIGESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "cli_digests.json")
with open(DIGESTS, encoding="utf-8") as _fh:
    FROZEN = json.load(_fh)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_mv(tmp_path, name, mv):
    path = tmp_path / name
    path.write_text(json.dumps(mv.to_json()))
    return str(path)


@pytest.fixture
def g1_path(tmp_path):
    from wittmat import a, b, u_dag

    g = u(1, 1).scale(2) + a(1, 1).scale(3) + b(1, 1).scale(5) + u_dag(1, 1).scale(7)
    return write_mv(tmp_path, "g1.json", g)


class TestHappyPaths:
    def test_spectral_table_json(self, capsys):
        from wittmat import Multivector, a, b

        code, out, err = run(capsys, "spectral-table", "1")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert len(data) == 2 and len(data[0]) == 2
        assert Multivector.from_json(data[0][0]) == u(1, 1)
        assert Multivector.from_json(data[0][1]) == a(1, 1)
        assert Multivector.from_json(data[1][0]) == b(1, 1)

    def test_spectral_table_pretty(self, capsys):
        code, out, _ = run(capsys, "spectral-table", "1", "--format", "pretty")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines[0].split() == ["a1b1", "a1"]
        assert lines[1].split() == ["b1", "1", "-", "a1b1"]

    def test_mul(self, capsys, tmp_path, g1_path):
        code, out, _ = run(capsys, "mul", g1_path, g1_path)
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 1

    def test_to_matrix_round_trip(self, capsys, tmp_path, g1_path):
        code, out, _ = run(capsys, "to-matrix", g1_path)
        assert code == 0
        assert json.loads(out) == [["2", "3"], ["5", "7"]]
        matrix_file = tmp_path / "m.json"
        matrix_file.write_text(out)
        code2, out2, _ = run(capsys, "from-matrix", str(matrix_file))
        assert code2 == 0
        back = json.loads(out2)
        assert back["n"] == 1

    def test_involutions(self, capsys, g1_path):
        code, out, _ = run(capsys, "involutions", g1_path)
        assert code == 0
        data = json.loads(out)
        assert set(data) >= {"reverse", "grade_involution", "clifford_conj"}

    def test_det2(self, capsys, g1_path):
        code, out, _ = run(capsys, "det2", g1_path)
        assert code == 0
        assert json.loads(out)["det"] == "-1"

    def test_embed(self, capsys):
        code, out, _ = run(capsys, "embed", "--p", "3", "--q", "0")
        assert code == 0
        data = json.loads(out)
        assert data["plus"] and data["ok"] is True

    @pytest.mark.parametrize("p, q", [(0, 0), (1, 2), (2, 2), (2, 3), (3, 3), (4, 4)])
    def test_embed_default_rank(self, capsys, p, q):
        # oracle: the least n >= 1 with p + q <= 2n + 1, by search
        n = 1
        while 2 * n + 1 < p + q:
            n += 1
        code, out, err = run(capsys, "embed", "--p", str(p), "--q", str(q))
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["n"] == n and data["ok"] is True
        assert len(data["plus"]) == p and len(data["minus"]) == q

    def test_perm(self, capsys):
        code, out, _ = run(capsys, "perm", "--cycles", "(12)", "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["matrix"] == [["0", "1"], ["1", "0"]]
        code, out, _ = run(capsys, "perm", "--cycles", "(13)", "--rep", "std", "--n", "1")
        assert code == 0
        assert json.loads(out)["matrix"] == [["-1", "0"], ["-1", "1"]]

    def test_casimir(self, capsys):
        code, out, _ = run(capsys, "casimir", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["minpoly_allones"] == "x^2 - 4x"

    def test_surgery_default(self, capsys):
        code, out, _ = run(capsys, "surgery", "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["diagonalized_casimir"] == [["-1", "0"], ["0", "1"]]

    def test_commutant_builtin(self, capsys):
        code, out, _ = run(capsys, "commutant", "--group", "s4")
        assert code == 0
        assert json.loads(out)["dimension"] == 2

    def test_minpoly_family(self, capsys):
        code, out, _ = run(capsys, "minpoly", "--family", "all", "--params", "2,1")
        assert code == 0
        data = json.loads(out)
        assert data["minpoly"] == "x^2 - 6x + 5"
        assert data["ok"] is True

    def test_minpoly_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["2", "1", "0"], ["0", "2", "0"], ["0", "0", "-1/2"]]))
        code, out, _ = run(capsys, "minpoly", str(path))
        assert code == 0
        assert out == '{"minpoly": "x^3 - 7/2x^2 + 2x + 2", "factored": "(x + 1/2)(x - 2)^2"}\n'
        code, out, _ = run(capsys, "minpoly", str(path), "--format", "pretty")
        assert code == 0
        assert out == "x^3 - 7/2x^2 + 2x + 2 = (x + 1/2)(x - 2)^2\n"

    def test_minpoly_reads_exponent_in_imaginary_part(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["2e-3i"]]))
        code, out, err = run(capsys, "minpoly", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["minpoly"] == "x - 1/500i"

    def test_minpoly_with_large_integer_roots(self, tmp_path):
        # the roots are primes near 1e9: finding them must not depend on the size of the constant
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[1000000007, 1], [0, 998244353]]))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-m", "wittmat.cli", "minpoly", str(path)], capture_output=True,
                              text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["factored"] == "(x - 998244353)(x - 1000000007)"

    def test_regrep(self, capsys):
        code, out, _ = run(capsys, "regrep", "--x", "1,2,3,4,5,6")
        assert code == 0
        data = json.loads(out)
        assert set(data) >= {"X", "P", "D"}
        for i in range(6):
            assert data["D"][i][i] == "21"

    def test_verify_paper(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        data = json.loads(out)
        assert len(data) > 0
        assert all(item["ok"] for item in data)

    def test_verify_paper_pretty(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--format", "pretty")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


# --format pretty output of the commands that print titled sections
PRETTY_SECTIONS = {
    "perm --cycles (12) --n 1": """\
permutation:
  (1 2)
matrix:
  [ 0  1 ]
  [ 1  0 ]
multivector:
  b1 + a1
""",
    "casimir --n 1": """\
allones:
  1 + b1 + a1
casimir:
  b1 + a1
s1:
  1/2 - 1/2 b1 - 1/2 a1
s2:
  1/2 + 1/2 b1 + 1/2 a1
minpoly allones:
  x^2 - 2x = x(x - 2)
minpoly casimir:
  x^2 - 1 = (x + 1)(x - 1)
""",
    "surgery --n 1": """\
g_c:
  1/2 - 1/2 b1 + 1/2 a1
diagonalized casimir:
  [ -1  0 ]
  [  0  1 ]
""",
    "commutant --group klein": """\
dimension:
  4
basis[0]:
  [ 0  0  0  1 ]
  [ 0  0  1  0 ]
  [ 0  1  0  0 ]
  [ 1  0  0  0 ]
basis[1]:
  [ 0  0  1  0 ]
  [ 0  0  0  1 ]
  [ 1  0  0  0 ]
  [ 0  1  0  0 ]
basis[2]:
  [ 0  1  0  0 ]
  [ 1  0  0  0 ]
  [ 0  0  0  1 ]
  [ 0  0  1  0 ]
basis[3]:
  [ 1  0  0  0 ]
  [ 0  1  0  0 ]
  [ 0  0  1  0 ]
  [ 0  0  0  1 ]
""",
    "regrep --x 1,2,3,4,5,6": """\
X:
  [ -4   0   0   0   0   0   0  -1 ]
  [ -9  21   0   0   0   0   0  -9 ]
  [ -9   0  21   0   0   0   0  -9 ]
  [ -9   0   0  21   0   0   0  -9 ]
  [ -9   0   0   0  21   0   0  -9 ]
  [ -9   0   0   0   0  21   0  -9 ]
  [ -9   0   0   0   0   0  21  -9 ]
  [ -2   0   0   0   0   0   0  -5 ]
P:
  [ 0  0  0  0  0  0   1  0 ]
  [ 1  0  0  0  0  0   0  1 ]
  [ 0  1  0  0  0  0   0  1 ]
  [ 0  0  1  0  0  0   0  1 ]
  [ 0  0  0  1  0  0   0  1 ]
  [ 0  0  0  0  1  0   0  1 ]
  [ 0  0  0  0  0  1   0  1 ]
  [ 0  0  0  0  0  0  -1  3 ]
D:
  [ 21   0   0   0   0   0   0   0 ]
  [  0  21   0   0   0   0   0   0 ]
  [  0   0  21   0   0   0   0   0 ]
  [  0   0   0  21   0   0   0   0 ]
  [  0   0   0   0  21   0   0   0 ]
  [  0   0   0   0   0  21   0   0 ]
  [  0   0   0   0   0   0  -3  -3 ]
  [  0   0   0   0   0   0   0  -6 ]
""",
}


class TestPrettySections:
    @pytest.mark.parametrize("command", sorted(PRETTY_SECTIONS))
    def test_sections(self, capsys, command):
        code, out, err = run(capsys, *command.split(), "--format", "pretty")
        assert code == 0 and err == ""
        assert out == PRETTY_SECTIONS[command]

    def test_involutions_sections(self, capsys, g1_path):
        code, out, err = run(capsys, "involutions", g1_path, "--format", "pretty")
        assert code == 0 and err == ""
        assert out == (
            "reverse:\n  2 + 5 b1 + 3 a1 + 5 a1b1\n"
            "grade_involution:\n  7 - 5 b1 - 3 a1 - 5 a1b1\n"
            "clifford_conj:\n  2 - 5 b1 - 3 a1 + 5 a1b1\n"
        )


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(FROZEN))
    def test_frozen_stdout_digest(self, capsys, command):
        code, out, err = run(capsys, *command.split())
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == FROZEN[command]

    def test_byte_identical_runs(self, capsys, g1_path):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "to-matrix", g1_path)
            outs.add(out)
            _, out2, _ = run(capsys, "spectral-table", "2")
            outs.add("T" + out2)
        assert len(outs) == 2


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "to-matrix", str(tmp_path / "absent.json"))
        assert code == 1
        assert err.startswith("error:") and out == ""

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "to-matrix", str(bad))
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"n": True, "terms": [{"a": [True], "coeff": "1"}]},
            {"n": 1, "complex": "false", "terms": []},
            {"n": 2, "terms": [{"a": [1, 1], "coeff": "1"}]},
        ],
    )
    def test_bad_multivector_json_is_input_error(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "mul", str(path), str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("entry", [0.5, 1.0, True])
    def test_matrix_entry_that_is_no_integer_or_string_is_input_error(self, capsys, tmp_path, entry):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[entry]]))
        code, out, err = run(capsys, "from-matrix", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad scalar") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["from-matrix", "minpoly"])
    @pytest.mark.parametrize("entry", ['"1e5000"', '"-3e-5000"', '"1e5000+2i"', "9" * 4301],
                             ids=["exponent", "negative-exponent", "gaussian", "json-integer"])
    def test_value_past_the_digit_limit_is_input_error(self, capsys, tmp_path, command, entry):
        """A literal whose exponent passes str(int)'s digit limit is refused before its integer is built, and so is a
        JSON integer too long to read."""
        path = tmp_path / "m.json"
        path.write_text(f"[[{entry}, 0], [0, 1]]")
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, data",
        [
            # (x - 10^3000)^2 has the coefficient 10^6000
            ("minpoly", [["1e3000", 1], [0, "1e3000"]]),
            ("mul", {"n": 1, "terms": [{"coeff": "1e3000"}]}),
        ],
    )
    def test_result_past_the_digit_limit_is_domain_error(self, capsys, tmp_path, command, data):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, *[str(path)] * (2 if command == "mul" else 1))
        assert code == 3 and out == ""
        assert err.startswith("error: a value too long to print") and len(err.splitlines()) == 1

    def test_integer_coefficient_is_read(self, capsys, tmp_path):
        from wittmat import Multivector, a

        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 1, "terms": [{"a": [1], "coeff": 2}, {"coeff": -3}]}))
        code, out, err = run(capsys, "mul", str(path), str(path))
        assert (code, err) == (0, "")
        g = a(1, 1).scale(2) - one(1).scale(3)
        assert Multivector.from_json(json.loads(out)) == g * g

    def test_rank_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "spectral-table", "9")
        assert code == 2
        assert "rank-cap" in err or "cap" in err

    def test_rank_cap_raised(self, capsys):
        code, _, _ = run(capsys, "spectral-table", "4", "--rank-cap", "4")
        assert code == 0

    def test_from_matrix_checks_the_cap_before_converting(self, capsys, tmp_path, monkeypatch):
        import wittmat.cli

        converted = []
        monkeypatch.setattr(wittmat.cli, "from_matrix", lambda *args, **kwargs: converted.append(args))
        path = tmp_path / "zeros128.json"
        path.write_text(json.dumps([[0] * 128] * 128))
        for argv in (["from-matrix", str(path)], ["from-matrix", str(path), "--n", "7"]):
            code, out, err = run(capsys, *argv)
            assert (code, out, converted) == (2, "", [])
            assert err == "error: rank 7 exceeds the cap 6 (raise it with --rank-cap)\n"

    @pytest.mark.parametrize("size,message", [(3, "matrix size 3 is not 2^1"), (200, "matrix size 200 is not 2^7")])
    def test_from_matrix_reports_a_size_that_is_no_power_of_two(self, capsys, tmp_path, size, message):
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps([[0] * size] * size))
        code, out, err = run(capsys, "from-matrix", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_rank_mismatch_in_mul(self, capsys, tmp_path, g1_path):
        other = write_mv(tmp_path, "g2.json", u(2, 1))
        code, _, err = run(capsys, "mul", g1_path, other)
        assert code == 2 and "rank" in err

    def test_det2_needs_rank1(self, capsys, tmp_path):
        g2 = write_mv(tmp_path, "one2.json", one(2))
        code, _, err = run(capsys, "det2", g2)
        assert code == 2

    def test_domain_error_from_surgery(self, capsys, tmp_path):
        from wittmat import a

        g = write_mv(tmp_path, "g.json", one(2))
        not_idem = write_mv(tmp_path, "ni.json", a(2, 1))
        code, _, err = run(capsys, "surgery", "--n", "2", "--g", g, "--idempotent", not_idem)
        assert code == 3 and "idempotent" in err

    def test_embed_default_rank_above_cap(self, capsys):
        code, out, err = run(capsys, "embed", "--p", "7", "--q", "7")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_empty_scalar_in_list(self, capsys):
        code, out, err = run(capsys, "regrep", "--x", "1,,2,3,4,5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "perm", "--cycles", "(12", "--n", "1")
        assert code == 1
