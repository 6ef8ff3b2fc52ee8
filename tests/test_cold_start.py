"""Fresh interpreters: what `import wittmat` and a CLI call load, and that each call works there.

The in-process CLI tests run after the test session has imported every
module, so a subcommand that forgot one of its imports would still pass
them.  Every test here starts a new interpreter instead.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import wittmat
from wittmat import ExactMatrix, a, b, one, u, u_dag
from wittmat.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wittmat.__file__)))
ENV = dict(os.environ, PYTHONPATH=SRC)
DIGESTS = os.path.join(os.path.dirname(SRC), "perfbench", "cli_digests.json")
with open(DIGESTS, encoding="utf-8") as _fh:
    FROZEN = json.load(_fh)

SUBMODULES = ("exact", "witt", "spectral", "signatures", "symgroup", "repdecomp", "goldens")
CORE = ["wittmat", "wittmat.cli", "wittmat.errors", "wittmat.exact", "wittmat.spectral", "wittmat.witt"]
# what a subcommand loads beyond CORE
LOADS = {
    "spectral-table 2": [],
    "perm --cycles (123) --n 2": ["wittmat.symgroup"],
    "embed --p 3 --q 4": ["wittmat.signatures"],
    "commutant --group klein": ["wittmat.repdecomp", "wittmat.symgroup"],
}


def fresh(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, timeout=300)


def loaded_after(code):
    """wittmat modules, and dataclasses, in sys.modules after `code` runs in a fresh interpreter."""
    report = ("import json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('wittmat', 'dataclasses'))))")
    proc = fresh("-c", f"{code}\n{report}")
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


class TestImportFootprint:
    def test_package_loads_only_errors(self):
        assert loaded_after("import wittmat") == ["wittmat", "wittmat.errors"]

    def test_cli_loads_only_core_modules(self):
        assert loaded_after("import wittmat.cli") == CORE

    @pytest.mark.parametrize("command", sorted(LOADS))
    def test_subcommand_loads_what_it_runs(self, command):
        code = f"from wittmat.cli import main\nmain({command.split()!r})"
        assert loaded_after(code) == sorted(CORE + LOADS[command])

    def test_submodules_resolve_after_bare_import(self):
        code = (
            "import types, wittmat\n"
            f"for name in {SUBMODULES!r}:\n"
            "    mod = getattr(wittmat, name)\n"
            "    assert isinstance(mod, types.ModuleType) and mod.__name__ == 'wittmat.' + name, name\n"
        )
        assert loaded_after(code) == sorted(["wittmat", "wittmat.errors"]
                                            + [f"wittmat.{name}" for name in SUBMODULES])

    def test_dir_and_star_import_cover_all(self):
        code = (
            "import wittmat\n"
            "assert set(wittmat.__all__) <= set(dir(wittmat))\n"
            "ns = {}\n"
            "exec('from wittmat import *', ns)\n"
            "assert set(wittmat.__all__) <= set(ns), set(wittmat.__all__) - set(ns)\n"
        )
        loaded_after(code)


@pytest.mark.parametrize("command", sorted(FROZEN))
def test_frozen_stdout_digest_in_fresh_interpreter(command):
    proc = fresh("-m", "wittmat.cli", *command.split())
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == FROZEN[command]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def files(tmp_path):
    g1 = u(1, 1).scale(2) + a(1, 1).scale(3) + b(1, 1).scale(5) + u_dag(1, 1).scale(7)
    g2 = one(2).scale(3) + a(2, 1) + u(2, 2).scale(-2) + b(2, 2)
    matrix = [["2", "1", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "-1/2", "1"], ["1", "0", "0", "3"]]
    klein = [ExactMatrix([[0, 1], [1, 0]]).to_json()]
    return {
        "g1": _write(tmp_path, "g1.json", json.dumps(g1.to_json())),
        "g2": _write(tmp_path, "g2.json", json.dumps(g2.to_json())),
        "w2": _write(tmp_path, "w2.json", json.dumps(u(2, 1).to_json())),
        "m": _write(tmp_path, "m.json", json.dumps(matrix)),
        "group": _write(tmp_path, "group.json", json.dumps(klein)),
        "bad": _write(tmp_path, "bad.json", "{not json"),
    }


FILE_COMMANDS = {
    "mul": ["mul", "{g2}", "{g2}"],
    "to-matrix": ["to-matrix", "{g2}", "--format", "pretty"],
    "from-matrix": ["from-matrix", "{m}"],
    "involutions": ["involutions", "{g2}"],
    "det2": ["det2", "{g1}"],
    "minpoly": ["minpoly", "{m}", "--format", "pretty"],
    "surgery-band-cut": ["surgery", "--n", "2", "--g", "{g2}", "--idempotent", "{w2}"],
    "commutant-file": ["commutant", "--group", "{group}"],
    "malformed-file": ["to-matrix", "{bad}"],
}


@pytest.mark.parametrize("name", sorted(FILE_COMMANDS))
def test_file_command_matches_in_process(name, files, capsys):
    argv = [arg.format(**files) for arg in FILE_COMMANDS[name]]
    proc = fresh("-m", "wittmat.cli", *argv)
    code = main(argv)
    out = capsys.readouterr().out
    assert (proc.returncode, proc.stdout.decode()) == (code, out)
    if name == "malformed-file":
        assert code == 1 and proc.stderr.decode().startswith("error: invalid JSON")
    else:
        assert code == 0 and proc.stderr == b"" and out
