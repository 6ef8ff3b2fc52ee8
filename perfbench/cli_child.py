"""Traced CLI call: python3 cli_child.py SPANS_OUT SUBCOMMAND [ARGS...]

Runs wittmat.cli.main in this fresh interpreter exactly as `python -m
wittmat.cli` would, and records spans for the import, for the subcommand,
and for each library function the CLI module calls (wrapped in the CLI
module's namespace only, so calls made inside the library are not split).
Spans are written to SPANS_OUT as [name, start, end, parent] when the call
returns; stdout and the exit code are the CLI's own.
"""

import json
import sys
import time

# name in wittmat.cli -> layer span
WRAPPED = {
    "run_all": "goldens.run_all",
    "to_matrix": "spectral.to_matrix",
    "from_matrix": "spectral.from_matrix",
    "min_poly": "exact.min_poly",
    "geom_perm": "symgroup.geom_perm",
    "standard_irrep": "symgroup.standard_irrep",
    "surgery_gc": "symgroup.surgery_gc",
    "commutant": "repdecomp.commutant",
    "regrep_decompose": "repdecomp.regrep_decompose",
}


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    spans = []
    stack = []

    def record(name, fn, *args, **kwargs):
        idx = len(spans)
        spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx][2] = time.perf_counter()
            stack.pop()

    def do_import():
        import wittmat.cli
        return wittmat.cli

    cli = record("cli.import", do_import)
    for attr, span in WRAPPED.items():
        fn = getattr(cli, attr)
        setattr(cli, attr, lambda *a, _fn=fn, _span=span, **k: record(_span, _fn, *a, **k))
    code = record(f"cli.{argv[0]}", cli.main, argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
