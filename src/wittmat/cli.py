"""Command line front end.

Every subcommand reads exact JSON (multivectors as {"n", "complex", "terms"},
matrices as arrays of arrays of rational strings), prints deterministic
output, and exits 0.  Errors map to fixed exit codes with a one-line
diagnostic on stderr: 1 malformed input, 2 dimension or rank mismatch,
3 domain error, a result too long to print included.

A call imports only the modules its subcommand uses: errors, exact, witt and
spectral always, and signatures, symgroup, repdecomp or goldens when a
subcommand first takes one of their names from the lazy package surface.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from .errors import DimensionMismatch, DomainError, InputError, WittmatError
from .exact import ExactMatrix, GaussianRational, min_poly
from .witt import Multivector, one
from .spectral import det2, from_matrix, spectral_table, to_matrix


def _deferred(name: str):
    """Stand-in for wittmat.name, whose owning module the package imports when first called."""

    def call(*args, **kwargs):
        return getattr(sys.modules[__package__], name)(*args, **kwargs)

    return call


# called through these module globals, so a caller may rebind (wrap) them
geom_perm = _deferred("geom_perm")
standard_irrep = _deferred("standard_irrep")
surgery_gc = _deferred("surgery_gc")
commutant = _deferred("commutant")
regrep_decompose = _deferred("regrep_decompose")
run_all = _deferred("run_all")

_EXIT_CODES = ((InputError, 1), (DimensionMismatch, 2), (DomainError, 3))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1 for bad input
    def error(self, message):
        raise InputError(message)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit of int(str)
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _load_mv(path: str, cap: int) -> Multivector:
    g = Multivector.from_json(_load_json(path))
    _check_cap(g.n, cap)
    return g


def _check_cap(n: int, cap: int):
    if n > cap:
        raise DimensionMismatch(f"rank {n} exceeds the cap {cap} (raise it with --rank-cap)")
    if n < 1:
        raise InputError("rank must be at least 1")


def _emit_pretty(items):
    # each item is a line or a (title, value) section; lines and section values are
    # strings or have .pretty(), rendered here so that JSON runs never pay for it
    for item in items:
        if not isinstance(item, tuple):
            print(item if isinstance(item, str) else item.pretty())
            continue
        title, value = item
        print(f"{title}:")
        for line in [value] if isinstance(value, str) else value.pretty().splitlines():
            print("  " + line)


class _Result(NamedTuple):
    """Both serializations, so commands build output exactly once."""

    as_json: object
    pretty: list
    exit_code: int = 0


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_spectral_table(args) -> _Result:
    _check_cap(args.n, args.rank_cap)
    table = spectral_table(args.n)
    size = 1 << args.n
    body = [[table[r][c].to_json() for c in range(size)] for r in range(size)]
    cells = [[table[r][c].pretty() for c in range(size)] for r in range(size)]
    width = max(len(s) for row in cells for s in row)
    lines = ["  ".join(s.ljust(width) for s in row).rstrip() for row in cells]
    return _Result(body, lines)


def _cmd_mul(args) -> _Result:
    g = _load_mv(args.lhs, args.rank_cap)
    h = _load_mv(args.rhs, args.rank_cap)
    if g.n != h.n:
        raise DimensionMismatch(f"rank mismatch: {g.n} vs {h.n}")
    prod = g * h
    return _Result(prod.to_json(), [prod])


def _cmd_to_matrix(args) -> _Result:
    g = _load_mv(args.operand, args.rank_cap)
    M = to_matrix(g)
    return _Result(M.to_json(), [M])


def _cmd_from_matrix(args) -> _Result:
    M = ExactMatrix.from_json(_load_json(args.operand))
    # the rank of a square 2^n matrix is checked before it is converted
    n = M.rows.bit_length() - 1 if args.n is None else args.n
    if args.n is not None or M.rows == M.cols == 1 << n:
        _check_cap(n, args.rank_cap)
    g = from_matrix(M, n=args.n)
    return _Result(g.to_json(), [g])


def _cmd_involutions(args) -> _Result:
    g = _load_mv(args.operand, args.rank_cap)
    images = {
        "reverse": g.reverse(),
        "grade_involution": g.grade_involution(),
        "clifford_conj": g.clifford_conj(),
    }
    body = {name: mv.to_json() for name, mv in images.items()}
    return _Result(body, list(images.items()))


def _cmd_det2(args) -> _Result:
    g = _load_mv(args.operand, args.rank_cap)
    value = det2(g)
    return _Result({"det": str(value)}, [str(value)])


def _cmd_embed(args) -> _Result:
    from . import SignatureSpec, generators, verify_signature

    # the least n >= 1 with p + q <= 2n + 1
    n = max(1, (args.p + args.q) // 2) if args.n is None else args.n
    _check_cap(n, args.rank_cap)
    gs = generators(SignatureSpec(args.p, args.q, n))
    report = verify_signature(gs)
    body = {
        "n": n,
        "plus_labels": list(gs.plus_labels),
        "minus_labels": list(gs.minus_labels),
        "plus": [g.to_json() for g in gs.plus],
        "minus": [g.to_json() for g in gs.minus],
        "ok": report.ok,
        "failures": list(report.failures),
    }
    lines = [f"ambient rank {n}"]
    for sign, labels, gens in (("+1", gs.plus_labels, gs.plus), ("-1", gs.minus_labels, gs.minus)):
        lines += [f"{sign}  {label} = {mv.pretty()}" for label, mv in zip(labels, gens)]
    lines.append("verification: " + ("ok" if report.ok else "; ".join(report.failures)))
    return _Result(body, lines)


def _cmd_perm(args) -> _Result:
    from . import Permutation, perm_matrix, std_rep_matrix

    _check_cap(args.n, args.rank_cap)
    p = Permutation.from_cycles(args.cycles)
    if args.standard_irrep:
        g = standard_irrep(p, args.n)
        M = to_matrix(g)
    elif args.rep == "std":
        M = std_rep_matrix(p, 1 << args.n)
        g = geom_perm(p, args.n, rep="standard")
    else:
        M = perm_matrix(p, 1 << args.n)
        g = geom_perm(p, args.n, rep="permutation")
    body = {"cycles": p.cycle_str(), "matrix": M.to_json(), "multivector": g.to_json()}
    return _Result(body, [("permutation", p.cycle_str()), ("matrix", M), ("multivector", g)])


def _cmd_casimir(args) -> _Result:
    from . import casimir_idempotents

    _check_cap(args.n, args.rank_cap)
    s1, s2 = casimir_idempotents(args.n)
    A = s2.scale(1 << args.n)
    C = A - one(args.n)
    mpa = min_poly(to_matrix(A))
    mpc = min_poly(to_matrix(C))
    body = {
        "allones": A.to_json(),
        "casimir": C.to_json(),
        "s1": s1.to_json(),
        "s2": s2.to_json(),
        "minpoly_allones": str(mpa),
        "minpoly_casimir": str(mpc),
    }
    pretty = [
        ("allones", A),
        ("casimir", C),
        ("s1", s1),
        ("s2", s2),
        ("minpoly allones", f"{mpa} = {mpa.factored_str()}"),
        ("minpoly casimir", f"{mpc} = {mpc.factored_str()}"),
    ]
    return _Result(body, pretty)


def _cmd_surgery(args) -> _Result:
    from . import casimir_mv, surgery_gc_inverse

    _check_cap(args.n, args.rank_cap)
    if args.g is not None or args.idempotent is not None:
        if args.g is None or args.idempotent is None:
            raise InputError("band cut needs both --g and --idempotent")
        from . import surgery_cut

        g = _load_mv(args.g, args.rank_cap)
        w = _load_mv(args.idempotent, args.rank_cap)
        cut = surgery_cut(g, w)
        M = to_matrix(cut)
        body = {"cut": cut.to_json(), "matrix": M.to_json()}
        return _Result(body, [("cut", cut), ("matrix", M)])
    gc = surgery_gc(args.n)
    gci = surgery_gc_inverse(args.n)
    D = to_matrix(gci) * to_matrix(casimir_mv(args.n)) * to_matrix(gc)
    body = {"g_c": gc.to_json(), "diagonalized_casimir": D.to_json()}
    return _Result(body, [("g_c", gc), ("diagonalized casimir", D)])


_BUILTIN_GROUPS = {
    "s4": ("(12)", "(13)", "(14)"),
    "klein": ("(12)(34)", "(13)(24)"),
}


def _cmd_commutant(args) -> _Result:
    key = args.group.lower()
    if key in _BUILTIN_GROUPS:
        from . import Permutation, perm_matrix

        gens = [perm_matrix(Permutation.from_cycles(c), 4) for c in _BUILTIN_GROUPS[key]]
    else:
        data = _load_json(args.group)
        if not isinstance(data, list):
            raise InputError("group file must hold a JSON array of matrices")
        gens = [ExactMatrix.from_json(m) for m in data]
    result = commutant(gens)
    body = {
        "dimension": result.dimension,
        "basis": [B.to_json() for B in result.basis],
    }
    pretty = [("dimension", str(result.dimension))] + [
        (f"basis[{i}]", B) for i, B in enumerate(result.basis)
    ]
    return _Result(body, pretty)


def _cmd_minpoly(args) -> _Result:
    if args.family is not None:
        from . import family_minpoly_check

        if args.params is None:
            raise InputError("--family needs --params")
        params = _parse_scalar_list(args.params)
        report = family_minpoly_check(args.family, params)
        body = {
            "family": report.kind,
            "params": [str(v) for v in report.params],
            "minpoly": str(report.minpoly),
            "roots": [str(r) for r in dict.fromkeys(report.expected_roots)],
            "collapsed": [[str(r), k] for r, k in report.collapsed],
            "ok": report.ok,
        }
        lines = [
            f"family {report.kind} at ({', '.join(str(v) for v in report.params)})",
            f"minpoly {report.minpoly}",
            "collapsed roots: " + (", ".join(f"{r} (x{k})" for r, k in report.collapsed) or "none"),
            "factored form matches" if report.ok else "factored form MISMATCH",
        ]
        return _Result(body, lines)
    if args.operand is None:
        raise InputError("give a matrix file or --family")
    M = ExactMatrix.from_json(_load_json(args.operand))
    mp = min_poly(M)
    factored = mp.factored_str()
    body = {"minpoly": str(mp), "factored": factored}
    return _Result(body, [f"{mp} = {factored}"])


def _parse_scalar_list(text: str):
    return [GaussianRational.parse(part) for part in text.split(",")]


def _cmd_regrep(args) -> _Result:
    from . import regrep_element

    xs = _parse_scalar_list(args.x)
    element = regrep_element(xs)
    X = to_matrix(element.element)
    P, D = regrep_decompose(element)
    mats = {"X": X, "P": P, "D": D}
    return _Result({name: M.to_json() for name, M in mats.items()}, list(mats.items()))


def _cmd_verify_paper(args) -> _Result:
    results = run_all()
    body = [r._asdict() for r in results]
    lines = []
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{mark}  {r.name}{suffix}")
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return _Result(body, lines, exit_code=0 if failed == 0 else 1)


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="wittmat", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "pretty"), default="json")
    parser.add_argument("--rank-cap", type=int, default=6, metavar="N",
                        help="largest admitted rank (default 6)")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # top-level value unless they actually appear there
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "pretty"), default=argparse.SUPPRESS)
    common.add_argument("--rank-cap", type=int, metavar="N", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, fn, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add_parser("spectral-table", _cmd_spectral_table, help="print the rank-n table of matrix units")
    p.add_argument("n", type=int)

    p = add_parser("mul", _cmd_mul, help="multiply two multivector files")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = add_parser("to-matrix", _cmd_to_matrix, help="spectral matrix of a multivector file")
    p.add_argument("operand")

    p = add_parser("from-matrix", _cmd_from_matrix, help="multivector with the given spectral matrix")
    p.add_argument("operand")
    p.add_argument("--n", type=int, default=None)

    p = add_parser("involutions", _cmd_involutions, help="reverse, grade involution and conjugation images")
    p.add_argument("operand")

    p = add_parser("det2", _cmd_det2, help="determinant of a rank-1 element")
    p.add_argument("operand")

    p = add_parser("embed", _cmd_embed, help="generator set for signature (p, q)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=None)

    p = add_parser("perm", _cmd_perm, help="matrix and geometric images of a permutation")
    p.add_argument("--cycles", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rep", choices=("perm", "std"), default="perm")
    p.add_argument("--standard-irrep", action="store_true",
                   help="conjugate by the Casimir diagonalizer instead")

    p = add_parser("casimir", _cmd_casimir, help="all-ones and Casimir elements with minimal polynomials")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("surgery", _cmd_surgery, help="Casimir diagonalizer, or a band cut with --g/--idempotent")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", default=None)
    p.add_argument("--idempotent", default=None)

    p = add_parser("commutant", _cmd_commutant, help="basis of matrices commuting with a generator set")
    p.add_argument("--group", required=True, help="s4, klein, or a JSON file of matrices")

    p = add_parser("minpoly", _cmd_minpoly, help="minimal polynomial of a matrix file or parameter family")
    p.add_argument("operand", nargs="?", default=None)
    p.add_argument("--family", choices=("all", "alt"), default=None)
    p.add_argument("--params", default=None, help="comma-separated parameters")

    p = add_parser("regrep", _cmd_regrep, help="decompose the 6-term regular-representation element")
    p.add_argument("--x", required=True, help="six comma-separated coefficients")

    add_parser("verify-paper", _cmd_verify_paper, help="run every frozen reference check")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.rank_cap < 1:
            raise InputError("--rank-cap must be at least 1")
        result = args.fn(args)
        if args.format == "json":
            print(json.dumps(result.as_json))
        else:
            _emit_pretty(result.pretty)
        return result.exit_code
    except WittmatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for klass, code in _EXIT_CODES if isinstance(exc, klass)), 1)


if __name__ == "__main__":
    sys.exit(main())
