"""The design rules of src/wittmat, checked on its source text: what no module names, and where helpers are called.

Each rule is a grep or one AST walk over the package, so the file runs in
milliseconds.  A rule that fails names the file and line that break it.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "wittmat"

# helper -> the scopes (enclosing class and function names) allowed to call it:
# an element and a matrix each lift their entries once, on first use, and keep the lift;
# rref and inverse share one elimination loop, and min_poly keeps the one-step form;
# scalars are built from integers only for the cells of a flat matrix and min_poly's coefficients
ALLOWED = {
    "_lift": {("ExactMatrix", "_lifted"), ("Multivector", "_lifted")},
    "_eliminate": {("ExactMatrix", "rref"), ("ExactMatrix", "inverse")},
    "_bareiss_pair": {("_eliminate",)},
    "_bareiss_step": {("_eliminate",), ("_bareiss_pair",), ("min_poly",)},
    "_scalars": {("ExactMatrix", "cells"), ("min_poly",)},
}
_SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def sources():
    return sorted(SRC.rglob("*.py"))


def lines_naming(pattern):
    """'path:line' for every line of src/wittmat that matches the regular expression pattern."""
    return [
        f"{path.name}:{k}"
        for path in sources()
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]


def calls(path):
    """(callee name, scope, line) for every call in path whose callee is a name or an attribute."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name:
                    found.append((name, scope, child.lineno))
            walk(child, scope + (child.name,) if isinstance(child, _SCOPES) else scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_the_rules_read_the_package():
    assert {path.name for path in sources()} >= {"exact.py", "witt.py", "spectral.py", "repdecomp.py"}
    assert all(any(name == helper for path in sources() for name, _, _ in calls(path)) for helper in ALLOWED)


def test_no_private_field_of_fraction():
    """A scalar holds its own ints, so nothing reaches into Fraction's private fields."""
    assert lines_naming(r"_numerator|_denominator") == []


def test_no_setattr():
    """A value type is immutable as Fraction is, by read-only properties over private slots."""
    assert lines_naming(r"__setattr__") == []


def test_helpers_are_called_only_where_they_belong():
    bad = [
        f"{path.name}:{line} calls {name} in {'.'.join(scope) or 'module'}"
        for path in sources()
        for name, scope, line in calls(path)
        if name in ALLOWED and scope not in ALLOWED[name]
    ]
    assert bad == []


def test_witt_builds_every_scalar_through_exact_scalar():
    """witt.py calls no GaussianRational(...): every result coefficient comes from exact._scalar."""
    bad = [line for name, _, line in calls(SRC / "witt.py") if name == "GaussianRational"]
    assert bad == []


def named(node):
    """The name a Name or Attribute node reads, or that an import alias brings in; None for any other node."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or (node.name if isinstance(node, ast.alias) else None)


def test_every_cache_is_a_constant():
    """Per-rank tables are built only under witt._per_rank, which keeps ranks up to 6 and the latest above.

    So functools.cache and lru_cache may decorate only a function that takes
    no arguments, a constant built once: no cache is keyed by rank, or grows
    with the work.  Any other mention of either name, a call such as
    cache(f) or an import under another name, breaks the rule too.
    """
    caches = {"cache", "lru_cache"}
    constants, bad = [], []
    for path in sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        seen = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                inside = list(ast.walk(decorator))
                if any(named(n) in caches for n in inside):
                    seen.update(map(id, inside))
                    args = node.args
                    if args.posonlyargs or args.args or args.kwonlyargs or args.vararg or args.kwarg:
                        bad.append(f"{path.name}:{node.lineno} caches {node.name}, which takes arguments")
                    else:
                        constants.append(f"{path.stem}.{node.name}")
        bad += [f"{path.name}:{n.lineno} names {named(n)} outside a decorator"
                for n in ast.walk(tree) if id(n) not in seen and named(n) in caches]
    assert bad == []
    assert {"repdecomp._regrep_images", "repdecomp._regrep_basis"} <= set(constants)
