"""Surface guards on `src/modcore`, read off its syntax trees.

Dead code: every function, class and method that `src/modcore` defines has
a caller in the library or in the benchmark (`bench/`).  A definition
counts as called where its name is loaded, as a name or as an attribute,
outside the definition itself.  `__init__.py` only re-exports, and the
tests do not count: a name that only tests call is dead code.

Layering: only `groebner` knows the term codes of the kernel."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "modcore").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """(qualified name, node) of each top-level function and class, and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub


def _loads(tree):
    """(name, line) of each name and attribute that `tree` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_definition_has_a_caller_outside_the_tests():
    assert SOURCES and BENCH
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + BENCH}
    loads = {}
    for path, tree in trees.items():
        for name, line in _loads(tree):
            loads.setdefault(name, []).append((path, line))
    dead = []
    for path in SOURCES:
        for qualname, node in _definitions(trees[path]):
            sites = loads.get(qualname.rpartition(".")[2], ())
            if all(where == path and node.lineno <= line <= node.end_lineno for where, line in sites):
                dead.append(f"{path.name}: {qualname}")
    assert not dead, "no caller in src/modcore or bench/:\n" + "\n".join(dead)


# the term-code format: the codec, its guard-bit test, and the routines that
# take code dicts and divisors
TERM_CODE_NAMES = {"_codec", "_Codec", "_overflows", "_add_divisor", "nf_dict"}


def test_only_groebner_knows_the_term_codes():
    # no other module imports or loads a name of the term-code format
    leaks = []
    for path in SOURCES:
        if path.name == "groebner.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = [(alias.name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
        for name, line in imported + list(_loads(tree)):
            if name in TERM_CODE_NAMES:
                leaks.append(f"{path.name}:{line}: {name}")
    assert not leaks, "term codes outside groebner.py:\n" + "\n".join(leaks)
