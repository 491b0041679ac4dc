"""Surface guards on `src/modcore`, read off its syntax trees.

Dead code: every function, class and method that `src/modcore` defines has
a caller in the library or in the benchmark (`bench/`).  A definition
counts as called where its name is loaded, as a name or as an attribute,
outside the definition itself.  A method and its overrides within one class
hierarchy count as one definition.  A method name that another definition
shares (a method of an unrelated class, or a function) counts as called
only by loads in its own class's module, where the name can mean that
method.  `__init__.py` only re-exports, and the tests do not count: a name
that only tests call is dead code, unless `PUBLIC_API` names it.

Layering: only `groebner` knows the term codes of the kernel, and only
`poly` multiplies monomials."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "modcore").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Kept with no caller in src/modcore or bench/, as public API (see the
# README's "Public API" note): the Hilbert function of a presented module,
# the module counterpart of the exported `hilbert_function` of an ideal.
PUBLIC_API = {"PresentedModule.hilbert_function"}


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


def _hierarchy_roots(trees):
    """Each class of `src/modcore` mapped to the root of its hierarchy there:
    the class reached by following its first base defined in `src/modcore`."""
    bases = {}
    for path in SOURCES:
        for node in trees[path].body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]

    def root(name):
        up = [b for b in bases[name] if b in bases]
        return root(up[0]) if up else name

    return {name: root(name) for name in bases}


def test_every_definition_has_a_caller_outside_the_tests():
    assert SOURCES and BENCH
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + BENCH}
    loads = {}
    for path, tree in trees.items():
        for name, line in _loads(tree):
            loads.setdefault(name, []).append((path, line))
    roots = _hierarchy_roots(trees)
    # one family per definition, or per method and its overrides in one
    # hierarchy: (bare name, owner) -> [(path, qualified name, node)]
    families = {}
    for path in SOURCES:
        for qualname, node in _definitions(trees[path]):
            cls, _, name = qualname.rpartition(".")
            owner = roots[cls] if cls else (path, name)
            families.setdefault((name, owner), []).append((path, qualname, node))
    owners = {}
    for name, owner in families:
        owners.setdefault(name, set()).add(owner)
    dead = []
    for (name, owner), members in families.items():
        shared_method = "." in members[0][1] and len(owners[name]) > 1
        modules = {path for path, _, _ in members}
        called = any(
            not (shared_method and where not in modules)
            and not any(where == path and node.lineno <= line <= node.end_lineno for path, _, node in members)
            for where, line in loads.get(name, ())
        )
        if not called:
            dead += [f"{path.name}: {qualname}" for path, qualname, _ in members if qualname not in PUBLIC_API]
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


def test_only_poly_multiplies_monomials():
    # every product of term dicts goes through poly._add_products, so no
    # other module imports or loads mono_mul
    leaks = []
    for path in SOURCES:
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = [(alias.name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
        for name, line in imported + list(_loads(tree)):
            if name == "mono_mul":
                leaks.append(f"{path.name}:{line}")
    assert not leaks, "mono_mul outside poly.py:\n" + "\n".join(leaks)
