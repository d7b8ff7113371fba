"""Every module-level function and class of the package is reachable from
the program: the CLI entry point, the package exports, module-level
statements, or a name the benchmark harness uses.

Reachability is read from the source, not from a run: a definition reaches
every name it mentions, resolved through the package's own
``from .module import name`` statements.  Code that only tests call belongs
in the test module that uses it.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scanmix"

# Definitions reached only from tests that stay in the package, with why.
# D10 in ROADMAP.md computes the exact law of the threshold statistic.
ALLOWED = {
    ("percolation", name): "D10 replaces them"
    for name in (
        "stationary_z_tail_exact",
        "anchored_z_tail_exact",
        "exact_free_tail",
        "enumerate_anchor_fiber",
        "z_statistic",
    )
}


def _package():
    """(definitions, imports, statements): module-level functions and
    classes by (module, name); relative imports as (module, alias) ->
    (module, name); every other module-level statement by module."""
    defs, imports, statements = {}, {}, defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (
                        node.module or "__init__", alias.name)
            else:
                statements[module].append(node)
    return defs, imports, statements


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _bench_names() -> set[str]:
    """Names, attributes and dotted-name strings (``spans.PROBES``) in bench/."""
    out = set()
    for path in (ROOT / "bench").glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                if re.fullmatch(r"[\w.]+", n.value):
                    out.update(n.value.split("."))
    return out


def reachable():
    """(definitions, the keys of those reachable from the roots)."""
    defs, imports, statements = _package()

    def resolve(module, name):
        while (module, name) in imports:
            module, name = imports[module, name]
        return (module, name) if (module, name) in defs else None

    roots = [("cli", "main")]
    roots += [imports[key] for key in imports if key[0] == "__init__"]
    roots += [resolve(m, name) for m, body in statements.items() for s in body for name in _names(s)]
    bench = _bench_names()
    roots += [key for key in defs if key[1] in bench]
    seen, todo = set(), [key for key in roots if key in defs]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo += [r for r in (resolve(key[0], n) for n in _names(defs[key])) if r]
    return defs, seen


def test_every_definition_is_reachable_from_the_program():
    defs, seen = reachable()
    unreached = sorted(set(defs) - seen - set(ALLOWED))
    assert unreached == [], "reached only from tests: " + ", ".join(".".join(k) for k in unreached)


def test_the_allowlist_names_only_unreached_definitions():
    defs, seen = reachable()
    assert set(ALLOWED) <= set(defs) - seen


def _unused_imports(path: Path) -> list[str]:
    """Names the module imports and never mentions, skipping ``__future__``
    imports and any import statement marked ``# noqa: F401``."""
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    used = _names(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                out.append(f"{path.stem}.{name}")
    return out


def test_every_imported_name_is_used():
    """Each package module but ``__init__`` (whose imports are the package's
    exports) uses every name it imports."""
    unused = [n for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
              for n in _unused_imports(path)]
    assert unused == [], "imported and unused: " + ", ".join(unused)
