"""Every module-level function and class of the package, and every method
of such a class, is reachable from the program: the CLI entry point,
module-level statements, or a name the benchmark harness uses.  The package
exports only reachable definitions.

Reachability is read from the source, not from a run: a definition reaches
every name it mentions, resolved through the package's own
``from .module import name`` statements.  A method is reached when its class
is and some reached code or the harness names it as an attribute (``x.m``);
special methods (``__len__``) count with their class.  Code that only tests
call belongs in the tests: the module that uses it, or ``reference.py``.
Every definition that the program does not reach fails the check, with no
exceptions.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scanmix"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _package():
    """(definitions, imports, statements): module-level functions and
    classes by (module, name) and their methods by (module, "Class.name");
    relative imports as (module, alias) -> (module, name); every other
    module-level statement by module."""
    defs, imports, statements = {}, {}, defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                defs[module, node.name] = node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, FUNCTIONS):
                        defs[module, f"{node.name}.{item.name}"] = item
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (
                        node.module or "__init__", alias.name)
            else:
                statements[module].append(node)
    return defs, imports, statements


def _own_nodes(node):
    """The nodes of a definition, less the bodies of a class's methods,
    which are definitions of their own."""
    if not isinstance(node, ast.ClassDef):
        return list(ast.walk(node))
    parts = node.bases + node.keywords + node.decorator_list
    for item in node.body:
        parts += item.decorator_list if isinstance(item, FUNCTIONS) else [item]
    return [n for part in parts for n in ast.walk(part)]


def _names(nodes) -> set[str]:
    return {n.id for n in nodes if isinstance(n, ast.Name)}


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
    """(definitions, the keys of those reachable from the roots, a resolver
    of (module, name) to the key of the definition it names)."""
    defs, imports, statements = _package()

    def resolve(module, name):
        while (module, name) in imports:
            module, name = imports[module, name]
        return (module, name) if (module, name) in defs else None

    bench = _bench_names()
    roots = [("cli", "main")]
    roots += [resolve(m, name) for m, body in statements.items() for s in body
              for name in _names(ast.walk(s))]
    roots += [key for key in defs if key[1] in bench]
    attributes = set(bench)
    seen, todo = set(), [key for key in roots if key in defs]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        nodes = _own_nodes(defs[key])
        todo += [r for r in (resolve(key[0], n) for n in _names(nodes)) if r]
        attributes |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        # the methods of every reached class that reached code names
        todo += [
            (module, name) for module, name in defs
            if "." in name and (module, name.split(".")[0]) in seen
            and (name.split(".")[1] in attributes or name.split(".")[1].startswith("__"))
        ]
    return defs, seen, resolve


def test_every_definition_is_reachable_from_the_program():
    defs, seen, _ = reachable()
    unreached = sorted(set(defs) - seen)
    assert unreached == [], "reached only from tests: " + ", ".join(".".join(k) for k in unreached)


def test_every_export_is_reached():
    """``__init__`` re-exports only definitions that the program reaches."""
    defs, seen, resolve = reachable()
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names]
    assert exports and all(resolve("__init__", name) in seen for name in exports), [
        name for name in exports if resolve("__init__", name) not in seen]


def _unused_imports(path: Path) -> list[str]:
    """Names the module imports and never mentions, skipping ``__future__``
    imports and any import statement marked ``# noqa: F401``."""
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    used = _names(ast.walk(tree))
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


def _scopes():
    """(key, nodes) of every definition and of each module's other statements."""
    defs, _, statements = _package()
    scopes = [(key, _own_nodes(node)) for key, node in defs.items()]
    return scopes + [((m, "<module>"), [n for s in body for n in ast.walk(s)])
                     for m, body in statements.items()]


def test_only_coupled_update_makes_the_coupled_move():
    """Inside the package only ``coupled_update`` calls the path acceptance
    rule or the partner proposal, so every coupled vertex move, looped or
    tabled, is that one function's."""
    callers = {
        key for key, nodes in _scopes() for n in nodes
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id in ("path_accepts", "partner_proposal")
    }
    assert callers == {("coupling", "coupled_update")}, sorted(callers)


def _is_constraint_matrix(node) -> bool:
    """``allows``, an ``adjacency`` or ``allows_matrix`` attribute, the
    ``.T`` of one, a choice between them, or a row of one."""
    if isinstance(node, ast.Name):
        return node.id == "allows"
    if isinstance(node, ast.Attribute):
        return (node.attr in ("adjacency", "allows_matrix")
                or node.attr == "T" and _is_constraint_matrix(node.value))
    if isinstance(node, ast.IfExp):
        return _is_constraint_matrix(node.body) or _is_constraint_matrix(node.orelse)
    return isinstance(node, ast.Subscript) and _is_constraint_matrix(node.value)


def test_only_accepted_colors_reads_a_constraint_matrix_by_color():
    """Inside the package only ``accepted_colors`` subscripts a constraint
    matrix by a neighbour's color (an index that itself reads a coloring),
    so the orientation rule of Metropolis(v) has one definition, which the
    enumerator, the move tables and the congestion check share."""
    readers = {
        key for key, nodes in _scopes() for n in nodes
        if isinstance(n, ast.Subscript) and _is_constraint_matrix(n.value)
        and any(isinstance(m, ast.Subscript) for m in ast.walk(n.slice))
    }
    assert readers == {("domain", "accepted_colors")}, sorted(readers)


def test_only_the_coupling_module_reads_the_step_table():
    """Inside the package only ``coupling`` calls ``_step_table`` or
    ``_table_index``, so the pair-code format a * (q + 1) + b and the table's
    layout are that one module's."""
    callers = {
        key[0] for key, nodes in _scopes() for n in nodes
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id in ("_step_table", "_table_index")
    }
    assert callers == {"coupling"}, sorted(callers)


SENTINEL_CODES = {"L - 1", "q1 * q1 - 1", "(q + 1) ** 2 - 1"}


def test_only_pair_codes_forms_the_sentinel_pair():
    """Inside ``coupling`` only ``_pair_codes`` spells the sentinel pair
    code, whether to fill an array (``np.full``) or to write its rows, so
    every engine that reads the step table gets its pair codes, sentinel
    rows included, from that one encoder."""
    writers = {
        key for key, nodes in _scopes() if key[0] == "coupling" for n in nodes
        if isinstance(n, ast.expr) and ast.unparse(n) in SENTINEL_CODES
    }
    assert writers == {("coupling", "_pair_codes")}, sorted(writers)
