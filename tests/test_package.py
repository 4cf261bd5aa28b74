"""The package holds what the pipeline runs.

Every module-level function or class in ``src/emoguide``, and every method or
property of such a class, other than the ``__dunder__`` ones the interpreter
calls (a method, or a module's PEP 562 ``__getattr__``), is exported in
``emoguide.__all__`` or referenced from outside its own definition: by the
package, by the benchmark harness (``perfbench/``) or by ``scripts/``.  A
definition that only tests use belongs with the tests (see ``oracles.py``).

The check goes by name, not by type: a method escapes it while another
definition of the same name is used, as ``VadMatrix.coverage`` did beside
``VadLexicon.coverage``.

Records are built around their checks in one helper, ``checks._unchecked``,
and only where every field was computed from checked values; a second test
pins its call sites, so no reader of outside input can reach it.
"""

import ast
from collections import Counter
from pathlib import Path

import emoguide

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(node: ast.AST, strings: bool) -> set[str]:
    """A name, an attribute, an imported name or, with ``strings``, a string
    constant (the harness names what it wraps by string)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _references(path: Path, strings: bool) -> set[str]:
    """Names a file refers to, outside each module-level definition's own
    body and each method's own body."""
    found = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.ClassDef):
            names = set()
            for part in [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body]:
                inner = _names(part, strings)
                if isinstance(part, FUNCTIONS):
                    inner.discard(part.name)
                names |= inner
        else:
            names = _names(stmt, strings)
        if isinstance(stmt, DEFINITIONS):
            names.discard(stmt.name)
        found |= names
    return found


def test_every_package_definition_is_exported_or_used_outside_tests():
    modules = sorted((ROOT / "src" / "emoguide").glob("*.py"))
    used = set().union(*(_references(path, strings=False) for path in modules))
    for tree in ("perfbench", "scripts"):
        used |= set().union(*(_references(p, strings=True) for p in (ROOT / tree).glob("*.py")))
    used |= set(emoguide.__all__)
    unused = []
    for path in modules:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, DEFINITIONS) and stmt.name not in used and not _dunder(stmt.name):
                unused.append(f"{path.stem}.{stmt.name}")
            if isinstance(stmt, ast.ClassDef):
                unused += [
                    f"{path.stem}.{stmt.name}.{node.name}"
                    for node in stmt.body
                    if isinstance(node, FUNCTIONS)
                    and not _dunder(node.name)
                    and node.name not in used
                ]
    assert not unused, f"defined in src/emoguide but used only by tests, or not at all: {unused}"


# (module, enclosing function, record class) of every call of the helper
UNCHECKED_SITES = Counter(
    {
        ("vad", "utterance_mean_vad", "VadVector"): 1,
        ("polarity", "classify_polarity", "PolarityDistribution"): 1,
        ("corpus", "synthesize_corpus", "Utterance"): 1,
        ("corpus", "synthesize_corpus", "Dialog"): 1,
    }
)


def _uses(node: ast.AST, module: str, scope: str, out: list) -> None:
    """(module, enclosing function, node) for every node under ``node``."""
    if isinstance(node, FUNCTIONS):
        scope = node.name
    out.append((module, scope, node))
    for child in ast.iter_child_nodes(node):
        _uses(child, module, scope, out)


def test_records_skip_their_checks_only_at_the_known_sites():
    nodes: list = []
    for path in sorted((ROOT / "src" / "emoguide").glob("*.py")):
        _uses(ast.parse(path.read_text(encoding="utf-8")), path.stem, "", nodes)
    new = [(m, f) for m, f, n in nodes if isinstance(n, ast.Attribute) and n.attr == "__new__"]
    assert new == [("checks", "_unchecked")]
    calls = Counter(
        (m, f, ast.unparse(n.args[0]))
        for m, f, n in nodes
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_unchecked"
    )
    assert calls == UNCHECKED_SITES
    # the name is only imported, defined and called: never passed on or aliased
    named = sum(isinstance(n, ast.Name) and n.id == "_unchecked" for _, _, n in nodes)
    assert named == calls.total()
    assert not any(isinstance(n, ast.Attribute) and n.attr == "_unchecked" for _, _, n in nodes)
    assert not any(isinstance(n, ast.alias) and n.name == "_unchecked" and n.asname for _, _, n in nodes)
