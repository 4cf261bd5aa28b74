"""The package holds what the pipeline runs.

Every module-level function or class in ``src/emoguide`` is exported in
``emoguide.__all__`` or referenced from outside its own definition: by the
package, by the benchmark harness (``perfbench/``) or by ``scripts/``.  A
definition that only tests use belongs with the tests (see ``oracles.py``).
"""

import ast
from pathlib import Path

import emoguide

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(path: Path, strings: bool) -> set[str]:
    """Names a file refers to, outside each module-level definition's own body.

    A reference is a name, an attribute, an imported name or, with
    ``strings``, a string constant (the harness names what it wraps by string).
    """
    found = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
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
    unused = [
        f"{path.stem}.{stmt.name}"
        for path in modules
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, DEFINITIONS) and stmt.name not in used
    ]
    assert not unused, f"defined in src/emoguide but used only by tests, or not at all: {unused}"
