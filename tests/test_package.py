"""The package holds what the pipeline runs.

Every module-level function or class in ``src/emoguide``, and every method or
property of such a class, other than the ``__dunder__`` ones the interpreter
calls (a method, or a module's PEP 562 ``__getattr__``), is exported in
``emoguide.__all__`` or referenced from outside its own definition: by the
package, by the benchmark harness (``perfbench/``) or by ``scripts/``.  A
definition that only tests use belongs with the tests (see ``oracles.py``).

The check goes by name, not by type: a method escapes it while another
definition of the same name is used, as ``VadMatrix.coverage`` did beside
``VadLexicon.coverage``.  Two more checks go by name the same way: every
module-level constant is exported or read somewhere other than its own
assignment, and every defaulted parameter of a module-level function or of a
method is passed, by keyword or by position, by some call in those trees.

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
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
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


MODULES = sorted((ROOT / "src" / "emoguide").glob("*.py"))
# the trees whose code may use the package: the package itself, the benchmark
# harness and the scripts
USERS = [*MODULES, *(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]


def _used() -> set[str]:
    used = set().union(*(_references(path, strings=False) for path in MODULES))
    for path in USERS[len(MODULES) :]:
        used |= _references(path, strings=True)
    return used | set(emoguide.__all__)


def test_every_package_definition_is_exported_or_used_outside_tests():
    used = _used()
    unused = []
    for path in MODULES:
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


def test_every_module_constant_is_exported_or_read():
    used = _used()
    unread = []
    for path in MODULES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                unread += [
                    f"{path.stem}.{node.id}"
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name) and node.id not in used and not _dunder(node.id)
                ]
    assert not unread, f"assigned in src/emoguide but read nowhere, or only by tests: {unread}"


# defaulted parameters that no call in the package, the harness or the scripts sets
UNSET_BY_DESIGN = {
    ("cli", "main", "argv"): "the entry point: the console script calls it with none",
    # the one-context mirror of generate_batch, whose keywords the package does set
    ("model", "generate", "decode"): "mirrors generate_batch",
    ("model", "generate", "eou_id"): "mirrors generate_batch",
    ("model", "generate", "forbidden_ids"): "mirrors generate_batch",
    ("model", "generate", "rng"): "mirrors generate_batch",
    ("objective", "finite_diff_check", "eps"): "the model gradient tests difference at 1e-6",
}


def _passed() -> dict[str, tuple[int, set]]:
    """For each called name, the most positional arguments any call passes and
    the keywords the calls pass; a ``*`` or ``**`` argument passes them all."""
    passed: dict[str, tuple[int, set]] = {}
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Name, ast.Attribute)):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = float("inf") if starred else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            most, known = passed.get(name, (0, set()))
            passed[name] = (max(most, count), known | keywords)
    return passed


def _defaulted(function: ast.FunctionDef, method: bool):
    """(name, positional index or None) of each defaulted parameter; a
    method's index leaves out ``self`` or ``cls``."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list)
    skip = int(method and not static)
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], start=first):
        yield arg.arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_defaulted_parameter_is_passed_somewhere():
    passed = _passed()
    unset = set()
    for path in MODULES:
        functions = []
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, FUNCTIONS):
                functions.append((stmt, False))
            elif isinstance(stmt, ast.ClassDef):
                functions += [(node, True) for node in stmt.body if isinstance(node, FUNCTIONS)]
        for function, method in functions:
            if _dunder(function.name):
                continue
            most, keywords = passed.get(function.name, (0, set()))
            for name, index in _defaulted(function, method):
                by_position = index is not None and most > index
                if not (by_position or name in keywords or None in keywords):
                    unset.add((path.stem, function.name, name))
    unexpected = sorted(".".join(key) for key in unset - UNSET_BY_DESIGN.keys())
    assert not unexpected, f"defaulted parameters that no call sets: {unexpected}"
    assert unset == UNSET_BY_DESIGN.keys(), "an exemption above is set by a call now: drop it"


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
