"""Source hygiene: every module is reachable from the package or the CLI, and
no module imports a name it never uses."""

import ast
from pathlib import Path

import padicforms

PACKAGE = Path(padicforms.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _relative_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_is_reachable_from_the_package_or_the_cli():
    seen, todo = set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_relative_imports(MODULES[name]))
    assert set(MODULES) - seen == set()


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_module_has_an_unused_import():
    # __init__ imports only to re-export
    unused = {name: _unused_imports(tree) for name, tree in MODULES.items()
              if name != "__init__"}
    assert {name: found for name, found in unused.items() if found} == {}
