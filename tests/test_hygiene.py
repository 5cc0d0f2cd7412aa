"""Source hygiene: every module is reachable from the package or the CLI, no
module imports a name it never uses, and every function the benchmark traces
still exists."""

import ast
import importlib
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


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_constant(name):
    """A literal module-level constant of perfbench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def test_every_function_the_benchmark_traces_exists():
    # spans.install looks each "<module>.<function>" up in padicforms.<module>;
    # the padic.* metrics come from microbenchmarks, not from a function
    names = {metric.rsplit(".", 1)[0] for metric, _ in _spans_constant("LAYER_METRICS")
             if not metric.startswith("padic.")}
    names |= set(_spans_constant("LEAF_FUNCTIONS"))
    missing = []
    for name in sorted(names):
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module("padicforms." + module), func, None)):
            missing.append(name)
    assert len(names) > 20 and missing == []


def test_only_cyclotomic_embeds_field_elements():
    # values of K = Q(chi) enter Q_p through cyclotomic.value_to_padic,
    # scale_by_value and padic_valuation, never through .embed elsewhere
    callers = sorted(name for name, tree in MODULES.items() if name != "cyclotomic"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "embed")
    assert callers == []
