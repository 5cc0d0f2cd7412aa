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


TESTS = {path.name: ast.parse(path.read_text())
         for path in Path(__file__).resolve().parent.glob("*.py")}


def test_no_module_has_an_unused_import():
    # __init__ imports only to re-export; the test modules are read too
    trees = {**{name: tree for name, tree in MODULES.items() if name != "__init__"},
             **{f"tests/{name}": tree for name, tree in TESTS.items()}}
    unused = {name: _unused_imports(tree) for name, tree in trees.items()}
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
    # values of K = Q(chi) enter Q_p through cyclotomic.value_to_padic and
    # padic_valuation, never through .embed elsewhere
    callers = sorted(name for name, tree in MODULES.items() if name != "cyclotomic"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "embed")
    assert callers == []


def test_only_lambertw_widens_log_bounds():
    # a certified comparison widens its ln series in lambertw.decide_ge, the
    # one loop behind the Lambert floor and the rate inequality, so no other
    # module calls ln_interval
    callers = sorted(name for name, tree in MODULES.items() if name != "lambertw"
                     for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and ast.unparse(node.func).split(".")[-1] == "ln_interval")
    assert callers == []


def test_only_cyclotomic_constructs_embeddings():
    # K has one embedding into Q_p, so no other module lifts zeta_m itself;
    # its values enter Q_p through value_to_padic and its kin
    callers = sorted(name for name, tree in MODULES.items() if name != "cyclotomic"
                     for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and "zeta_image" in ast.unparse(node.func))
    assert callers == []
    assert any(isinstance(node, ast.Call) and ast.unparse(node.func) == "zeta_image"
               for node in ast.walk(MODULES["cyclotomic"]))


def _names(tree):
    """Every name a module reads, imports or spells in a dotted string constant."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
            out.update(node.value.split("."))
    return out


# top-level names that only the tests call and that stay in src/: each states
# a lemma of the paper that the acceptance criteria run
TEST_ONLY_NAMES_THAT_STAY = {
    "translate_integral",           # the translation formula (criterion 3)
    "rational_wavelet_tail_bound",  # the Riemann sums' certificate (criterion 1)
    "height_K", "height_p_valuation", "delta_p_valuation",  # height lemmas (criterion 10)
}


def _names_outside_the_tests():
    """Every name the program (apart from the re-exports of __init__) or
    perfbench/ reads."""
    used = set().union(*(_names(tree) for name, tree in MODULES.items()
                         if name != "__init__"))
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    return used | set().union(*(_names(ast.parse(path.read_text()))
                                for path in bench.rglob("*.py")))


def test_every_top_level_name_is_used_outside_the_tests():
    # a top-level function or class of src/ that neither the program nor
    # perfbench/ names belongs in the tests, as an oracle, unless it is one
    # of the names that stay
    defined = {node.name for tree in MODULES.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = defined - _names_outside_the_tests()
    assert unused - TEST_ONLY_NAMES_THAT_STAY == set()
    assert TEST_ONLY_NAMES_THAT_STAY <= unused  # no stale entry


# public methods that only the tests call and that stay in src/
TEST_ONLY_METHODS_THAT_STAY = {
    "HeightMatrix.append_row",  # the oplus of the height lemmas (criterion 10)
}


def test_every_public_method_is_used_outside_the_tests():
    # the same rule for the public methods of src/ classes, read by name, so
    # a method whose name some local variable shares passes unseen
    used = _names_outside_the_tests()
    unused = {f"{node.name}.{item.name}" for tree in MODULES.values() for node in tree.body
              if isinstance(node, ast.ClassDef) for item in node.body
              if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
              and item.name not in used}
    assert unused - TEST_ONLY_METHODS_THAT_STAY == set()
    assert TEST_ONLY_METHODS_THAT_STAY <= unused  # no stale entry


def _is_p(node):
    """p, <obj>.p, Fraction(p) or Q(p)."""
    if isinstance(node, ast.Call):
        return (ast.unparse(node.func) in ("Fraction", "Q") and len(node.args) == 1
                and _is_p(node.args[0]))
    return (isinstance(node, ast.Name) and node.id == "p"
            or isinstance(node, ast.Attribute) and node.attr == "p")


def _divisions_by_powers_of_p(tree, scope=()):
    """The qualified name of the function around each x / p^k or x // p^k,
    and each x / p or x // p."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
        divisor = None
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv)):
            divisor = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Div, ast.FloorDiv)):
            divisor = node.value
        if _is_p(divisor) or (isinstance(divisor, ast.BinOp) and isinstance(divisor.op, ast.Pow)
                              and _is_p(divisor.left)):
            yield ".".join(inner)
        yield from _divisions_by_powers_of_p(node, inner)


# divisions by a power of p outside arith that do not split off a unit
DIVISIONS_BY_POWERS_OF_P_THAT_STAY = {
    "verification.characteristic_Xjn",  # the base-p digit shift floor(j / p^l)
}


def test_only_arith_splits_off_powers_of_p():
    # a number is split into p^v times a unit only by arith.split and
    # arith.unit_residue, so no other module divides by a power of p
    found = {f"{name}.{scope}" for name, tree in MODULES.items() if name != "arith"
             for scope in _divisions_by_powers_of_p(tree)}
    assert found == DIVISIONS_BY_POWERS_OF_P_THAT_STAY
    assert any(_divisions_by_powers_of_p(MODULES["arith"]))
