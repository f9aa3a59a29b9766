"""The package runs on the Python standard library alone."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import clusterfold
import clusterfold.cli
from clusterfold.search import Search

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "clusterfold" if node.level else node.module.split(".")[0]


def test_sources_import_only_the_standard_library():
    sources = sorted((ROOT / "src" / "clusterfold").glob("*.py"))
    assert sources
    for path in sources:
        for module in _imported_top_level_modules(path):
            assert module == "clusterfold" or module in sys.stdlib_module_names, (path.name, module)


def test_reports_hold_the_search_and_copy_none_of_its_fields():
    copied = {}
    for info in pkgutil.iter_modules(clusterfold.__path__):
        module = importlib.import_module(f"clusterfold.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and "search" in getattr(cls, "__slots__", ()):
                copied[cls.__name__] = set(cls.__slots__) & set(Search.__slots__)
    assert {"MutationClassReport", "StabilityVerdict", "EnumerationResult"} <= set(copied)
    assert all(not fields for fields in copied.values()), copied


def test_no_runtime_dependencies_are_declared():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


# loaded for nothing but a decorator, an annotation or a number type; each costs start-up time
NOT_AT_IMPORT = ("dataclasses", "inspect", "fractions", "decimal", "typing")


def test_import_loads_no_decorator_annotation_or_number_modules():
    script = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
              "import clusterfold, clusterfold.cli; print(*sorted(set(sys.modules) - before))")
    loaded = subprocess.run([sys.executable, "-S", "-c", script, str(ROOT / "src")],
                            capture_output=True, text=True, check=True).stdout.split()
    assert "clusterfold.cli" in loaded
    assert sorted(set(NOT_AT_IMPORT) & set(loaded)) == []


# Library code that only tests call, each kept as an independent reference.
CALLED_ONLY_BY_TESTS = {
    "all_orbit_orderings_agree",  # every ordering of an orbit, against orbit_mutate_seed's one
    "parse_polynomial",  # builds the expected Laurent polynomials of the hand-worked examples
}


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _names_used(tree):
    """(name, line) for every identifier the code names: variables, attributes,
    imports and the parts of a string constant that is a whole identifier or
    dotted path (getattr tables, such as "ExchangeMatrix.mutate"), not docstrings.
    A message that merely contains a function's name does not call it."""
    skip = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                for part in parts:
                    yield part, node.lineno


def test_every_library_function_and_class_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "demos", "bench") for path in sorted((ROOT / folder).rglob("*.py"))}
    uses = {(name, path, line) for path, tree in trees.items() if path.name != "__init__.py"
            for name, line in _names_used(tree)}
    uncalled = []
    for path, tree in trees.items():
        if path.parent.name != "clusterfold" or path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
                       for name, where, line in uses):
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert sorted(name.split()[-1] for name in uncalled) == sorted(CALLED_ONLY_BY_TESTS), uncalled


def _private_attribute_reads(tree):
    """The ``_name`` attribute reads of one module that it does not own itself:
    owning means assigning the attribute, defining a function or class of that
    name, or listing it in a ``__slots__``."""
    reads, owned = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not (
                node.attr.startswith("__") and node.attr.endswith("__")):
            if isinstance(node.ctx, ast.Load):
                reads.append(node)
            else:
                owned.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owned.add(node.name)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__" for target in node.targets):
            owned.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"{node.lineno} {ast.unparse(node)}" for node in reads if node.attr not in owned]


def test_no_module_reads_another_modules_private_attribute():
    foreign = {path.name: reads for path in sorted((ROOT / "src" / "clusterfold").glob("*.py"))
               if (reads := _private_attribute_reads(ast.parse(path.read_text(encoding="utf-8"))))}
    assert foreign == {}


def _relative_imports(nodes):
    """(module, line) for each package module that the relative imports among ``nodes`` load."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0], node.lineno
            else:  # from . import name, ...
                for alias in node.names:
                    yield alias.name, node.lineno


def test_function_level_imports_only_break_import_cycles():
    # an import inside a function is allowed only where the module it loads
    # imports this one at module level, so that a module-level import would be a cycle
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "clusterfold").glob("*.py"))}
    at_module_level = {name: {module for module, _ in _relative_imports(tree.body)}
                       for name, tree in trees.items()}
    needless = []
    for name, tree in trees.items():
        nested = dict.fromkeys(node for function in ast.walk(tree)
                               if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                               for node in ast.walk(function))  # once, though nested functions repeat
        for module, line in _relative_imports(nested):
            if name not in at_module_level.get(module, ()):
                needless.append(f"{name}.py:{line} {module}")
    assert needless == []


def test_relative_imports_form_no_cycle():
    # module-level and function-level imports alike: a cycle through a
    # function-level import is still a cycle between the two modules
    graph = {path.stem: {module for module, _ in _relative_imports(
                 ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
             for path in sorted((ROOT / "src" / "clusterfold").glob("*.py"))
             if path.stem != "__init__"}
    done, cycles = set(), []

    def visit(name, path):
        if name in path:
            cycles.append(" -> ".join(path[path.index(name):] + [name]))
        elif name not in done:
            for module in sorted(graph.get(name, ())):
                visit(module, path + [name])
            done.add(name)

    for name in graph:
        visit(name, [])
    assert cycles == []


def test_every_traced_layer_resolves_but_the_known_stale_one():
    # the tracer skips a layer it cannot resolve, so a renamed function would drop
    # out of traced runs without a word; explorer.orbit_mutation_class left src/ long ago
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = {layer for layer, (module, path) in tracer.LAYERS.items()
                  if tracer._resolve(clusterfold, module, path) is None}
    assert unresolved == {"explorer.orbit_mutation_class"}
