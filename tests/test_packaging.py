"""The package runs on the Python standard library alone."""

import ast
import re
import sys
from pathlib import Path

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


def test_no_runtime_dependencies_are_declared():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
