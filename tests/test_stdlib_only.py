"""The package uses the standard library alone: every module that a source
file of ``qflab`` imports is ``qflab`` itself or a standard-library module, and
``pyproject.toml`` declares no runtime dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "qflab").glob("*.py"))
    assert sources
    foreign = {f"{path.name}: {name}" for path in sources for name in imported_modules(path)
               if name != "qflab" and name not in sys.stdlib_module_names}
    assert not foreign


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
