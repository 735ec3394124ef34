"""The package runs on the standard library alone, and its exports resolve."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def test_project_declares_no_runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted((ROOT / "src" / "sixrde").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def _package_modules():
    stems = sorted(p.stem for p in (ROOT / "src" / "sixrde").glob("*.py"))
    return [importlib.import_module(f"sixrde.{stem}") for stem in stems if not stem.startswith("_")]


def test_every_exported_name_resolves():
    modules = _package_modules()
    assert modules
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"


def test_package_reexports_only_exported_names():
    init = ROOT / "src" / "sixrde" / "__init__.py"
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(f"sixrde.{node.module}").__all__
            for alias in node.names:
                assert alias.name in exported, f"sixrde.{node.module} does not export {alias.name}"
