"""The installed package: its console script, its exports and the README example.

These tests import ``prodgeo`` from wherever Python finds it, so they also
run against an installed package from outside the source tree.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import prodgeo

ROOT = Path(__file__).resolve().parent.parent


def _modules_with_all():
    modules = [importlib.import_module(f"prodgeo.{info.name}")
               for info in pkgutil.iter_modules(prodgeo.__path__)]
    return [module for module in modules if hasattr(module, "__all__")]


def test_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = ROOT / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["prodgeo"]
    module, _, attribute = target.partition(":")
    obj = importlib.import_module(module)
    for name in attribute.split("."):
        obj = getattr(obj, name)
    assert callable(obj)


@pytest.mark.parametrize("module", _modules_with_all(), ids=lambda m: m.__name__)
def test_module_all_lists_exactly_its_public_definitions(module):
    exported = module.__all__
    assert [name for name in exported if not hasattr(module, name)] == []
    defined = [
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in exported] == []


def test_package_imports_name_existing_objects():
    tree = ast.parse(Path(prodgeo.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"prodgeo.{module}")
        assert hasattr(source, name), (module, name)
        assert getattr(prodgeo, name) is getattr(source, name)


def test_readme_python_example_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "generic" in capsys.readouterr().out
