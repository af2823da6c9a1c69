"""The installed console script points at a callable."""

import importlib
from pathlib import Path

import pytest


def test_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["prodgeo"]
    module, _, attribute = target.partition(":")
    obj = importlib.import_module(module)
    for name in attribute.split("."):
        obj = getattr(obj, name)
    assert callable(obj)
