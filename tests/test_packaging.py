"""The installed package: its console script, its exports and the README example.

These tests import ``prodgeo`` from wherever Python finds it, so they also
run against an installed package from outside the source tree.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import prodgeo

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(prodgeo.__file__).resolve().parent


def _modules_with_all():
    modules = [importlib.import_module(f"prodgeo.{info.name}")
               for info in pkgutil.iter_modules(prodgeo.__path__)]
    return [module for module in modules if hasattr(module, "__all__")]


def test_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = ROOT / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["prodgeo"]
    module, _, attribute = target.partition(":")
    obj = importlib.import_module(module)
    for name in attribute.split("."):
        obj = getattr(obj, name)
    assert callable(obj)


def _cli_process() -> tuple[list[str], dict]:
    """The command and environment of a CLI process on the prodgeo imported
    here: the ``prodgeo`` script on PATH if that is an installation, else
    this Python running ``prodgeo.cli`` from the directory that holds it."""
    if {"site-packages", "dist-packages"} & set(PACKAGE.parts):
        script = shutil.which("prodgeo")
        assert script, f"prodgeo is installed at {PACKAGE}, but no prodgeo script is on PATH"
        return [script], dict(os.environ)
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "prodgeo.cli"], dict(os.environ, PYTHONPATH=path)


# every corpus file under each corpus command, in one run each
PROCESS_RUNS = {command: [*argv, *map(str, corpus.inputs())] for command, argv in corpus.COMMANDS.items()}
PROCESS_RUNS["catalog-list"] = ["catalog", "list"]


@pytest.mark.parametrize("argv", PROCESS_RUNS.values(), ids=PROCESS_RUNS.keys())
def test_a_cli_process_prints_what_the_cli_prints_in_process(argv):
    command, env = _cli_process()
    done = subprocess.run([*command, *argv], env=env, capture_output=True, encoding="utf-8")
    assert (done.returncode, done.stdout, done.stderr) == corpus.run(argv)


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


# the modules of the pipeline: parse, build the geometry, classify, run the
# lemmas and T2-T4, render
PIPELINE = ["ambient", "calculus", "catalog", "cli", "expr", "jets", "rng", "scenario",
            "subgeom", "theorems", "verify"]
# names the test-suite holds or that are gone, by the module that held them;
# the finite-difference oracle was a module of its own
NOT_SHIPPED = {
    "ambient": ["leading_minors", "positive_definite"],
    "catalog": ["rotation_structure_space", "position_reflection_space",
                "constant_reflection_space", "corrupted_lemma_case"],
    "cli": ["build_document", "_entry", "run_loaded", "run_catalog_scenario"],
    "jets": ["lift_constant", "seed_variable", "as_jet", "einsum", "partial", "array", "stack", "_align"],
    "subgeom": ["PointRecords", "PointClassification", "ClassificationPoints",
                "is_minimal", "is_pseudo_umbilical", "pseudo_umbilical_gap"],
    "theorems": ["TheoremPoints", "TheoremPointRecord"],
}
ORACLE = ["FDConfig", "fd_derivative", "fd_second", "fd_third", "fd_directional"]


def test_package_ships_only_the_pipeline():
    assert sorted(info.name for info in pkgutil.iter_modules(prodgeo.__path__)) == PIPELINE
    for module, names in NOT_SHIPPED.items():
        module = importlib.import_module(f"prodgeo.{module}")
        assert [name for name in names if hasattr(module, name)] == [], module.__name__
    gone = ORACLE + ["oracle"] + [name for names in NOT_SHIPPED.values() for name in names]
    assert [name for name in gone if hasattr(prodgeo, name)] == []


def test_jets_carry_only_what_the_build_reads():
    # the test references index, contract and differentiate through tests/taylor.py
    from prodgeo.jets import Jet, _Algebra

    gone = ["swapaxes", "__getitem__", "__iter__", "__len__", "coefficient", "derivative", "__pos__"]
    assert [name for name in gone if hasattr(Jet, name)] == []
    # bench/layers.py counts jet products and truncations through these
    for owner, name in ((Jet, "truncate"), (Jet, "__mul__"), (Jet, "__rmul__"), (_Algebra, "mul_table")):
        assert callable(getattr(owner, name, None)), name


def test_package_imports_name_existing_objects():
    tree = ast.parse(Path(prodgeo.__file__).read_text(encoding="utf-8"))
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


def test_no_module_imports_the_package_by_its_absolute_name():
    # every import inside the package is relative, so two source trees can be
    # loaded side by side under two package names and timed against each
    # other in one process
    absolute = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            absolute += [(path.name, name) for name in names if name.split(".")[0] == "prodgeo"]
    assert len(list(PACKAGE.glob("*.py"))) == len(PIPELINE) + 1  # with __init__.py
    assert absolute == []


def test_readme_python_example_runs(capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "generic" in out
    assert "[1, 1, 0]" in out.splitlines()  # the rank line, as its comment says
