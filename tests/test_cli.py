"""Scenario files and the command-line driver."""

import collections
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import prodgeo
from prodgeo.catalog import catalog_get, catalog_list, flat_product, random_trig_immersion
from prodgeo import cli
from prodgeo.cli import dump_json, main, render_json, render_text
from prodgeo.ambient import AmbientValidationFailure
from prodgeo.scenario import (
    DimensionMismatch,
    _ambient_space,
    ScenarioError,
    export_scenario,
    load_scenario,
    loads_scenario,
    scenario_text,
)
from prodgeo.subgeom import Immersion, classify, point_geometry
from prodgeo.verify import THEOREMS, Tolerances, verify

from controls import BLOCK_MIXING_CHART, BLOCK_MIXING_STANDARD, corrupted_lemma_case
from grids import seed_one_grids

CORRUPTED = """
[ambient]
mode = explicit
dim = 2
metric = 1, 0; 0, 1
structure = cos(x1), sin(x1); sin(x1), -cos(x1)

[immersion]
n = 1
map = cos(u1), sin(u1)
label = corrupted

[samples]
points = (0.5,); (1.2,); (2.0,)
"""

# a surface of codimension 2 where the first block's reflection turns with
# x1: not locally product, with O(1) residuals of both lemmas at every sample
ROTATING_STRUCTURE = """
[ambient]
mode = explicit
dim = 4
metric = 1, 0, 0, 0; 0, 1, 0, 0; 0, 0, 1, 0; 0, 0, 0, 1
structure = cos(x1), sin(x1), 0, 0; sin(x1), -cos(x1), 0, 0; 0, 0, 1, 0; 0, 0, 0, -1

[immersion]
n = 2
map = cos(u1) + 0.2 * u2, sin(u1), 0.5 * u1 + u2, 0.3 * sin(2 * u1) * u2
label = rotating-structure

[samples]
points = (0.5, 0.1); (1.2, -0.3); (2.0, 0.7)
"""

# F is NaN (0 * inf) at the image of 1.0: nothing there to verify
NONFINITE_STRUCTURE = """
[ambient]
mode = explicit
dim = 2
metric = 1, 0; 0, 1
structure = 1, 0*exp(1000*x1); 0, -1

[immersion]
n = 1
map = u1, 0.5*u1
label = nonfinite-structure

[samples]
points = (0.1,); (1.0,)
"""

# a finite metric whose derivative overflows at the image of 1.01
NONFINITE_METRIC_DERIVATIVE = NONFINITE_STRUCTURE.replace(
    "metric = 1, 0; 0, 1", "metric = 1 + 1e-10*exp(700*x1), 0; 0, 1"
).replace("structure = 1, 0*exp(1000*x1); 0, -1", "structure = 1, 0; 0, -1").replace(
    "(1.0,)", "(1.01,)")

ROTATION = """
[ambient]
mode = explicit
dim = 2
metric = 1, 0; 0, 1
structure = 0, -1; 1, 0

[immersion]
n = 1
map = cos(u1), sin(u1)
label = rot

[samples]
points = (0.5,)
"""


def test_loads_catalog_export_roundtrip(tmp_path):
    scn = catalog_get("circle")
    path = tmp_path / "circle.ini"
    export_scenario(path, scn)
    loaded = load_scenario(path)
    assert loaded.label == "circle"
    assert loaded.samples == scn.samples
    assert loaded.immersion.components == scn.immersion.components
    assert loaded.space.metric == scn.space.metric
    assert loaded.space.structure == scn.space.structure


def test_roundtrip_preserves_verification_bit_for_bit(tmp_path):
    for label in ("circle", "curved-block", "square-torus-rotated"):
        scn = catalog_get(label)
        path = tmp_path / f"{label}.ini"
        export_scenario(path, scn)
        loaded = load_scenario(path)
        direct = render_json(verify(scn.space, scn.immersion, scn.samples))
        from_file = render_json(verify(loaded.space, loaded.immersion, loaded.samples,
                                       loaded.tolerances))
        assert direct == from_file, label


def test_missing_section_and_keys():
    with pytest.raises(ScenarioError):
        loads_scenario("[ambient]\nmode = product\n")
    with pytest.raises(ScenarioError):
        loads_scenario("[immersion]\nn = 1\n")


REFLECTION_CIRCLE = {
    "ambient": "mode = explicit\ndim = 2\nmetric = 1, 0; 0, 1\nstructure = 1, 0; 0, -1",
    "immersion": "n = 1\nmap = cos(u1), sin(u1)\nlabel = circle",
    "samples": "points = (0.5,); (1.2,)",
}
PRODUCT = "mode = product\np = 1\nq = 1\nblockA_metric = flat\nblockB_metric = flat"


def _malformed(section, body):
    """The reflection circle with one section's body replaced (None drops it)."""
    sections = dict(REFLECTION_CIRCLE, **{section: body})
    return "".join(f"[{name}]\n{text}\n\n" for name, text in sections.items() if text is not None)


MALFORMED = {
    "non-square-matrix": ("ambient", REFLECTION_CIRCLE["ambient"].replace("0; 0, 1", "0; 0")),
    "bad-mode": ("ambient", "mode = hyperbolic"),
    "non-integer-block-size": ("ambient", PRODUCT.replace("p = 1", "p = one")),
    "missing-key": ("ambient", PRODUCT.replace("blockB_metric = flat", "")),
    "unparsable-metric": ("ambient", PRODUCT.replace("A_metric = flat", "A_metric = 1 +")),
    "missing-immersion": ("immersion", None),
    "unknown-variable": ("immersion", "n = 1\nmap = cos(v1), sin(u1)"),
    "not-a-proper-submanifold": ("immersion", "n = 2\nmap = u1, u2"),
    "missing-samples": ("samples", None),
    "no-sample-form": ("samples", "label = nothing"),
    "two-sample-forms": ("samples", "points = (0.5,)\ngrid = u1: 0 : 1 : 3"),
    "duplicate-key": ("samples", "points = (0.5,)\npoints = (1.2,)"),
    "unparenthesized-point": ("samples", "points = 0.5"),
    "non-numeric-point": ("samples", "points = (a,)"),
    "empty-points": ("samples", "points = ;"),
    "grid-axis-fields": ("samples", "grid = u1: 0 : 1"),
    "grid-axis-count": ("samples", "grid = u1: 0 : 1 : many"),
    "grid-axis-empty": ("samples", "grid = u1: 0 : 1 : 0"),
    "grid-axis-twice": ("samples", "grid = u1: 0 : 1 : 2; u1: 5 : 6 : 3"),
    "random-token": ("samples", "random = count=3 seed=1 box=(0,1) wide"),
    "random-missing-key": ("samples", "random = count=3 box=(0,1)"),
    # each spec key once, and no other key
    "random-unknown-key": ("samples", "random = count=2 seed=1 box=(0,1) cuont=3"),
    "random-repeated-key": ("samples", "random = count=2 seed=1 seed=2 box=(0,1)"),
    "random-count-not-integer": ("samples", "random = count=three seed=1 box=(0,1)"),
    "random-count-zero": ("samples", "random = count=0 seed=1 box=(0,1)"),
    "random-count-negative": ("samples", "random = count=-2 seed=1 box=(0,1)"),
    "box-ranges": ("samples", "random = count=2 seed=1 box=(0,1)x(0,1)"),
    "grid-axis-names": ("samples", "grid = u2: 0 : 1 : 3"),
    "box-brackets": ("samples", "random = count=3 seed=1 box=[0,1]"),
    "box-three-bounds": ("samples", "random = count=3 seed=1 box=(0,1,2)"),
    "box-non-numeric": ("samples", "random = count=3 seed=1 box=(a,b)"),
    "nested-parentheses": ("immersion", "n = 1\nmap = " + "(" * 1000 + "cos(u1)" + ")" * 1000 + ", sin(u1)"),
    "long-sum": ("immersion", "n = 1\nmap = cos(u1)" + " + u1" * 1499 + ", sin(u1)"),
    "leading-minus-signs": ("immersion", "n = 1\nmap = " + "-" * 1200 + "cos(u1), sin(u1)"),
    "deep-block-metric": ("ambient", PRODUCT.replace("A_metric = flat", "A_metric = 1" + " + 0*x1" * 1499)),
    "arabic-indic-digit": ("immersion", "n = 1\nmap = \u0663 * u1, sin(u1)"),
    "fullwidth-digit": ("immersion", "n = 1\nmap = cos(u1), \uff11+u1"),
    # every other number is ASCII too, without digit-group underscores
    "arabic-indic-block-size": ("ambient", PRODUCT.replace("p = 1", "p = \u0661")),
    "arabic-indic-dimension": ("immersion", "n = \u0661\nmap = cos(u1), sin(u1)"),
    "arabic-indic-point": ("samples", "points = (\u0663,)"),
    "underscored-point": ("samples", "points = (1_0,)"),
    "fullwidth-point": ("samples", "points = (\uff11.0,)"),
    "empty-leading-entry": ("samples", "points = (,1)"),
    "empty-inner-entry": ("samples", "points = (1,,)"),
    "arabic-indic-grid-axis": ("samples", "grid = u1: 0 : \u0663 : \u0663"),
    "arabic-indic-random-count": ("samples", "random = count=\u0663 seed=1 box=(0,1)"),
    "underscored-random-seed": ("samples", "random = count=3 seed=1_0 box=(0,1)"),
    "arabic-indic-box-bound": ("samples", "random = count=3 seed=1 box=(0,\u0661)"),
    "underscored-tolerance": ("tolerances", "identity_tol = 1_0e-8"),
    "arabic-indic-tolerance": ("tolerances", "identity_tol = \u0661e-8"),
    # a key that its section does not read is an error, not ignored
    "misspelt-tolerance-key": ("tolerances", "identity_to1 = 1e-3"),
    "structure-in-product-mode": ("ambient", PRODUCT + "\nstructure = 0, -1; 1, 0"),
    "product-key-in-explicit-mode": ("ambient", REFLECTION_CIRCLE["ambient"] + "\np = 1"),
    "unread-immersion-key": ("immersion", REFLECTION_CIRCLE["immersion"] + "\nlable = x"),
    "unread-samples-key": ("samples", "points = (0.5,)\nseed = 3"),
    "unknown-section": ("notes", "author = someone"),
    # an empty list entry, a trailing one included, is an error, not skipped
    "empty-matrix-entry": ("ambient", REFLECTION_CIRCLE["ambient"].replace("= 1, 0; 0, 1", "= 1,, 0; 0, 1")),
    "empty-map-component": ("immersion", "n = 1\nmap = cos(u1),, sin(u1)"),
    "empty-point": ("samples", "points = (0.5,);; (1.0,)"),
    "trailing-point-separator": ("samples", "points = (0.5,); (1.0,);"),
    # a component's syntax error is found before the component count
    "syntax-error-in-one-component": ("immersion", "n = 1\nmap = cos(u1) . sin(u1)"),
    "one-component": ("immersion", "n = 1\nmap = cos(u1)"),
    "unbalanced-parentheses": ("immersion", "n = 1\nmap = cos(u1, sin(u1)"),
    # dimensions and names the loaders check
    "no-parameters": ("immersion", "n = 0\nmap = cos(u1), sin(u1)"),
    "empty-block": ("ambient", PRODUCT.replace("p = 1", "p = 0")),
    "metric-smaller-than-dim": ("ambient", REFLECTION_CIRCLE["ambient"].replace("dim = 2", "dim = 3")),
    "unbound-metric-variable": ("ambient", REFLECTION_CIRCLE["ambient"].replace("metric = 1,", "metric = 1 + y1^2,")),
    "unbound-block-variable": ("ambient", PRODUCT.replace("A_metric = flat", "A_metric = 1 + y1^2")),
    "parameter-in-a-block": ("ambient", PRODUCT.replace("A_metric = flat", "A_metric = 1 + u1^2")),
    # structural errors name the section open at their line
    "line-without-delimiter": ("immersion", REFLECTION_CIRCLE["immersion"] + "\nfoo"),
    "repeated-section": ("samples", "points = (0.5,)\n\n[samples]\nlabel = again"),
    # [DEFAULT] is an ordinary section, whose keys are not read
    "default-section": ("DEFAULT", "identity_tol = 1e-3"),
}


@pytest.mark.parametrize("section, body", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_scenario_names_its_section(section, body, capsys, tmp_path):
    text = _malformed(section, body)
    with pytest.raises(ScenarioError, match=rf"^\[{section}\] "):
        loads_scenario(text)
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: [{section}] "), err


STRUCTURAL_ERRORS = {  # a scenario text and the one line of its error
    "line-without-delimiter": (_malformed(*MALFORMED["line-without-delimiter"]),
                               "[immersion] line 11: 'foo' is not 'key = value'"),
    "text-before-the-first-header": ("foo # a note\n" + _malformed("samples", "points = (0.5,)"),
                                     "line 1: text before the first section header 'foo'"),
    "repeated-section": (_malformed(*MALFORMED["repeated-section"]),
                         "[samples] line 15: section is repeated"),
    "repeated-key": (_malformed(*MALFORMED["duplicate-key"]),
                     "[samples] line 14: key 'points' is repeated"),
    "empty-key": (_malformed("samples", "points = (0.5,)\n= 1"),
                  "[samples] line 14: '= 1' is not 'key = value'"),
    "text-after-a-header": (_malformed("samples", "points = (0.5,)").replace("[samples]", "[samples] x"),
                            "[immersion] line 12: text after the section header '[samples] x'"),
}


@pytest.mark.parametrize("text, message", STRUCTURAL_ERRORS.values(), ids=STRUCTURAL_ERRORS.keys())
def test_structural_error_is_one_line_naming_its_line(text, message, capsys, tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_scenario_files_are_utf8_whatever_the_locale(tmp_path):
    """Export and load name their encoding: under -X warn_default_encoding
    an implicit locale encoding is an EncodingWarning, here an error."""
    env = dict(os.environ, PYTHONPATH=str(Path(prodgeo.__file__).resolve().parent.parent))
    python = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
              "-m", "prodgeo.cli"]
    for argv in (["catalog", "export", "circle", "x.ini"], ["classify", "x.ini"]):
        done = subprocess.run(python + argv, cwd=tmp_path, env=env, capture_output=True,
                              encoding="utf-8")
        assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("case, message", [("random-unknown-key", "'cuont' is not read"),
                                           ("random-repeated-key", "'seed' is repeated")])
def test_random_spec_key_error_names_the_key(case, message):
    with pytest.raises(ScenarioError, match=f"^\\[samples\\] random spec key {message}$"):
        loads_scenario(_malformed(*MALFORMED[case]))


@pytest.mark.parametrize("case, message", [
    ("syntax-error-in-one-component", "unexpected character '.' (offset 8)"),
    ("one-component", "map has 1 component but the ambient dimension is 2"),
    ("unbalanced-parentheses", "unexpected character ',' (offset 6)"),
])
def test_map_error_names_the_first_fault(case, message, capsys, tmp_path):
    path = tmp_path / "map.ini"
    path.write_text(_malformed(*MALFORMED[case]), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out, err) == (2, "", f"error: [immersion] {message}\n")


# each loader's own check, in its own words; a name that is not a coordinate of
# the chart is unbound in either mode, and only the other block's coordinates
# leak out of a product block
@pytest.mark.parametrize("case, message", [
    ("grid-axis-names", "grid axes ['u2'] do not match parameters ['u1']"),
    ("box-ranges", "box has 2 ranges, expected 1"),
    ("no-parameters", "parametric dimension must be at least 1"),
    ("empty-block", "both product blocks need positive dimension"),
    ("metric-smaller-than-dim", "metric must be a 3x3 matrix of expressions"),
    ("unbound-metric-variable", "unbound variable 'y1'"),
    ("unbound-block-variable", "unbound variable 'y1'"),
    ("parameter-in-a-block", "unbound variable 'u1'"),
])
def test_scenario_error_states_its_fault(case, message, capsys, tmp_path):
    section, body = MALFORMED[case]
    path = tmp_path / "bad.ini"
    path.write_text(_malformed(section, body), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out, err) == (2, "", f"error: [{section}] {message}\n")


@pytest.mark.parametrize("key, digit", [("arabic-indic-digit", "\u0663"), ("fullwidth-digit", "\uff11")])
def test_cli_non_ascii_digit_is_an_unexpected_character(key, digit, capsys, tmp_path):
    path = tmp_path / "digit.ini"
    path.write_text(_malformed(*MALFORMED[key]), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [immersion] unexpected character {digit!r} (offset 0)\n"


def test_dimension_mismatch_names_section():
    text = """
[ambient]
mode = product
p = 2
q = 2
blockA_metric = flat
blockB_metric = flat

[immersion]
n = 1
map = cos(u1), sin(u1), cos(u1)
label = bad

[samples]
points = (0.5,)
"""
    with pytest.raises(DimensionMismatch) as err:
        loads_scenario(text)
    assert "immersion" in str(err.value)


def test_sample_arity_checked():
    text = CORRUPTED.replace("(0.5,); (1.2,); (2.0,)", "(0.5, 1.0)")
    with pytest.raises(DimensionMismatch):
        loads_scenario(text)


def test_declared_dim_checked():
    text = """
[ambient]
mode = product
dim = 3
p = 1
q = 1
blockA_metric = flat
blockB_metric = flat

[immersion]
n = 1
map = u1, u1
label = x

[samples]
points = (0.0,)
"""
    with pytest.raises(DimensionMismatch):
        loads_scenario(text)


def _verify_strictly(text):
    loaded = loads_scenario(text)
    return verify(loaded.space, loaded.immersion, loaded.samples, strict=True)


def test_ambient_validation_failure_and_force():
    with pytest.raises(AmbientValidationFailure):
        _verify_strictly(CORRUPTED)
    loaded = loads_scenario(CORRUPTED)
    assert not verify(loaded.space, loaded.immersion, loaded.samples).ambient_report.passed
    with pytest.raises(AmbientValidationFailure) as err:
        _verify_strictly(ROTATION)
    assert "F^2-I" in str(err.value)


@pytest.mark.parametrize("block, reasons", [
    ("1e308 * 10 + x1 * 0, 0; 0, 1", "(metric not positive definite, non-finite residuals)"),
    ("-1 + x1 * 0, 0; 0, 1", "(metric not positive definite)"),
])
def test_ambient_validation_failure_states_its_reason(block, reasons):
    scn = catalog_get("rect-torus")
    text = scenario_text(scn.space, scn.immersion, scn.samples, label="rect-torus")
    lines = [f"blockA_metric = {block}" if line.startswith("blockA_metric") else line
             for line in text.splitlines()]
    with pytest.raises(AmbientValidationFailure) as err:
        _verify_strictly("\n".join(lines))
    assert str(err.value).startswith(f"ambient validation failed {reasons}: F^2-I residual")


def test_grid_sampling():
    text = """
[ambient]
mode = product
p = 2
q = 2
blockA_metric = flat
blockB_metric = flat

[immersion]
n = 2
map = cos(u1), sin(u1), cos(u2), sin(u2)
label = torus

[samples]
grid = u1: 0 : 1 : 3; u2: 2 : 3 : 2
"""
    loaded = loads_scenario(text)
    assert loaded.samples == (
        (0.0, 2.0), (0.0, 3.0), (0.5, 2.0), (0.5, 3.0), (1.0, 2.0), (1.0, 3.0),
    )


def test_random_sampling_is_seeded_and_overridable():
    text = """
[ambient]
mode = product
p = 1
q = 1
blockA_metric = flat
blockB_metric = flat

[immersion]
n = 1
map = cos(u1), sin(u1)
label = c

[samples]
random = count=3 seed=42 box=(0,6)
"""
    a = loads_scenario(text)
    b = loads_scenario(text)
    assert a.samples == b.samples
    c = loads_scenario(text, seed_override=43)
    assert c.samples != a.samples
    assert all(0.0 <= u[0] < 6.0 for u in a.samples)


def test_tolerances_parsed_with_defaults():
    loaded = loads_scenario(CORRUPTED + "\n[tolerances]\nidentity_tol = 1e-7\n")
    assert loaded.tolerances == Tolerances(identity_tol=1e-7)
    # a file that still sets the removed third key loads and verifies the same
    legacy = loads_scenario(
        CORRUPTED + "\n[tolerances]\nidentity_tol = 1e-7\nfail_threshold = 1e-3\n"
    )
    assert legacy.tolerances == loaded.tolerances
    outcomes = [verify(scn.space, scn.immersion, scn.samples, scn.tolerances)
                for scn in (legacy, loaded)]
    assert render_json(outcomes[0]) == render_json(outcomes[1])


@pytest.mark.parametrize("key", ["identity_tol", "classify_tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_bad_file_tolerance_is_rejected(key, value, capsys, tmp_path):
    scn = catalog_get("circle")
    text = scenario_text(scn.space, scn.immersion, scn.samples).replace(
        f"{key} = 1e-08", f"{key} = {value}"
    )
    with pytest.raises(ScenarioError, match=r"^\[tolerances\] " + key):
        loads_scenario(text)
    path = tmp_path / "c.ini"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--all", str(path))
    assert code == 2 and out == ""
    assert "[tolerances]" in err


def test_scenario_text_is_reparseable():
    scn = catalog_get("curved-block")
    text = scenario_text(scn.space, scn.immersion, scn.samples)
    loaded = loads_scenario(text)
    assert loaded.space.metric == scn.space.metric


@pytest.mark.parametrize("label, carried", [
    ("torus #2", False), (" padded ", False), ("multi\nline", False), ("torus-2 (v1)", True),
])
def test_scenario_text_refuses_labels_that_do_not_round_trip(label, carried):
    # an inline comment, stripped whitespace and a line break would each load
    # back as another label or not at all; any other label round-trips
    scn = catalog_get("circle")
    if carried:
        text = scenario_text(scn.space, scn.immersion, scn.samples, label=label)
        assert loads_scenario(text).label == label
    else:
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            scenario_text(scn.space, scn.immersion, scn.samples, label=label)


# ---- command level ----------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert "circle" in out.splitlines()
    assert len(out.splitlines()) == 10


def test_cli_catalog_run_consistent(capsys):
    code, out, _ = run_cli(capsys, "catalog", "run", "square-torus-aligned")
    assert code == 0
    assert "classification: invariant" in out
    assert "CONSISTENT" in out


def test_cli_check_rect_torus_skip_is_not_failure(capsys, tmp_path):
    export_scenario(tmp_path / "rect.ini", catalog_get("rect-torus"))
    code, out, _ = run_cli(capsys, "check", "--theorems", str(tmp_path / "rect.ini"))
    assert code == 0
    assert "skipped at 3 non-pseudo-umbilical point(s)" in out


def test_cli_classify_circle(capsys, tmp_path):
    export_scenario(tmp_path / "c.ini", catalog_get("circle"))
    code, out, _ = run_cli(capsys, "classify", str(tmp_path / "c.ini"))
    assert code == 0
    assert "classification: generic" in out
    table = [line for line in out.splitlines() if line.startswith("(0")]
    assert len(table) == 3


def test_cli_check_json_deterministic(capsys, tmp_path):
    export_scenario(tmp_path / "s.ini", catalog_get("sphere"))
    code1, out1, _ = run_cli(capsys, "check", "--all", "--format", "json", str(tmp_path / "s.ini"))
    code2, out2, _ = run_cli(capsys, "check", "--all", "--format", "json", str(tmp_path / "s.ini"))
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdicts"]["classification"] == "generic"
    assert doc["verdicts"]["t2"]["biconditional_consistent"] is True
    assert doc["points"][0]["residuals"]["t2"]["identity"] == pytest.approx(1.0, abs=1e-6)


def test_cli_corrupted_exit_codes(capsys, tmp_path):
    path = tmp_path / "corrupt.ini"
    path.write_text(CORRUPTED, encoding="utf-8")
    code, _, err = run_cli(capsys, "check", "--all", str(path))
    assert code == 2
    assert "ambient validation" in err
    code, out, _ = run_cli(capsys, "check", "--all", "--force", str(path))
    assert code == 3
    assert "FAILED" in out


def test_cli_rotating_structure_exit_codes(capsys, tmp_path):
    path = tmp_path / "rotating.ini"
    path.write_text(ROTATING_STRUCTURE, encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "ambient validation" in err
    code, out, _ = run_cli(capsys, "check", "--all", "--force", str(path))
    assert code == 3
    assert "FAILED" in out
    code, out, _ = run_cli(capsys, "report", "--format", "json", "--force", str(path))
    assert code == 3
    doc = json.loads(out)
    for p in doc["points"]:
        assert p["residuals"]["lemma1"] > 0.1 and p["residuals"]["lemma2"] > 0.1


def test_check_all_evaluates_the_curved_tables_once(capsys, tmp_path, monkeypatch):
    # the geometry build's one plan serves the ambient validation too
    loaded = []

    def loading(path, **options):
        loaded.append(load_scenario(path, **options))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_scenario", loading)
    path = tmp_path / "cb.ini"
    export_scenario(path, catalog_get("curved-block"))
    code, _, _ = run_cli(capsys, "check", "--all", str(path))
    assert code == 0
    assert set(loaded[0].space._plans) == {("metric", "structure", "metric_diff", "structure_diff")}


def test_block_mixing_chart_gives_the_verdicts_of_the_standard_chart(capsys, tmp_path):
    # the same surface in flat R^2 x R^2, written in a chart where F varies
    # and in the standard chart where it is constant
    docs = []
    for name, text in (("chart", BLOCK_MIXING_CHART), ("standard", BLOCK_MIXING_STANDARD)):
        path = tmp_path / f"{name}.ini"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "report", "--format", "json", str(path))
        assert code == 0, name
        docs.append(json.loads(out))
    chart, standard = docs
    assert chart["ambient_validation"]["passed"]
    assert not chart["ambient_validation"]["f_is_identity"]
    for lemma in ("lemma1", "lemma2"):
        assert chart["verdicts"][lemma]["max_residual"] <= 1e-12, lemma
        del chart["verdicts"][lemma]["max_residual"], standard["verdicts"][lemma]["max_residual"]
    assert chart["verdicts"] == standard["verdicts"]
    for key in ("rank_phi", "flags"):
        assert [p[key] for p in chart["points"]] == [p[key] for p in standard["points"]], key


CURVED_CIRCLE = """
[ambient]
mode = product
p = 1
q = 1
blockA_metric = {}
blockB_metric = flat

[immersion]
n = 1
map = cos(u1), sin(u1)

[samples]
points = (0.5,); (2.0,)
"""

COMMANDS = (["classify"], ["check", "--all"], ["report", "--format", "json"])


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_failed_validation_wins_over_a_singular_metric(command, capsys, tmp_path):
    # 2 + 1/x1 is negative at the image of 2.0, where x1 = cos(2.0) < 0
    path = tmp_path / "singular.ini"
    path.write_text(CURVED_CIRCLE.format("2 + 1/x1"), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(
        "ambient validation: ambient validation failed (metric not positive definite)"
    ), err
    code, out, err = run_cli(capsys, *command, "--force", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: ambient metric is not positive definite along the immersion "
        "at u = (2.0,), x = (-0.4161468365471424, 0.9092974268256817)\n"
    )


@pytest.mark.parametrize("command", [["classify"], ["check", "--all"]], ids=" ".join)
def test_cli_non_finite_tables_are_errors_under_force(command, capsys, tmp_path):
    # a non-finite structure fails the validation even with --force, and a
    # non-finite metric derivative is a singular metric naming the point;
    # neither warns nor reaches the verdicts
    path = tmp_path / "tables.ini"
    path.write_text(NONFINITE_STRUCTURE, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *command, "--force", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("ambient validation: ambient validation failed (non-finite residuals)"), err
    assert "SVD" not in err
    path.write_text(NONFINITE_METRIC_DERIVATIVE, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *command, "--force", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: ambient metric derivative is not finite along the immersion "
        "at u = (1.01,), x = (1.01, 0.505)\n"
    )


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["strict", "force"])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_domain_error_in_a_table_names_the_image_point(command, force, capsys, tmp_path):
    path = tmp_path / "sqrt.ini"
    path.write_text(CURVED_CIRCLE.format("1 + sqrt(x1)"), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, *force, str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: sqrt needs a non-negative value, got -0.4161468365471424 "
        "at x = (-0.4161468365471424, 0.9092974268256817)\n"
    )


# a metric that overflows where x1 > 0.71 and a Jacobian of rank 1 where u2 = 0
OVERFLOW_AND_RANK = """
[ambient]
mode = product
p = 2
q = 1
blockA_metric = exp(1000 * x1), 0; 0, 1
blockB_metric = flat

[immersion]
n = 2
map = u1, u2^3, 0

[samples]
points = {}
"""


@pytest.mark.parametrize("points, message", [
    # both checks fail at one point: the metric is reported
    ("(1.01, 0.0)",
     "ambient metric is not finite along the immersion at u = (1.01, 0.0), x = (1.01, 0.0, 0.0)"),
    # each fails at its own point: the first failing point is reported
    ("(0.5, 0.0); (1.01, 0.3)",
     "Jacobian rank < 2 at u = (0.5, 0.0) (smallest singular value 0.000e+00)"),
    ("(1.01, 0.3); (0.5, 0.0)",
     "ambient metric is not finite along the immersion at u = (1.01, 0.3), x = (1.01, 0.027, 0.0)"),
], ids=["one-point", "rank-first", "metric-first"])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_reports_the_first_failing_point_and_its_first_failed_check(
        command, points, message, capsys, tmp_path):
    path = tmp_path / "overflow-and-rank.ini"
    path.write_text(OVERFLOW_AND_RANK.format(points), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, "--force", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_usage_errors(capsys):
    code, _, err = run_cli(capsys, "bogus")
    assert code == 1
    code, _, err = run_cli(capsys)
    assert code == 1
    code, _, err = run_cli(capsys, "catalog", "export", "circle")
    assert code == 1
    code, _, err = run_cli(capsys, "catalog", "run", "not-a-scenario")
    assert code == 2
    code, out, err = run_cli(capsys, "catalog", "run")
    assert (code, out, err) == (1, "", "usage error: catalog run needs a scenario label\n")


def test_cli_catalog_list_rejects_a_label(capsys):
    code, out, err = run_cli(capsys, "catalog", "list", "circle")
    assert (code, out) == (1, "")
    assert err == "usage error: catalog list takes no scenario label\n"


@pytest.mark.parametrize("action", [("run",), ("export", "out.ini")], ids=lambda a: a[0])
def test_cli_unknown_scenario_names_the_known_labels(action, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "catalog", action[0], "nosuch", *action[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown scenario 'nosuch'; known: ")
    assert err.endswith("\n") and err.count("\n") == 1
    assert set(catalog_list()) <= set(err.split("known: ")[1][:-1].split(", "))
    assert not list(tmp_path.iterdir())


def test_cli_catalog_run_rejects_an_extra_argument(capsys):
    code, out, err = run_cli(capsys, "catalog", "run", "circle", "extra")
    assert (code, out) == (1, "")
    assert err == "usage error: catalog run takes no destination path\n"


def test_cli_report_text_uses_six_significant_digits(capsys, tmp_path):
    export_scenario(tmp_path / "c.ini", catalog_get("circle"))
    code, out, _ = run_cli(capsys, "report", str(tmp_path / "c.ini"))
    assert code == 0
    assert "0.707107" in out  # 6 significant digits
    assert "0.7071067811" not in out


def test_cli_report_json_numbers_are_full_precision(capsys, tmp_path):
    export_scenario(tmp_path / "c.ini", catalog_get("circle"))
    code, out, _ = run_cli(capsys, "report", "--format", "json", str(tmp_path / "c.ini"))
    assert code == 0
    doc = json.loads(out)
    value = doc["points"][1]["residuals"]["t3"]["obstruction"]
    assert value == pytest.approx(0.7071067811865476, abs=1e-12)


def test_cli_seed_override_changes_random_samples(capsys, tmp_path):
    path = tmp_path / "r.ini"
    path.write_text(
        """
[ambient]
mode = product
p = 1
q = 1
blockA_metric = flat
blockB_metric = flat

[immersion]
n = 1
map = cos(u1), sin(u1)
label = c

[samples]
random = count=2 seed=7 box=(0,6)
""",
        encoding="utf-8",
    )
    _, out1, _ = run_cli(capsys, "report", "--format", "json", str(path))
    _, out2, _ = run_cli(capsys, "report", "--format", "json", str(path))
    _, out3, _ = run_cli(capsys, "report", "--format", "json", str(path), "--seed", "8")
    assert out1 == out2
    assert out1 != out3


def test_entry_points_agree_with_verify(capsys, tmp_path):
    # exact equality: classify and verify build the same order-2 geometry,
    # at 3 points or at 64
    cases = [catalog_get(label) for label in catalog_list()]
    cases = [(scn.space, scn.immersion) for scn in cases] + [corrupted_lemma_case()]
    cases += seed_one_grids()
    for space, imm in cases:
        outcome = verify(space, imm)
        assert classify(imm, space) == outcome.classification, imm.label
        path = tmp_path / "s.ini"
        path.write_text(scenario_text(space, imm, imm.samples), encoding="utf-8")
        code, out, _ = run_cli(capsys, "classify", "--force", str(path))
        classified = verify(space, imm, lemmas=False, theorems=False)
        assert classified.classification == outcome.classification, imm.label
        assert code == 0
        assert out == render_text(classified)


def _assert_same_point(batched, index, alone, where):
    """Point ``index`` of the columns ``batched`` against the one point of
    ``alone``: flags, ranks and branches equal; numbers within rtol 1e-9,
    atol 1e-12."""
    for name, column in batched.items():
        if isinstance(column, dict):  # the branches, a column each
            _assert_same_point(column, index, alone[name], where)
            continue
        a, b = column[index], alone[name][0]
        if isinstance(a, float) and isinstance(b, float):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (where, name, a, b)
        else:
            assert a == b, (where, name, a, b)


def test_batch_size_does_not_change_point_records():
    cases = [(scn.space, scn.immersion) for scn in map(catalog_get, catalog_list())]
    cases += [corrupted_lemma_case(), (flat_product(2, 2), random_trig_immersion(5, 6))]
    # a circle whose unit normal (cos u1, sin u1) turns from near e1 to e2
    circle = Immersion(1, ("cos(u1)", "sin(u1)"), samples=((0.3,), (math.pi / 2,), (1.0,)))
    cases.append((flat_product(1, 1), circle))
    # 64 points, where a stacked matmul may take another kernel than at 3
    cases += seed_one_grids()
    for space, imm in cases:
        batched = verify(space, imm)
        for index, u in enumerate(imm.samples):
            alone = verify(space, imm, [u])
            where = (imm.label, u)
            _assert_same_point(
                batched.classification.points, index, alone.classification.points, where
            )
            for lemma in ("lemma1", "lemma2"):
                _assert_same_point({lemma: batched.lemmas[lemma].residuals}, index,
                                   {lemma: alone.lemmas[lemma].residuals}, where)
            for key in ("t2", "t3", "t4"):
                _assert_same_point(
                    batched.theorems[key].points, index, alone.theorems[key].points, where
                )


def test_repeated_report_is_byte_identical():
    # the same document twice in one process: a product whose summation
    # order varied between calls would change the JSON's last digits
    for space, imm in seed_one_grids():
        first = render_json(verify(space, imm))
        assert render_json(verify(space, imm)) == first, imm.label


DOMAIN = """
[ambient]
mode = product
p = 2
q = 2
blockA_metric = flat
blockB_metric = flat

[immersion]
n = 2
map = {}

[samples]
points = (1.0, 0.5); (0.0, 0.3); (2.0, 1.0)
"""


@pytest.mark.parametrize("component, message", [
    ("sqrt(u1)", "sqrt needs a positive jet value, got 0.0"),
    ("u1^0.5", "fractional power needs a positive base value, got 0.0"),
    ("1 / u1", "division by zero"),
    # a negative base, first at the first sample, has the wording of a zero one
    ("(-2 + u1)^0.3", "fractional power needs a positive base value, got -1.0 at u = (1.0, 0.5)"),
])
def test_cli_domain_error_names_the_sample_point(component, message, capsys, tmp_path):
    path = tmp_path / "domain.ini"
    path.write_text(DOMAIN.format(f"{component}, u2, u1, u2"), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    if " at u = " not in message:  # the others fail first at the second sample
        message += " at u = (0.0, 0.3)"
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_domain_error_in_a_map_without_variables_names_every_u(command, capsys, tmp_path):
    path = tmp_path / "constant-map.ini"
    path.write_text(DOMAIN.format("1/0, sin(u1), u1, u2"), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err == "error: division by zero at every u\n"


@pytest.mark.parametrize("metric, message", [
    ("1/0", "division by zero"),
    ("sqrt(0-1)", "sqrt needs a non-negative value, got -1.0"),
])
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_domain_error_in_a_block_metric_without_variables_names_every_x(
    command, metric, message, capsys, tmp_path
):
    path = tmp_path / "constant-metric.ini"
    path.write_text(CURVED_CIRCLE.format(metric), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {message} at every x\n"


def test_cli_domain_error_in_a_constant_space_is_raised_on_every_load(capsys, tmp_path):
    # the space is shared by the second load, and its error is not kept
    path = tmp_path / "constant-metric.ini"
    path.write_text(CURVED_CIRCLE.format("1/0"), encoding="utf-8")
    _ambient_space.cache_clear()
    runs = [run_cli(capsys, "classify", str(path)) for _ in range(2)]
    assert runs == [(2, "", "error: division by zero at every x\n")] * 2
    assert _ambient_space.cache_info().hits == 1


def test_cli_one_degenerate_point_among_good_ones(capsys, tmp_path):
    path = tmp_path / "cusp.ini"
    path.write_text(DOMAIN.format("u1^3, u1^2, u2, u2"), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--all", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: Jacobian rank < 2 at u = (0.0, 0.3) (smallest singular value")


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "\u0661e-8", "1_0e-8", "\uff11e-8"])
def test_cli_bad_tol_is_usage_error(value, capsys, tmp_path):
    export_scenario(tmp_path / "c.ini", catalog_get("circle"))
    for command in ("check", "report"):
        code, out, err = run_cli(capsys, command, "--tol", value, str(tmp_path / "c.ini"))
        assert code == 1 and out == ""
        assert "usage error" in err and "--tol" in err


@pytest.mark.parametrize("value", ["three", "1.5", "\u0663", "1_0", "\uff13"])
def test_cli_bad_seed_is_usage_error(value, capsys, tmp_path):
    export_scenario(tmp_path / "c.ini", catalog_get("circle"))
    code, out, err = run_cli(capsys, "classify", "--seed", value, str(tmp_path / "c.ini"))
    assert (code, out) == (1, "")
    assert err == f"usage error: argument --seed: invalid int value: {value!r}\n"


def test_points_take_one_trailing_comma():
    loaded = loads_scenario(_malformed("samples", "points = (0.5,); (1.2 , ); ( 2.0 )"))
    assert loaded.samples == ((0.5,), (1.2,), (2.0,))


def test_cli_tol_override(capsys, tmp_path):
    export_scenario(tmp_path / "c.ini", catalog_get("circle"))
    code, out, _ = run_cli(
        capsys, "check", "--all", "--format", "json", "--tol", "1e-6", str(tmp_path / "c.ini")
    )
    assert code == 0
    assert json.loads(out)["tolerances"]["identity_tol"] == 1e-6


def test_cli_tol_moves_the_proof_skip_but_not_the_class_flags(capsys, tmp_path):
    # near the vertex of a paraboloid the pseudo-umbilical gap, 7.2e-5, lies
    # between classify_tol and --tol: the flag stays false at classify_tol,
    # while the proof residuals are evaluated at --tol
    paraboloid = Immersion(2, ("u1", "u2", "u1^2 + u2^2", "0"), label="paraboloid")
    space, samples = flat_product(2, 2), [(0.003, 0.0)]
    assert 1e-8 < point_geometry(paraboloid, space, samples[0]).pu_gap <= 1e-3
    path = tmp_path / "p.ini"
    path.write_text(scenario_text(space, paraboloid, samples), encoding="utf-8")
    for tol, skipped in ((["--tol", "1e-3"], 0), ([], 1)):
        code, out, _ = run_cli(capsys, "report", *tol, "--format", "json", str(path))
        doc = json.loads(out)
        assert code == 0, tol
        assert [p["flags"]["pseudo_umbilical"] for p in doc["points"]] == [False], tol
        for key in THEOREMS:
            proof = doc["points"][0]["residuals"][key]["proof"]
            assert (proof is not None) == (skipped == 0), (tol, key)
            assert doc["verdicts"][key]["proof_points_skipped"] == skipped, (tol, key)


def test_cli_catalog_export_then_check(capsys, tmp_path):
    path = tmp_path / "plane.ini"
    code, out, _ = run_cli(capsys, "catalog", "export", "plane-invariant", str(path))
    assert code == 0 and path.exists()
    code, out, _ = run_cli(capsys, "check", "--all", str(path))
    assert code == 0


def test_cli_overflowing_image_names_the_sample_point(capsys, tmp_path):
    path = tmp_path / "overflow.ini"
    text = DOMAIN.format("exp(800 * u1), u2, u1, u2")
    samples = "(0.1, 0.5); (1.0, 0.3); (0.2, 1.0)"  # exp(800) overflows at the second
    path.write_text(text.replace("(1.0, 0.5); (0.0, 0.3); (2.0, 1.0)", samples), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: immersion is not finite at u = (1.0, 0.3) (its value or a derivative overflows)\n"
    )


@pytest.mark.parametrize("command", [["classify"], ["check", "--all"]])
def test_cli_overflowing_induced_metric_names_the_sample_point(command, capsys, tmp_path):
    # the circle's Jacobian is finite, but g(T, T) ~ 1e310 is not
    path = tmp_path / "huge.ini"
    circle = Immersion(1, ("1e155*cos(u1)", "1e155*sin(u1)"), samples=((0.3,), (1.0,)))
    path.write_text(scenario_text(flat_product(1, 1), circle, circle.samples), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err == "error: induced metric is not finite at u = (0.3,)\n"


def test_cli_calls_back_to_back_match_fresh_runs(capsys, tmp_path):
    # the argument parser is built once per process; no call may see another's options
    path = str(tmp_path / "c.ini")
    export_scenario(path, catalog_get("circle"))
    sequence = [
        ["check", "--lemmas", "--tol", "1e-6", "--format", "json", path],
        ["check", path],
        ["classify", path],
        ["report", "--format", "json", path],
        ["catalog", "list"],
    ]
    back_to_back = [run_cli(capsys, *argv)[:2] for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    assert back_to_back == fresh
    assert [code for code, _ in fresh] == [0] * 5
    assert json.loads(fresh[0][1])["tolerances"]["identity_tol"] == 1e-6
    assert "tol 1.0e-08" in fresh[1][1]


def _several_files(tmp_path) -> dict:
    """rect-torus and square-torus-aligned (one [ambient] text), curved-block,
    a file that fails to load, and the corrupted space that fails its
    lemmas under --force."""
    paths = {}
    for label in ("rect-torus", "square-torus-aligned", "curved-block"):
        paths[label] = str(tmp_path / f"{label}.ini")
        export_scenario(paths[label], catalog_get(label))
    paths["unread"] = str(tmp_path / "unread.ini")
    Path(paths["unread"]).write_text(
        Path(paths["rect-torus"]).read_text(encoding="utf-8").replace("q = 2\n", "q = 2\nfoo = 1\n"),
        encoding="utf-8")
    paths["corrupt"] = str(tmp_path / "corrupt.ini")
    Path(paths["corrupt"]).write_text(CORRUPTED, encoding="utf-8")
    return paths


@pytest.mark.parametrize("command", [("classify",), ("check", "--all", "--force"),
                                     ("report", "--format", "json", "--seed", "3")],
                         ids=lambda c: c[0])
def test_cli_several_files_print_what_each_prints_alone(command, capsys, tmp_path):
    paths = _several_files(tmp_path)
    order = ["rect-torus", "unread", "square-torus-aligned", "curved-block", "rect-torus"]
    alone = []
    for label in order:
        _ambient_space.cache_clear()
        alone.append(run_cli(capsys, *command, paths[label]))
    assert [code for code, _, _ in alone] == [0, 2, 0, 0, 0]
    code, out, err = run_cli(capsys, *command, *map(paths.get, order))
    assert out == "".join(out for _, out, _ in alone)
    assert code == 2
    assert err == f"error: {paths['unread']}: [ambient] key 'foo' is not read in product mode\n"
    assert alone[1][2] == "error: [ambient] key 'foo' is not read in product mode\n"


def test_cli_several_files_exit_with_the_worst_code(capsys, tmp_path):
    paths = _several_files(tmp_path)
    runs = {("rect-torus", "curved-block"): 0, ("rect-torus", "corrupt"): 3,
            ("corrupt", "unread"): 2, ("unread", "corrupt", "rect-torus"): 2}
    for labels, expected in runs.items():
        code, out, err = run_cli(capsys, "check", "--all", "--force", *map(paths.get, labels))
        assert code == expected, labels
        assert out.count("overall: ") == len(labels) - ("unread" in labels)
    code, out, err = run_cli(capsys, "classify", paths["corrupt"], str(tmp_path / "none.ini"))
    assert (code, out) == (2, "")
    assert err.startswith(f"ambient validation: {paths['corrupt']}: ")
    assert err.splitlines()[1].startswith(f"error: {tmp_path / 'none.ini'}: [Errno 2] ")


def test_cli_several_files_build_each_space_once(capsys, tmp_path):
    paths = _several_files(tmp_path)
    _ambient_space.cache_clear()
    labels = ["rect-torus", "square-torus-aligned", "curved-block", "rect-torus"]
    code, out, _ = run_cli(capsys, "report", "--format", "json", *map(paths.get, labels))
    assert code == 0
    docs = [json.loads(doc + "\n}") for doc in out.split("\n}\n")[:-1]]
    assert [doc["scenario"]["label"] for doc in docs] == labels
    info = _ambient_space.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_cli_constant_metric_that_is_not_positive_definite_fails_every_file(capsys, tmp_path):
    # one shared constant space, validated once: each file still fails it, and
    # under --force names its own first sample and image
    paths = [tmp_path / "a.ini", tmp_path / "b.ini"]
    paths[0].write_text(CURVED_CIRCLE.format("-1"), encoding="utf-8")
    paths[1].write_text(CURVED_CIRCLE.format("-1").replace("(0.5,); (2.0,)", "(1.0,); (2.0,)"),
                        encoding="utf-8")
    _ambient_space.cache_clear()
    code, out, err = run_cli(capsys, "classify", *map(str, paths))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert [line.split(": ambient validation failed (metric not positive definite)")[0]
            for line in lines] == [f"ambient validation: {path}" for path in paths]
    code, out, err = run_cli(capsys, "classify", "--force", *map(str, paths))
    assert (code, out) == (2, "")
    assert err == "".join(
        f"error: {path}: ambient metric is not positive definite along the immersion "
        f"at u = ({u!r},), x = ({math.cos(u)!r}, {math.sin(u)!r})\n"
        for path, u in zip(paths, (0.5, 1.0))
    )
    assert _ambient_space.cache_info().misses == 1


# leading minors 6.19 and 6.9e-16, but a second Cholesky pivot of -1.1e-16:
# positive definite only within rounding, so the validation rejects it, and
# under --force the build's own factorization does, at the first sample
NEAR_SINGULAR = """
[ambient]
mode = product
p = 2
q = 1
blockA_metric = 6.192312603664413, -2.326448914762331; -2.326448914762331, 0.8740457563133945
blockB_metric = flat

[immersion]
n = 1
map = cos(u1), sin(u1), u1

[samples]
points = (0.5,); (2.0,)
"""


def test_cli_failed_validation_comes_before_the_metric_factorization(capsys, tmp_path):
    path = tmp_path / "near-singular.ini"
    path.write_text(NEAR_SINGULAR, encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path), str(path))
    assert (code, out) == (2, "")
    assert [line.split(": ambient validation failed (metric not positive definite)")[0]
            for line in err.splitlines()] == [f"ambient validation: {path}"] * 2
    code, out, err = run_cli(capsys, "classify", "--force", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: ambient metric is not positive definite along the immersion "
                   f"at u = (0.5,), x = ({math.cos(0.5)!r}, {math.sin(0.5)!r}, 0.5)\n")


def test_cli_several_files_stop_at_a_broken_pipe(capsys, tmp_path, monkeypatch):
    paths = _several_files(tmp_path)
    loaded = []
    load = cli.load_scenario

    def counted(path, **kwargs):
        loaded.append(path)
        return load(path, **kwargs)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "load_scenario", counted)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    labels = ["rect-torus", "square-torus-aligned", "curved-block"]
    code = main(["classify", *map(paths.get, labels)])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")
    assert loaded == [paths["rect-torus"]]


# ---- JSON rendering -----------------------------------------------------------


def _reference_json(obj, indent: int = 0) -> str:
    """The recursive serializer that defines the report's JSON format."""
    pad, pad_in = " " * indent, " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError("report numbers must be finite")
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        rows = [f'{pad_in}"{key}": {_reference_json(v, indent + 2)}' for key, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}" if rows else "{}"
    if isinstance(obj, (list, tuple)):
        rows = [f"{pad_in}{_reference_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]" if rows else "[]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _entry(fields, index: int):
    """Entry ``index`` of a column tree: each column's value at that point."""
    if isinstance(fields, dict):
        return {key: _entry(column, index) for key, column in fields.items()}
    value = fields[index]
    return list(value) if isinstance(value, tuple) else value


def build_document(outcome) -> dict:
    """The report as dicts and lists, one dict per point, for the reference
    serializer; :func:`~prodgeo.cli.render_json` writes its JSON text
    without building them."""
    doc = cli._document(outcome)
    doc["points"] = [_entry(doc["points"], index) for index in range(len(outcome.samples))]
    return doc


def test_render_json_matches_the_reference_serializer():
    cases = [(scn.space, scn.immersion, scn.samples) for scn in map(catalog_get, catalog_list())]
    for label in ("rect-torus", "curved-block"):  # 8x8 grids
        scn = catalog_get(label)
        grid = list(itertools.product([-0.9 + 0.8 * i for i in range(8)],
                                      [-0.4 + 0.8 * j for j in range(8)]))
        cases.append((scn.space, scn.immersion, grid))
    space, imm = corrupted_lemma_case()
    cases.append((space, imm, imm.samples))
    for space, imm, samples in cases:
        outcome = verify(space, imm, samples)
        assert outcome.classification.points["u"] == [tuple(u) for u in samples], imm.label
        assert render_json(outcome) == _reference_json(build_document(outcome)) + "\n", imm.label


def test_render_json_matches_the_reference_serializer_on_every_part():
    # a paraboloid is pseudo-umbilical at its vertex only: one proof residual, then nulls
    paraboloid = Immersion(2, ("u1", "u2", "u1^2 + u2^2", "0"), label="paraboloid")
    vertex_first = [(0.0, 0.0), (0.5, 0.2), (-0.3, 0.4)]
    fuzz = random_trig_immersion(7, 16)
    cases = [(scn.space, scn.immersion, scn.samples) for scn in map(catalog_get, catalog_list())]
    cases += [(flat_product(2, 2), fuzz, fuzz.samples), (flat_product(2, 2), paraboloid, vertex_first)]
    for space, imm, samples in cases:
        for lemmas, theorems in itertools.product((True, False), repeat=2):
            outcome = verify(space, imm, samples, lemmas=lemmas, theorems=theorems)
            text = render_json(outcome)
            where = (imm.label, lemmas, theorems)
            assert text == _reference_json(build_document(outcome)) + "\n", where
            points = json.loads(text)["points"]
            keys = ["lemma1", "lemma2"] * lemmas + list(THEOREMS) * theorems
            assert [list(p["residuals"]) for p in points] == [keys] * len(samples), where
    points = json.loads(render_json(verify(flat_product(2, 2), paraboloid, vertex_first)))["points"]
    assert [p["flags"]["pseudo_umbilical"] for p in points] == [True, False, False]
    assert [p["residuals"]["t2"]["proof"] for p in points] == [0.0, None, None]


def _entry_from_columns(outcome, index):
    """A report's point entry in the report's key order, read from the
    outcome's columns by name."""
    cls = outcome.classification.points
    residuals = {}
    if outcome.lemmas is not None:
        residuals = {key: outcome.lemmas[key].residuals for key in ("lemma1", "lemma2")}
    for key in THEOREMS if outcome.theorems is not None else ():
        points = outcome.theorems[key].points
        names = ("identity", "obstruction", "proof", "branches")
        residuals[key] = {name: points[name] for name in names}
    norms, flags = cls["norms"], cls["flags"]
    return _entry({
        "u": cls["u"],
        "norms": {name: norms[name] for name in ("mean_curvature_sq", "phi", "omega", "omega_phi")},
        "rank_phi": cls["rank_phi"],
        "flags": {name: flags[name] for name in ("minimal", "pseudo_umbilical")},
        "residuals": residuals,
    }, index)


def test_report_points_are_the_records_in_key_order():
    space, imm = corrupted_lemma_case()
    cases = [(scn.space, scn.immersion, scn.samples) for scn in map(catalog_get, catalog_list())]
    cases.append((space, imm, imm.samples))
    for space, imm, samples in cases:
        for lemmas, theorems in ((True, True), (False, False)):
            outcome = verify(space, imm, samples, lemmas=lemmas, theorems=theorems)
            rendered = render_json(outcome)
            doc = json.loads(rendered)
            doc["points"] = [_entry_from_columns(outcome, i) for i in range(len(samples))]
            assert _reference_json(doc) + "\n" == rendered, imm.label


@pytest.mark.parametrize("position", [0, 1])
def test_non_finite_residual_column_is_not_rendered(position, monkeypatch, capsys, tmp_path):
    pipeline = importlib.import_module("prodgeo.verify")
    lemma1 = pipeline._lemma1_point

    def nan_at(geo, nabla_omega_t):
        residuals = lemma1(geo, nabla_omega_t).copy()
        residuals[position] = math.nan
        return residuals

    monkeypatch.setattr(pipeline, "_lemma1_point", nan_at)
    scn = catalog_get("circle")
    outcome = verify(scn.space, scn.immersion)
    # only the column holds the NaN: the worst residual is the largest other
    # one, wherever the NaN sits, and the lemma fails
    report = outcome.lemmas["lemma1"]
    column = report.residuals
    assert math.isnan(column[position])
    assert report.max_residual == max(r for r in column if not math.isnan(r))
    assert math.isfinite(report.max_residual)
    assert report.passed is False and outcome.consistent is False
    with pytest.raises(ValueError, match="report numbers must be finite"):
        render_json(outcome)
    path = tmp_path / "c.ini"
    export_scenario(path, scn)
    code, out, err = run_cli(capsys, "report", "--format", "json", str(path))
    assert (code, out, err) == (2, "", "error: report numbers must be finite\n")


@pytest.mark.parametrize("doc", [
    {},
    [],
    (),
    {"empty object": {}, "empty array": [], "empty tuple": ()},
    [np.bool_(True), np.bool_(False), np.int64(-3), np.float64(0.1), (1, 2.5, None)],
    {"nested": [[{"x": [0.5, -0.0, 1e300, 5e-324]}], {"y": (True, False)}, "text"]},
    [{"a": 1.5, "b": [2.0]}, {"a": 2.5, "b": [3.0]}, {"a": None, "b": [4.0]}, {"a": 1, "b": []}],
    [{"per%cent": 0.25, "s": "%s %d"}, {"per%cent": 0.5, "s": "%%"}],
    [{1: 0.5}, {True: 0.5}, {1.0: 0.5}],
    [[True, [5.0]], [[True], 5.0]],
    [collections.OrderedDict(a=1.5, b=[2.0]), collections.OrderedDict(a=2.5, b=(3.0,))],
    0.1,
    np.float64(2.5),
    "plain",
    None,
])
def test_dump_json_matches_the_reference_serializer(doc):
    assert dump_json(doc) == _reference_json(doc)


@pytest.mark.parametrize("doc", [
    float("nan"),
    [1.0, float("inf")],
    {"x": [{"y": -math.inf}]},
    [np.float64("nan")],
    [{"a": 1.0}, {"a": float("nan")}],
])
def test_dump_json_rejects_non_finite_numbers(doc):
    with pytest.raises(ValueError, match="report numbers must be finite"):
        dump_json(doc)


@pytest.mark.parametrize("body", [
    "points = (0.1,); (nan,)",
    "grid = u1: 0 : inf : 3",  # 0 * inf is already a NaN point
    "random = count=3 seed=1 box=(1,nan)",
], ids=["points", "grid", "random"])
def test_non_finite_sample_point_is_a_scenario_error(body, capsys, tmp_path):
    text = _malformed("samples", body)
    with pytest.raises(ScenarioError, match=r"^\[samples\] sample point \(nan,\) is not finite"):
        loads_scenario(text)
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert err == "error: [samples] sample point (nan,) is not finite\n"


def test_a_map_divided_by_a_number_reports_as_its_product(capsys, tmp_path):
    reports = []
    for component in ("u1/2", "0.5*u1"):
        path = tmp_path / "half.ini"
        path.write_text(_malformed("immersion", f"n = 1\nmap = {component}, sin(u1)"), encoding="utf-8")
        reports.append(run_cli(capsys, "report", "--format", "json", str(path)))
    assert reports[0] == reports[1] and reports[0][0] == 0


def test_a_report_of_one_sample_notes_its_weak_support(capsys, tmp_path):
    path = tmp_path / "one.ini"
    path.write_text(_malformed("samples", "grid = u1: 0 : 1 : 1"), encoding="utf-8")
    assert loads_scenario(path.read_text(encoding="utf-8")).samples == ((0.0,),)
    code, out, _ = run_cli(capsys, "report", str(path))
    assert code == 0
    assert "note: fewer than 2 sample points; verdict is weakly supported" in out.splitlines()


def test_constant_map_is_a_degenerate_immersion(capsys, tmp_path):
    path = tmp_path / "constant.ini"
    path.write_text(_malformed("immersion", "n = 1\nmap = 1, 2"), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--all", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: Jacobian rank < 1 at u = (0.5,)"), err
