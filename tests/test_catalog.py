"""Catalog regression: every scenario reproduces its expected fields."""

import pytest

from prodgeo.catalog import (
    UnknownScenario,
    catalog_get,
    catalog_list,
    flat_product,
    random_trig_immersion,
)
from prodgeo.subgeom import classify, point_geometry
from prodgeo.verify import verify

ALL_LABELS = (
    "plane-invariant",
    "diagonal-line",
    "circle",
    "square-torus-aligned",
    "square-torus-rotated",
    "rect-torus",
    "semi-invariant-plane",
    "anti-invariant-curve",
    "sphere",
    "curved-block",
)


def test_catalog_lists_ten_scenarios():
    assert catalog_list() == ALL_LABELS


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        catalog_get("moebius")


def test_every_scenario_has_provenance_notes():
    for label in catalog_list():
        scn = catalog_get(label)
        assert scn.notes.strip(), label
        assert len(scn.samples) >= 2, label


@pytest.mark.parametrize("label", ALL_LABELS)
def test_scenario_regression(label):
    scn = catalog_get(label)
    expected = scn.expected

    result = classify(scn.immersion, scn.space)
    assert result.classification == expected.classification
    if expected.dim_d is not None:
        assert result.dim_d == expected.dim_d
        assert result.dim_d_perp == expected.dim_d_perp
    if expected.rank_phi_per_point is not None:
        assert tuple(result.points["rank_phi"]) == expected.rank_phi_per_point

    assert all(result.points["flags"]["minimal"]) == expected.minimal
    assert all(result.points["flags"]["pseudo_umbilical"]) == expected.pseudo_umbilical

    if expected.mean_curvature_sq is not None:
        for u in scn.samples:
            pg = point_geometry(scn.immersion, scn.space, u)
            hsq = float(pg.H @ pg.ambient_metric @ pg.H)
            assert abs(hsq - expected.mean_curvature_sq) <= 1e-9, (label, u)

    outcome = verify(scn.space, scn.immersion)
    verdicts = outcome.theorems
    for key in ("t2", "t3", "t4"):
        assert (
            verdicts[key].identity_holds_everywhere
            == expected.identity_everywhere[key]
        ), (label, key)
        assert verdicts[key].biconditional_consistent, (label, key)

    lemma1, lemma2 = outcome.lemmas.values()
    assert lemma1.passed and lemma2.passed


@pytest.mark.parametrize("label", [l for l in ALL_LABELS if catalog_get(l).spots])
def test_scenario_spot_values(label):
    scn = catalog_get(label)
    verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
    for spot in scn.spots:
        if spot.quantity == "pu_gap":
            pg = point_geometry(scn.immersion, scn.space, scn.samples[spot.point_index])
            actual = pg.pu_gap
        else:
            key, field = spot.quantity.split("_", 1)
            actual = verdicts[key].points[field][spot.point_index]
        assert abs(actual - spot.value) <= spot.tol, (label, spot.quantity)


def test_random_immersions_are_deterministic_and_valid():
    space = flat_product(2, 2)
    for seed in (0, 1, 7):
        a = random_trig_immersion(seed)
        b = random_trig_immersion(seed)
        assert a.components == b.components
        assert a.samples == b.samples
        for u in a.samples:
            point_geometry(a, space, u)  # full rank by construction
    assert random_trig_immersion(0).components != random_trig_immersion(1).components
