"""The three characterization statements: residuals, branches, consistency."""

import math

from prodgeo import jets
from prodgeo.ambient import product_of
from prodgeo.calculus import lemma_tensors
from prodgeo.catalog import catalog_get, catalog_list
from prodgeo.subgeom import Immersion, _JetGeometry
from prodgeo.theorems import _PointData, _t2_point, _t3_point, _t4_point
from prodgeo.verify import verify

COS_PI_4 = math.cos(math.pi / 4)


def test_t2_aligned_torus_invariant_branch():
    scn = catalog_get("square-torus-aligned")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
    assert verdict.identity_holds_everywhere
    assert all(p.identity_residual <= 1e-8 for p in verdict.points)
    assert all(p.branches["invariant"] for p in verdict.points)
    assert verdict.biconditional_consistent


def test_t2_sphere_named_point():
    scn = catalog_get("sphere")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
    named = verdict.points[0]  # u = (pi/4, 0) maps to (sqrt2/2, 0, sqrt2/2)
    assert abs(named.identity_residual - 1.0) <= 1e-6
    assert abs(named.obstruction - 1.0) <= 1e-6
    assert named.proof_residual <= 1e-8
    assert not verdict.identity_holds_everywhere
    assert verdict.biconditional_consistent


def test_t2_minimal_scenarios_hold():
    for label in ("plane-invariant", "diagonal-line", "semi-invariant-plane"):
        scn = catalog_get(label)
        verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
        assert all(p.identity_residual <= 1e-8 for p in verdict.points), label
        assert all(p.branches["minimal"] for p in verdict.points), label


def test_t3_anti_invariant_curve_holds():
    scn = catalog_get("anti-invariant-curve")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t3"]
    assert verdict.identity_holds_everywhere
    assert all(p.branches["anti_invariant"] for p in verdict.points)
    assert verdict.biconditional_consistent


def test_t3_circle_spot_value():
    scn = catalog_get("circle")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t3"]
    at_pi8 = verdict.points[1]
    assert abs(at_pi8.obstruction - COS_PI_4) <= 1e-6
    assert abs(at_pi8.identity_residual - at_pi8.obstruction) <= 1e-6
    assert at_pi8.proof_residual <= 1e-8
    assert not verdict.identity_holds_everywhere
    assert verdict.biconditional_consistent


def test_t4_circle_spot_value_and_pointwise_branch():
    scn = catalog_get("circle")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t4"]
    at_zero, at_pi8, at_pi4 = verdict.points
    assert abs(at_pi8.obstruction - COS_PI_4 ** 2 * math.sin(math.pi / 4)) <= 1e-6
    assert abs(at_pi8.identity_residual - at_pi8.obstruction) <= 1e-6
    # identity holds pointwise at u = 0 and u = pi/4 through perpendicularity
    assert at_zero.identity_holds and at_zero.branches["perpendicular"]
    assert at_pi4.identity_holds and at_pi4.branches["perpendicular"]
    assert not at_pi8.identity_holds
    assert verdict.biconditional_consistent


def test_t4_semi_invariant_plane_two_branches():
    scn = catalog_get("semi-invariant-plane")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t4"]
    assert all(p.identity_residual <= 1e-10 for p in verdict.points)
    assert all(p.branches["minimal"] and p.branches["semi_invariant"] for p in verdict.points)


def test_proof_residuals_hold_at_every_pseudo_umbilical_point():
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        for key, verdict in verdicts.items():
            for p in verdict.points:
                if p.pseudo_umbilical:
                    assert p.proof_residual is not None
                    assert p.proof_residual <= 1e-8, (label, key, p.u)
                else:
                    assert p.proof_residual is None


def test_identity_residual_equals_obstruction_at_pu_points():
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        for key, verdict in verdicts.items():
            for p in verdict.points:
                if p.pseudo_umbilical:
                    assert abs(p.identity_residual - p.obstruction) <= 1e-6, (
                        label,
                        key,
                        p.u,
                    )


def test_branch_soundness():
    # a true branch flag at a point forces the identity there
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        for key, verdict in verdicts.items():
            for p in verdict.points:
                if p.disjunction_pointwise:
                    assert p.identity_residual <= 1e-6, (label, key, p.u)


def test_biconditional_consistency_all_catalog():
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        for key, verdict in verdicts.items():
            assert verdict.biconditional_consistent, (label, key)
            # the pointwise disjunction is equivalent to pointwise identity
            assert verdict.disjunction_pointwise_everywhere == verdict.identity_holds_everywhere, (
                label,
                key,
            )


def test_rect_torus_skips_proof():
    scn = catalog_get("rect-torus")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
    assert verdict.proof_points_skipped == len(scn.samples)
    assert all(p.proof_residual is None for p in verdict.points)
    assert verdict.biconditional_consistent


def test_scaling_covariance_on_circle():
    # f -> 2f divides |H|^2 and the T2 obstruction by 4, the T4 one by 8
    flat = product_of("flat", 1, "flat", 1)
    samples = ((math.pi / 8,), (0.6,))
    unit = Immersion(1, ("cos(u1)", "sin(u1)"), samples=samples)
    doubled = Immersion(1, ("2*cos(u1)", "2*sin(u1)"), samples=samples)
    v1 = verify(flat, unit, samples, lemmas=False).theorems
    v2 = verify(flat, doubled, samples, lemmas=False).theorems
    for i in range(len(samples)):
        t2_ratio = v1["t2"].points[i].obstruction / v2["t2"].points[i].obstruction
        t4_ratio = v1["t4"].points[i].obstruction / v2["t4"].points[i].obstruction
        assert abs(t2_ratio - 4.0) <= 1e-6 * 4.0
        assert abs(t4_ratio - 8.0) <= 1e-6 * 8.0


def test_rotated_torus_obstruction_is_large():
    scn = catalog_get("square-torus-rotated")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
    for p in verdict.points:
        assert p.identity_residual > 0.1
        assert abs(p.identity_residual - p.obstruction) <= 1e-6
    assert verdict.biconditional_consistent


def test_verdict_shape():
    scn = catalog_get("circle")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t4"]
    assert verdict.theorem == "t4"
    assert len(verdict.points) == 3
    assert set(verdict.points[0].branches) == {"minimal", "semi_invariant", "perpendicular"}


def test_statements_read_the_lemma_tensors_without_jet_work(monkeypatch):
    scn = catalog_get("square-torus-rotated")
    geo = _JetGeometry(scn.immersion, scn.space, scn.samples, order=3)
    tensors = lemma_tensors(geo)
    expected = verify(scn.space, scn.immersion, lemmas=False).theorems

    def no_jets(*args, **kwargs):
        raise AssertionError("jet work in a statement")

    for name in ("__init__", "gradient", "truncate", "coefficient"):
        monkeypatch.setattr(jets.Jet, name, no_jets)
    monkeypatch.setattr(jets.Jet, "value", property(no_jets))
    data = _PointData(geo, 1e-8, *tensors)
    for key, statement in (("t2", _t2_point), ("t3", _t3_point), ("t4", _t4_point)):
        assert statement(data, 1e-8) == list(expected[key].points), key
