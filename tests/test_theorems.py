"""The three characterization statements: residuals, branches, consistency."""

import math
from dataclasses import fields

import numpy as np

from prodgeo import jets
from prodgeo.ambient import product_of
from prodgeo.calculus import lemma_tensors
from prodgeo.catalog import catalog_get, catalog_list, flat_product, random_trig_immersion
from prodgeo.subgeom import Immersion, _JetGeometry, _predicates
from prodgeo.theorems import _PointData, _t2_point, _t3_point, _t4_point
from prodgeo.verify import verify

COS_PI_4 = math.cos(math.pi / 4)


def test_t2_aligned_torus_invariant_branch():
    scn = catalog_get("square-torus-aligned")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
    assert verdict.identity_holds_everywhere
    assert all(r <= 1e-8 for r in verdict.points["identity"])
    assert all(verdict.points["branches"]["invariant"])
    assert verdict.biconditional_consistent


def test_t2_sphere_named_point():
    scn = catalog_get("sphere")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
    named = verdict.points  # point 0: u = (pi/4, 0) maps to (sqrt2/2, 0, sqrt2/2)
    assert abs(named["identity"][0] - 1.0) <= 1e-6
    assert abs(named["obstruction"][0] - 1.0) <= 1e-6
    assert named["proof"][0] <= 1e-8
    assert not verdict.identity_holds_everywhere
    assert verdict.biconditional_consistent


def test_t2_minimal_scenarios_hold():
    for label in ("plane-invariant", "diagonal-line", "semi-invariant-plane"):
        scn = catalog_get(label)
        verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
        assert all(r <= 1e-8 for r in verdict.points["identity"]), label
        assert all(verdict.points["branches"]["minimal"]), label


def test_t3_anti_invariant_curve_holds():
    scn = catalog_get("anti-invariant-curve")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t3"]
    assert verdict.identity_holds_everywhere
    assert all(verdict.points["branches"]["anti_invariant"])
    assert verdict.biconditional_consistent


def test_t3_circle_spot_value():
    scn = catalog_get("circle")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t3"]
    obstruction = verdict.points["obstruction"][1]  # at u = pi/8
    assert abs(obstruction - COS_PI_4) <= 1e-6
    assert abs(verdict.points["identity"][1] - obstruction) <= 1e-6
    assert verdict.points["proof"][1] <= 1e-8
    assert not verdict.identity_holds_everywhere
    assert verdict.biconditional_consistent


def test_t4_circle_spot_value_and_pointwise_branch():
    scn = catalog_get("circle")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t4"]
    points = verdict.points  # at u = 0, pi/8 and pi/4
    obstruction = points["obstruction"][1]
    assert abs(obstruction - COS_PI_4 ** 2 * math.sin(math.pi / 4)) <= 1e-6
    assert abs(points["identity"][1] - obstruction) <= 1e-6
    # identity holds pointwise at u = 0 and u = pi/4 through perpendicularity
    assert [r <= 1e-8 for r in points["identity"]] == [True, False, True]
    assert points["branches"]["perpendicular"][0] and points["branches"]["perpendicular"][2]
    assert verdict.biconditional_consistent


def test_t4_semi_invariant_plane_two_branches():
    scn = catalog_get("semi-invariant-plane")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t4"]
    assert all(r <= 1e-10 for r in verdict.points["identity"])
    branches = verdict.points["branches"]
    assert all(branches["minimal"]) and all(branches["semi_invariant"])


def _pseudo_umbilical(scn, tol: float = 1e-8) -> list:
    """Where the build's pseudo-umbilical gap is at most the identity tolerance."""
    return (_JetGeometry(scn.immersion, scn.space, scn.samples).pu_gap <= tol).tolist()


def test_proof_residuals_hold_at_every_pseudo_umbilical_point():
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        pseudo_umbilical = _pseudo_umbilical(scn)
        for key, verdict in verdicts.items():
            points = verdict.points
            for u, pu, proof in zip(scn.samples, pseudo_umbilical, points["proof"]):
                if pu:
                    assert proof is not None
                    assert proof <= 1e-8, (label, key, u)
                else:
                    assert proof is None


def test_identity_residual_equals_obstruction_at_pu_points():
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        pseudo_umbilical = _pseudo_umbilical(scn)
        for key, verdict in verdicts.items():
            points = verdict.points
            for u, pu, identity, obstruction in zip(
                scn.samples, pseudo_umbilical, points["identity"], points["obstruction"],
            ):
                if pu:
                    assert abs(identity - obstruction) <= 1e-6, (label, key, u)


def test_branch_soundness():
    # a true branch flag at a point forces the identity there
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        for key, verdict in verdicts.items():
            points = verdict.points
            branches = zip(*points["branches"].values())
            for u, flags, identity in zip(scn.samples, branches, points["identity"]):
                if any(flags):
                    assert identity <= 1e-6, (label, key, u)


def test_biconditional_consistency_all_catalog():
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        for key, verdict in verdicts.items():
            assert verdict.biconditional_consistent, (label, key)
            # the pointwise disjunction is equivalent to pointwise identity
            assert verdict.disjunction_pointwise == verdict.identity_holds_everywhere, (
                label,
                key,
            )


def test_verdicts_are_their_pointwise_definitions():
    # the verdicts read off the kept columns: the identity at most its
    # tolerance at every point, some branch at every point, and a proof
    # residual skipped where the build's pseudo-umbilical gap exceeds the
    # identity tolerance; the classification's minimal and pseudo-umbilical
    # verdicts hold where their flag does at every point, and a part that
    # verify skips is None
    tol = 1e-8
    cases = [(scn.space, scn.immersion) for scn in map(catalog_get, catalog_list())]
    cases += [(flat_product(2, 2), random_trig_immersion(seed, 8)) for seed in (*range(20), 440307)]
    # pseudo-umbilical at its vertex only: the proof residual is skipped at 2 of 3 points
    paraboloid = Immersion(2, ("u1", "u2", "u1^2 + u2^2", "0"),
                           samples=((0.0, 0.0), (0.5, 0.2), (-0.3, 0.4)), label="paraboloid")
    cases.append((flat_product(2, 2), paraboloid))
    seen = {"identity": set(), "disjunction": set(), "skipped": set(),
            "minimal": set(), "pseudo_umbilical": set()}
    for space, imm in cases:
        outcome = verify(space, imm, lemmas=False)
        assert outcome.lemmas is None and list(outcome.theorems) == ["t2", "t3", "t4"], imm.label
        lemmas_only = verify(space, imm, theorems=False)
        assert lemmas_only.theorems is None and list(lemmas_only.lemmas) == ["lemma1", "lemma2"]
        classified = verify(space, imm, lemmas=False, theorems=False)
        assert classified.lemmas is None and classified.theorems is None, imm.label
        cls = outcome.classification
        for name in ("minimal", "pseudo_umbilical"):
            assert getattr(cls, name) == all(cls.points["flags"][name]), (imm.label, name)
            seen[name].add(getattr(cls, name))
        skipped = int(np.count_nonzero(_JetGeometry(imm, space, imm.samples).pu_gap > tol))
        for key, verdict in outcome.theorems.items():
            columns, where = verdict.points, (imm.label, key)
            identity = bool(np.all(np.array(columns["identity"]) <= tol))
            disjunction = bool(np.any(list(columns["branches"].values()), axis=0).all())
            assert verdict.identity_holds_everywhere == identity, where
            assert verdict.disjunction_pointwise == disjunction, where
            assert verdict.proof_points_skipped == skipped, where
            seen["identity"].add(identity)
            seen["disjunction"].add(disjunction)
            seen["skipped"].add(0 < skipped < len(imm.samples))
    assert all(values == {True, False} for values in seen.values()), seen


def test_the_class_and_the_theorem_branches_agree():
    # at equal tolerances (the defaults) the four-way class and the T2-T4
    # branches threshold the same measures: the class is invariant exactly
    # where T2's invariant branch holds at every point, anti-invariant where
    # T3's anti-invariant branch does and the submanifold is not invariant,
    # and not generic where T4's semi-invariant branch does with one rank of
    # phi; the circle at u = 0 and pi/4 has rank 1, then 0
    circle = catalog_get("circle")
    cases = [(scn.space, scn.immersion, scn.samples) for scn in map(catalog_get, catalog_list())]
    cases += [(flat_product(2, 2), imm, imm.samples)
              for imm in (random_trig_immersion(seed, 8) for seed in (*range(20), 440307))]
    cases.append((circle.space, circle.immersion, ((0.0,), (math.pi / 4,))))
    seen = {name: set() for name in ("invariant", "anti-invariant", "not generic")}
    for space, imm, samples in cases:
        outcome = verify(space, imm, samples, lemmas=False)
        cls, verdicts = outcome.classification, outcome.theorems
        branches = {key: verdict.points["branches"] for key, verdict in verdicts.items()}
        invariant = all(branches["t2"]["invariant"])
        anti = all(branches["t3"]["anti_invariant"]) and not invariant
        semi = all(branches["t4"]["semi_invariant"]) and len(set(cls.points["rank_phi"])) == 1
        for name, holds in (("invariant", invariant), ("anti-invariant", anti)):
            assert (cls.classification == name) == holds, (imm.label, samples, name)
            seen[name].add(holds)
        assert (cls.classification != "generic") == semi, (imm.label, samples)
        seen["not generic"].add(semi)
    assert all(values == {True, False} for values in seen.values()), seen


def test_rect_torus_skips_proof():
    scn = catalog_get("rect-torus")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
    assert verdict.proof_points_skipped == len(scn.samples)
    assert all(p is None for p in verdict.points["proof"])
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
        t2_ratio = v1["t2"].points["obstruction"][i] / v2["t2"].points["obstruction"][i]
        t4_ratio = v1["t4"].points["obstruction"][i] / v2["t4"].points["obstruction"][i]
        assert abs(t2_ratio - 4.0) <= 1e-6 * 4.0
        assert abs(t4_ratio - 8.0) <= 1e-6 * 8.0


def test_rotated_torus_obstruction_is_large():
    scn = catalog_get("square-torus-rotated")
    verdict = verify(scn.space, scn.immersion, lemmas=False).theorems["t2"]
    for identity, obstruction in zip(verdict.points["identity"],
                                     verdict.points["obstruction"]):
        assert identity > 0.1
        assert abs(identity - obstruction) <= 1e-6
    assert verdict.biconditional_consistent


def test_verdict_shape():
    scn = catalog_get("circle")
    theorems = verify(scn.space, scn.immersion, lemmas=False).theorems
    assert list(theorems) == ["t2", "t3", "t4"]
    verdict = theorems["t4"]
    assert [field.name for field in fields(verdict)] == [
        "identity_holds_everywhere", "disjunction_global", "disjunction_pointwise",
        "biconditional_consistent", "proof_points_skipped", "points"]
    assert list(verdict.points) == ["identity", "obstruction", "proof", "branches"]
    assert all(len(verdict.points[name]) == 3 for name in ("identity", "obstruction", "proof"))
    assert set(verdict.points["branches"]) == {"minimal", "semi_invariant", "perpendicular"}
    assert all(len(column) == 3 for column in verdict.points["branches"].values())


def test_statements_read_the_lemma_tensors_without_jet_work(monkeypatch):
    scn = catalog_get("square-torus-rotated")
    geo = _JetGeometry(scn.immersion, scn.space, scn.samples)
    tensors = lemma_tensors(geo)
    expected = verify(scn.space, scn.immersion, lemmas=False).theorems

    def no_jets(*args, **kwargs):
        raise AssertionError("jet work in a statement")

    for name in ("__init__", "gradient", "truncate"):
        monkeypatch.setattr(jets.Jet, name, no_jets)
    monkeypatch.setattr(jets.Jet, "value", property(no_jets))
    data = _PointData(geo, 1e-8, _predicates(geo, 1e-8), *tensors)
    for key, statement in (("t2", _t2_point), ("t3", _t3_point), ("t4", _t4_point)):
        assert statement(data) == expected[key].points, key
