"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at run time.
"""

import numpy as np

from prodgeo import expr as ex
from prodgeo.ambient import product_of
from prodgeo.calculus import _operator_derivatives
from prodgeo.catalog import catalog_get, catalog_list, flat_product, random_trig_immersion
from prodgeo.cli import main, render_json
from prodgeo.jets import seed_point
from prodgeo.scenario import export_scenario, load_scenario
from prodgeo.subgeom import _JetGeometry, classify, point_geometry
from prodgeo.verify import verify

from controls import corrupted_lemma_case, position_reflection_space, rotation_structure_space
from oracle import fd_derivative, fd_second, fd_third
from taylor import derivative
from validation import validate_at


def _report(n, text):
    print(f"[acceptance] criterion {n}: PASS - {text}")


# ---------------------------------------------------------------- criterion 1


def _random_expression(rng):
    """Safe random expression over u1, u2: values and derivatives stay mild."""
    pieces = []
    for _ in range(rng.integers(2, 5)):
        c = rng.uniform(-1, 1)
        inner = f"{rng.uniform(-1, 1)!r}*u1 + {rng.uniform(-1, 1)!r}*u2"
        kind = rng.integers(0, 6)
        if kind == 0:
            pieces.append(f"{c!r}*sin({inner})")
        elif kind == 1:
            pieces.append(f"{c!r}*cos({inner})")
        elif kind == 2:
            pieces.append(f"{c!r}*exp(0.5*sin({inner}))")
        elif kind == 3:
            pieces.append(f"{c!r}*sqrt(2.5 + cos({inner})^2)")
        elif kind == 4:
            pieces.append(f"{c!r}/(2.5 + sin({inner})^2)")
        else:
            pieces.append(f"{c!r}*(1.5 + sin({inner})^2)^1.5")
    return ex.parse(" + ".join(pieces))


def test_criterion_1_jet_derivatives_match_oracle():
    rng = np.random.default_rng(2024)
    worst = [0.0, 0.0, 0.0]
    for _ in range(100):
        ast = _random_expression(rng)
        base = rng.uniform(-1, 1, 2)
        direction = rng.uniform(-1, 1, 2)
        direction /= np.linalg.norm(direction)

        (t,) = seed_point([0.0], 3)
        env = {"u1": base[0] + direction[0] * t, "u2": base[1] + direction[1] * t}
        jet = ex.evaluate(ast, env)

        def f(s):
            return ex.evaluate(ast, {"u1": base[0] + direction[0] * s,
                                     "u2": base[1] + direction[1] * s})

        worst[0] = max(worst[0], abs(derivative(jet, (1,)) - fd_derivative(f, 0.0)))
        worst[1] = max(worst[1], abs(derivative(jet, (2,)) - fd_second(f, 0.0)))
        worst[2] = max(worst[2], abs(derivative(jet, (3,)) - fd_third(f, 0.0)))
    assert worst[0] <= 1e-6
    assert worst[1] <= 1e-5
    assert worst[2] <= 1e-4
    _report(1, f"100 random expressions, worst oracle gaps {worst[0]:.2e} / "
               f"{worst[1]:.2e} / {worst[2]:.2e} for orders 1/2/3")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_ambient_validity_and_negative_controls():
    rng = np.random.default_rng(7)
    spaces = [
        (product_of("flat", 1, "flat", 1), [(-2, 2)] * 2),
        (product_of("flat", 2, "flat", 1), [(-2, 2)] * 3),
        (product_of("flat", 2, "flat", 2), [(-2, 2)] * 4),
        (product_of([["1", "0"], ["0", "sin(x1)^2"]], 2, "flat", 1),
         [(0.3, 2.8), (-2, 2), (-2, 2)]),
    ]
    worst = 0.0
    for space, box in spaces:
        samples = [[rng.uniform(lo, hi) for lo, hi in box] for _ in range(50)]
        report = validate_at(space, samples)
        assert report.passed
        worst = max(worst, report.max_f_squared_residual,
                    report.max_compat_residual, report.max_parallel_residual)
    assert worst <= 1e-10
    rot = validate_at(rotation_structure_space(), [[0.0, 0.0], [1.0, -2.0]])
    assert rot.max_f_squared_residual >= 1e-1
    refl = validate_at(position_reflection_space(), [[0.0, 0.0], [0.4, 1.0]])
    assert refl.max_parallel_residual >= 1e-1
    _report(2, f"4 product spaces x 50 points, worst residual {worst:.2e}; "
               f"controls fail at {rot.max_f_squared_residual:.2f} / "
               f"{refl.max_parallel_residual:.2f}")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_structural_identities():
    worst = 0.0
    for label in catalog_list():
        scn = catalog_get(label)
        for u in scn.samples:
            geo = _JetGeometry(scn.immersion, scn.space, [u])
            n, m = geo.n, geo.m
            hcomp = geo.hcomp0[0]
            gaps = [np.max(np.abs(hcomp - np.transpose(hcomp, (0, 2, 1))))]
            # A_xi X = P_T (D_X P_T) xi, along the frame directions e_a
            d_e = _operator_derivatives(geo)[0][0]  # [a]: D_{e_a} P_T
            for alpha in range(m):
                for a in range(n):
                    comps = geo.E0[0] @ geo.g0[0] @ d_e[a] @ geo.Xi0[0, alpha]
                    gaps.append(np.max(np.abs(comps - hcomp[alpha, a])))
            phi, om, bm, cm = geo.phi0[0], geo.omega0[0], geo.B0[0], geo.C0[0]
            gaps.append(np.max(np.abs(phi - phi.T)))
            gaps.append(np.max(np.abs(cm - cm.T)))
            gaps.append(np.max(np.abs(bm - om.T)))
            gaps.append(np.max(np.abs(phi @ phi + bm @ om - np.eye(n))))
            gaps.append(np.max(np.abs(om @ phi + cm @ om)))
            gaps.append(np.max(np.abs(phi @ bm + bm @ cm)))
            gaps.append(np.max(np.abs(om @ bm + cm @ cm - np.eye(m))))
            worst = max(worst, float(max(gaps)))
            assert max(gaps) <= 1e-10, (label, u)
    _report(3, f"h symmetry, duality via Weingarten, adjointness and the four "
               f"F^2=I blocks hold at every catalog sample; worst {worst:.2e}")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_lemma_suite():
    worst = 0.0
    for label in catalog_list():
        scn = catalog_get(label)
        outcome = verify(scn.space, scn.immersion, theorems=False)
        r1, r2 = outcome.lemmas.values()
        assert r1.max_residual <= 1e-8, label
        assert r2.max_residual <= 1e-8, label
        worst = max(worst, r1.max_residual, r2.max_residual)
    flat = flat_product(2, 2)
    for seed in range(20):
        imm = random_trig_immersion(seed)
        outcome = verify(flat, imm, theorems=False)
        r1, r2 = outcome.lemmas.values()
        assert r1.max_residual <= 1e-8, seed
        assert r2.max_residual <= 1e-8, seed
        worst = max(worst, r1.max_residual, r2.max_residual)
    space, imm = corrupted_lemma_case()
    outcome = verify(space, imm, theorems=False)
    b1, b2 = outcome.lemmas.values()
    assert max(b1.max_residual, b2.max_residual) > 1e-3
    _report(4, f"both identities hold on 10 scenarios + 20 fuzz immersions "
               f"(worst {worst:.2e}); corrupted ambient fails at "
               f"{max(b1.max_residual, b2.max_residual):.2f}")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_proof_residuals_and_obstructions():
    worst_proof, worst_gap, pu_points = 0.0, 0.0, 0
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        # pseudo-umbilical at the identity tolerance, as the statements read it
        pseudo_umbilical = _JetGeometry(scn.immersion, scn.space, scn.samples).pu_gap <= 1e-8
        for key, verdict in verdicts.items():
            points = verdict.points
            for u, pu, proof, identity, obstruction in zip(
                scn.samples, pseudo_umbilical, points["proof"], points["identity"],
                points["obstruction"],
            ):
                if not pu:
                    continue
                pu_points += 1
                assert proof <= 1e-8, (label, key, u)
                assert abs(identity - obstruction) <= 1e-6, (label, key, u)
                worst_proof = max(worst_proof, proof)
                worst_gap = max(worst_gap, abs(identity - obstruction))
    assert pu_points > 0
    _report(5, f"{pu_points} pseudo-umbilical (point, theorem) pairs: worst "
               f"proof residual {worst_proof:.2e}, worst identity-vs-"
               f"obstruction gap {worst_gap:.2e}")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_quantitative_spot_values():
    circle = catalog_get("circle")
    verdicts = verify(circle.space, circle.immersion, lemmas=False).theorems
    t3 = verdicts["t3"].points["obstruction"][1]
    t4 = verdicts["t4"].points["obstruction"][1]
    assert abs(t3 - 0.7071067811865476) <= 1e-6
    assert abs(t4 - 0.35355339059327373) <= 1e-6

    sphere = catalog_get("sphere")
    t2 = verify(sphere.space, sphere.immersion, lemmas=False).theorems["t2"]
    named = t2.points["identity"][0]
    assert abs(named - 1.0) <= 1e-6

    torus = catalog_get("square-torus-aligned")
    for u in torus.samples:
        pg = point_geometry(torus.immersion, torus.space, u)
        assert abs(float(pg.H @ pg.ambient_metric @ pg.H) - 0.5) <= 1e-9

    rect = catalog_get("rect-torus")
    pg = point_geometry(rect.immersion, rect.space, rect.samples[0])
    assert abs(pg.pu_gap - 0.1875) <= 1e-9
    _report(6, f"circle obstructions {t3:.6f} / {t4:.6f}, sphere residual "
               f"{named:.6f}, torus |H|^2 = 0.5, "
               f"rect-torus gap = 0.1875")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_classification_regression():
    for label in catalog_list():
        scn = catalog_get(label)
        result = classify(scn.immersion, scn.space)
        assert result.classification == scn.expected.classification, label
        flags = result.points["flags"]
        assert all(flags["minimal"]) == scn.expected.minimal, label
        assert all(flags["pseudo_umbilical"]) == scn.expected.pseudo_umbilical, label
    circle = classify(catalog_get("circle").immersion, catalog_get("circle").space)
    assert circle.points["rank_phi"] == [1, 1, 0]
    _report(7, "all 10 scenarios report their expected verdicts and flags; "
               "circle rank(phi) drops 1 -> 0 across its samples")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_biconditional_consistency():
    checked = 0
    for label in catalog_list():
        scn = catalog_get(label)
        verdicts = verify(scn.space, scn.immersion, lemmas=False).theorems
        for key, verdict in verdicts.items():
            assert verdict.biconditional_consistent, (label, key)
            checked += 1
    _report(8, f"identity-everywhere matches the branch disjunction for all "
               f"{checked} (scenario, theorem) pairs")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_determinism_and_roundtrip(tmp_path, capsys):
    path = tmp_path / "seeded.ini"
    path.write_text(
        """
[ambient]
mode = product
p = 2
q = 2
blockA_metric = flat
blockB_metric = flat

[immersion]
n = 2
map = cos(u1), sin(u1), cos(u2), sin(u2)
label = seeded-torus

[samples]
random = count=4 seed=99 box=(0,6)x(0,6)
""",
        encoding="utf-8",
    )
    code1 = main(["check", "--all", "--format", "json", str(path)])
    out1 = capsys.readouterr().out
    code2 = main(["check", "--all", "--format", "json", str(path)])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2

    for label in ("circle", "curved-block", "rect-torus"):
        scn = catalog_get(label)
        export_path = tmp_path / f"{label}.ini"
        export_scenario(export_path, scn)
        loaded = load_scenario(export_path)
        direct = render_json(verify(scn.space, scn.immersion, scn.samples))
        reloaded = render_json(verify(loaded.space, loaded.immersion, loaded.samples, loaded.tolerances))
        assert direct == reloaded, label
    _report(9, "byte-identical seeded check runs; export/load round trip "
               "reproduces every verdict bit-for-bit")
