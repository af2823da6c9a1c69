"""Per-point submanifold geometry: frames, h, H, decompositions, classifier."""

import math
import re
from fractions import Fraction
import warnings
from functools import lru_cache

import numpy as np
import pytest

from prodgeo import expr as ex
from prodgeo.ambient import AmbientSpace, AmbientValidationFailure, product_of
from prodgeo import calculus
from prodgeo.calculus import _operator_derivatives
from prodgeo.catalog import catalog_get, catalog_list, flat_product, random_trig_immersion
from prodgeo.subgeom import (
    DegenerateImmersion,
    Immersion,
    _JetGeometry,
    _points,
    aggregate_classification,
    classify,
    classify_point,
    point_geometry,
)
from prodgeo.verify import Tolerances, verify

from controls import corrupted_lemma_case
from grids import seed_one_grids
import taylor

FLAT11 = product_of("flat", 1, "flat", 1)
FLAT21 = product_of("flat", 2, "flat", 1)
FLAT22 = product_of("flat", 2, "flat", 2)


def test_immersion_validation():
    with pytest.raises(ValueError):
        Immersion(2, ("u1", "u2"))  # not a proper submanifold
    with pytest.raises(ValueError):
        Immersion(1, ("u1", "u2"))  # u2 undeclared
    with pytest.raises(ValueError):
        Immersion(2, ("u1", "u2", "0"), samples=((0.0,),))  # bad sample arity


def test_frames_plane():
    imm = Immersion(2, ("u1", "u2", "0"))
    pg = point_geometry(imm, FLAT21, (0.4, -1.0))
    assert np.allclose(pg.tangent_on, [[1, 0, 0], [0, 1, 0]], atol=1e-14)
    assert np.allclose(pg.normal_on, [[0, 0, 1]], atol=1e-14)
    assert np.allclose(pg.induced_metric, np.eye(2), atol=1e-14)


def test_frames_circle_at_zero():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    pg = point_geometry(imm, FLAT11, (0.0,))
    assert np.allclose(pg.tangent_on, [[0.0, 1.0]], atol=1e-14)
    assert np.allclose(np.abs(pg.normal_on), [[1.0, 0.0]], atol=1e-14)


def test_frames_parabola():
    imm = Immersion(1, ("u1", "u1^2"))
    pg = point_geometry(imm, FLAT11, (1.0,))
    e = np.array([1.0, 2.0]) / math.sqrt(5.0)
    assert np.allclose(pg.tangent_on[0], e, atol=1e-14)
    xi = pg.normal_on[0]
    assert abs(xi @ e) <= 1e-14
    assert abs(xi @ xi - 1.0) <= 1e-14


def test_frames_orthonormal_under_curved_metric():
    space = product_of([["1", "0"], ["0", "sin(x1)^2"]], 2, "flat", 1)
    imm = Immersion(2, (repr(math.pi / 4), "u1", "u2"))
    pg = point_geometry(imm, space, (0.3, 0.7))
    g0 = pg.ambient_metric
    frames = np.vstack([pg.tangent_on, pg.normal_on])
    gram = frames @ g0 @ frames.T
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12


def test_degenerate_immersion_detected():
    imm = Immersion(1, ("u1^2", "u1^3"))
    with pytest.raises(DegenerateImmersion):
        point_geometry(imm, FLAT11, (0.0,))
    point_geometry(imm, FLAT11, (0.5,))  # fine away from the cusp


def test_sff_plane_is_totally_geodesic():
    imm = Immersion(2, ("u1", "u2", "0"))
    pg = point_geometry(imm, FLAT21, (0.3, 0.4))
    assert np.max(np.abs(pg.h)) <= 1e-14
    assert np.max(np.abs(pg.H)) <= 1e-14
    assert np.max(np.abs(pg.h)) <= 1e-14


def test_sff_circle():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    for u in (0.0, 0.9, 2.4):
        pg = point_geometry(imm, FLAT11, (u,))
        nu = np.array([math.cos(u), math.sin(u)])
        # h(e,e) = -nu and |H| = 1
        h_vec = pg.h[0, 0, 0] * pg.normal_on[0]
        assert np.allclose(h_vec, -nu, atol=1e-12)
        assert abs(pg.H @ pg.ambient_metric @ pg.H - 1.0) <= 1e-12


def test_sff_square_torus_closed_forms():
    imm = Immersion(2, ("cos(u1)", "sin(u1)", "cos(u2)", "sin(u2)"))
    u, v = 0.5, 1.1
    pg = point_geometry(imm, FLAT22, (u, v))
    huu = np.einsum("m,mi->i", pg.h[:, 0, 0], pg.normal_on)
    hvv = np.einsum("m,mi->i", pg.h[:, 1, 1], pg.normal_on)
    huv = np.einsum("m,mi->i", pg.h[:, 0, 1], pg.normal_on)
    assert np.allclose(huu, [-math.cos(u), -math.sin(u), 0, 0], atol=1e-12)
    assert np.allclose(hvv, [0, 0, -math.cos(v), -math.sin(v)], atol=1e-12)
    assert np.max(np.abs(huv)) <= 1e-12
    assert abs(pg.H @ pg.H - 0.5) <= 1e-12


def test_minimality_examples():
    plane = Immersion(2, ("u1", "u2", "0"))
    assert point_geometry(plane, FLAT21, (0.1, 0.2)).H_norm <= 1e-8
    circle = Immersion(1, ("cos(u1)", "sin(u1)"))
    assert not point_geometry(circle, FLAT11, (0.3,)).H_norm <= 1e-8
    diag = Immersion(1, ("u1", "u1"))
    assert point_geometry(diag, FLAT11, (0.7,)).H_norm <= 1e-8


def test_pseudo_umbilical_examples():
    plane = Immersion(2, ("u1", "u2", "0"))
    assert point_geometry(plane, FLAT21, (0.1, 0.2)).pu_gap <= 1e-8
    torus = Immersion(2, ("cos(u1)", "sin(u1)", "cos(u2)", "sin(u2)"))
    assert point_geometry(torus, FLAT22, (0.5, 1.1)).pu_gap <= 1e-8
    rect = Immersion(2, ("cos(u1)", "sin(u1)", "2*cos(u2)", "2*sin(u2)"))
    pg = point_geometry(rect, FLAT22, (0.5, 1.1))
    assert not pg.pu_gap <= 1e-8
    assert abs(pg.pu_gap - 0.1875) <= 1e-9
    sphere = Immersion(2, ("sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"))
    assert point_geometry(sphere, FLAT21, (0.8, 0.3)).pu_gap <= 1e-8


def test_decompose_circle():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    pg = point_geometry(imm, FLAT11, (0.0,))
    phi, omega, bm, cm = pg.phi, pg.omega, pg.Bm, pg.Cm
    assert np.allclose(phi, [[-1.0]], atol=1e-13)
    assert np.allclose(omega, [[0.0]], atol=1e-13)
    pg = point_geometry(imm, FLAT11, (math.pi / 4,))
    phi, omega, bm, cm = pg.phi, pg.omega, pg.Bm, pg.Cm
    assert np.allclose(phi, [[0.0]], atol=1e-13)
    assert abs(abs(omega[0, 0]) - 1.0) <= 1e-13
    # phi e = -cos(2u) e and omega e = -sin(2u) nu for the outward-normal frame
    for u in (0.1, 0.6, 1.2):
        pg = point_geometry(imm, FLAT11, (u,))
        assert abs(pg.phi[0, 0] + math.cos(2 * u)) <= 1e-12
        sign = math.copysign(1.0, pg.normal_on[0] @ [math.cos(u), math.sin(u)])
        assert abs(pg.omega[0, 0] + sign * math.sin(2 * u)) <= 1e-12


def test_decompose_semi_invariant_plane():
    r = repr(1 / math.sqrt(2))
    imm = Immersion(2, ("u1", f"{r}*u2", f"{r}*u2", "0"))
    pg = point_geometry(imm, FLAT22, (0.7, -0.4))
    assert np.allclose(pg.phi, np.diag([1.0, 0.0]), atol=1e-13)
    assert np.allclose(np.linalg.norm(pg.omega, axis=0), [0.0, 1.0], atol=1e-13)
    assert np.max(np.abs(pg.omega @ pg.phi)) <= 1e-13


def test_decompose_aligned_torus():
    imm = Immersion(2, ("cos(u1)", "sin(u1)", "cos(u2)", "sin(u2)"))
    pg = point_geometry(imm, FLAT22, (0.5, 1.1))
    assert np.allclose(pg.phi, np.diag([1.0, -1.0]), atol=1e-13)
    assert np.max(np.abs(pg.omega)) <= 1e-13


@pytest.mark.parametrize(
    "label,expected",
    [
        ("square-torus-aligned", "invariant"),
        ("diagonal-line", "anti-invariant"),
        ("circle", "generic"),
        ("semi-invariant-plane", "proper semi-invariant"),
    ],
)
def test_classify_examples(label, expected):
    scn = catalog_get(label)
    result = classify(scn.immersion, scn.space)
    assert result.classification == expected


def test_classify_reports_distribution_dimensions():
    scn = catalog_get("semi-invariant-plane")
    result = classify(scn.immersion, scn.space)
    assert (result.dim_d, result.dim_d_perp) == (1, 1)
    circle = catalog_get("circle")
    result = classify(circle.immersion, circle.space)
    assert result.dim_d is None
    assert result.points["rank_phi"] == [1, 1, 0]


def test_semi_invariance_needs_a_constant_rank():
    # omega.phi vanishes at u = 0 and pi/4 on the circle, where phi has rank
    # 1 and then 0: the rank is not constant, so the circle is not
    # semi-invariant at these samples
    circle = catalog_get("circle")
    result = classify(circle.immersion, circle.space, samples=[(0.0,), (math.pi / 4,)])
    assert max(result.points["norms"]["omega_phi"]) <= 1e-8
    assert result.points["rank_phi"] == [1, 0]
    assert (result.classification, result.dim_d) == ("generic", None)


def test_classify_flags_single_sample():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    result = classify(imm, FLAT11, samples=[(0.3,)])
    assert result.insufficient_samples


def test_structural_identities_every_catalog_sample():
    for label in catalog_list():
        scn = catalog_get(label)
        for u in scn.samples:
            geo = _JetGeometry(scn.immersion, scn.space, [u])
            n, m = geo.n, geo.m
            hcomp, E0, Xi0 = geo.hcomp0[0], geo.E0[0], geo.Xi0[0]
            # h symmetry
            assert np.max(np.abs(hcomp - np.transpose(hcomp, (0, 2, 1)))) <= 1e-10
            # duality g(A_xi e_a, e_b) = h components, via the Weingarten route
            # in operator form, A_xi X = P_T (D_X P_T) xi
            d_e = _operator_derivatives(geo)[0][0]  # [a]: D_{e_a} P_T
            for alpha in range(m):
                for a in range(n):
                    comps = E0 @ geo.g0[0] @ d_e[a] @ Xi0[alpha]
                    assert np.max(np.abs(comps - hcomp[alpha, a])) <= 1e-10, label
            # adjointness
            phi, om, bm, cm = geo.phi0[0], geo.omega0[0], geo.B0[0], geo.C0[0]
            assert np.max(np.abs(phi - phi.T)) <= 1e-10
            assert np.max(np.abs(cm - cm.T)) <= 1e-10
            assert np.max(np.abs(bm - om.T)) <= 1e-10
            # F^2 = I block identities
            assert np.max(np.abs(phi @ phi + bm @ om - np.eye(n))) <= 1e-10
            assert np.max(np.abs(om @ phi + cm @ om)) <= 1e-10
            assert np.max(np.abs(phi @ bm + bm @ cm)) <= 1e-10
            assert np.max(np.abs(om @ bm + cm @ cm - np.eye(m))) <= 1e-10
            # completeness: F e_a reassembles from the frame components
            for a in range(n):
                fe = geo.F0[0] @ E0[a]
                rebuilt = phi[:, a] @ E0 + om[:, a] @ Xi0
                assert np.max(np.abs(fe - rebuilt)) <= 1e-12


def _parameters_reversed(imm):
    """The immersion with u_a renamed u_(n+1-a) and each sample reversed: the
    same points, with the coordinate tangent fields in reverse order."""
    n = imm.n
    components = tuple(re.sub(r"\bu(\d+)\b", lambda v: f"u{n + 1 - int(v.group(1))}", ex.pretty(c))
                       for c in imm.components)
    return Immersion(n, components, tuple(s[::-1] for s in imm.samples), imm.label)


def test_frame_choice_independence():
    # the frames start from the tangent columns in parameter order, so a
    # reversed parametrization builds them from the columns reversed
    for label in ("circle", "square-torus-rotated", "sphere", "curved-block"):
        scn = catalog_get(label)
        fwd = classify(scn.immersion, scn.space)
        rev = classify(_parameters_reversed(scn.immersion), scn.space)
        assert fwd.classification == rev.classification
        for name in ("phi", "omega", "mean_curvature_sq"):
            for a, b in zip(fwd.points["norms"][name], rev.points["norms"][name]):
                assert abs(a - b) <= 1e-9, (label, name)
        assert fwd.points["rank_phi"] == rev.points["rank_phi"], label
        fwd_pu, rev_pu = (r.points["flags"]["pseudo_umbilical"] for r in (fwd, rev))
        assert fwd_pu == rev_pu, label


def test_overflowing_induced_metric_is_a_degenerate_immersion():
    # a finite Jacobian of size 1e155 gives g(T, T) ~ 1e310: no frame is built
    # from it, and the first such point is named (1e150 is a circle like any)
    def circle(radius):
        return Immersion(1, (f"{radius}*cos(u1)", f"{radius}*sin(u1)"),
                         samples=((0.3,), (1.0,), (2.0,)))

    huge = circle("1e155")
    message = r"^induced metric is not finite at u = \(0\.3,\)$"
    for call in (lambda: classify(huge, FLAT11), lambda: verify(FLAT11, huge),
                 lambda: point_geometry(huge, FLAT11, (0.3,))):
        with pytest.raises(DegenerateImmersion, match=message):
            call()
    large = circle("1e150")
    assert classify(large, FLAT11).classification == "generic"
    pg = point_geometry(large, FLAT11, (0.3,))
    assert np.allclose(pg.tangent_on, [[-math.sin(0.3), math.cos(0.3)]], atol=1e-12)


def test_dimension_mismatch_between_immersion_and_space():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    with pytest.raises(ValueError):
        point_geometry(imm, FLAT21, (0.0,))


def test_geometry_jets_seed_only_the_parameters():
    # n seed directions: an n=2 jet carries 6 coefficients at order 2
    for label in catalog_list():
        scn = catalog_get(label)
        n = scn.immersion.n
        geo = _JetGeometry(scn.immersion, scn.space, [scn.samples[0]])
        assert geo.f.nvars == n, label
        assert geo.f.coeffs.shape[-1] == math.comb(n + 2, 2), label
        assert geo.f.shape == (1, geo.N), label


def test_non_finite_sample_is_a_value_error_naming_it():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    samples = [(0.1,), (math.nan,)]
    for call in (
        lambda: classify(imm, FLAT11, samples),
        lambda: verify(FLAT11, imm, samples),
        lambda: point_geometry(imm, FLAT11, samples[1]),
        lambda: Immersion(1, imm.components, samples=((math.inf,),)),
    ):
        with pytest.raises(ValueError, match=r"^sample point \((nan|inf),\) is not finite$") as err:
            call()
        assert not isinstance(err.value, DegenerateImmersion)


@pytest.mark.parametrize("samples", [
    [(0.1, 0.2)],  # one point with two coordinates
    [[[0.1]], [[0.2]]],  # points nested one level too deep
    [(0.1,), (0.2, 0.3)],  # ragged
    [0.1, 0.2],  # flat: numbers, not points
    [((0.1,), 0.2)],  # a coordinate that is a sequence
], ids=["two-coordinates", "nested", "ragged", "flat", "nested-coordinate"])
def test_every_sample_is_a_sequence_of_n_coordinates(samples):
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    for call in (
        lambda: classify(imm, FLAT11, samples),
        lambda: verify(FLAT11, imm, samples),
        lambda: Immersion(1, imm.components, samples=samples),
    ):
        with pytest.raises(ValueError, match=r"^sample .* does not have 1 coordinates$"):
            call()


@pytest.mark.parametrize("samples", [
    ((0.3, -0.0), (1e-300, 2.5)),
    np.array([[0.3, -0.1], [1.0, 2.5]], dtype=np.float32),
    [(1, 2), (-3, 0)],
    [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(5), Fraction(1, 10))],
], ids=["float-tuples", "float32-array", "int-tuples", "fraction-tuples"])
def test_samples_become_the_float_array_of_their_coordinates(samples):
    u = _points(samples, 2)
    assert u.dtype == np.float64 and u.shape == (2, 2)
    expected = np.array([[float(c) for c in s] for s in samples])
    assert np.array_equal(u, expected) and np.array_equal(np.signbit(u), np.signbit(expected))
    imm = Immersion(2, ("u1", "u2", "u1*u2", "0"), samples=samples)
    assert imm.samples == tuple(map(tuple, expected.tolist()))


@pytest.mark.parametrize("coordinate", [None, "0.2", 1 + 2j], ids=["none", "string", "complex"])
def test_a_coordinate_that_is_not_a_real_number_is_a_value_error_naming_the_sample(coordinate):
    imm = Immersion(2, ("u1", "u2", "u1*u2", "0"))
    samples = [(0.3, 0.4), (0.1, coordinate)]
    for call in (
        lambda: classify(imm, FLAT22, samples),
        lambda: point_geometry(imm, FLAT22, samples[1]),
        lambda: Immersion(2, imm.components, samples=samples),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"sample {(0.1, coordinate)} has a coordinate that is not a real number"


def test_non_finite_metric_is_rejected_by_the_geometry():
    from prodgeo.ambient import SingularMetric

    space = product_of([["1e308 * 10 + x1 * 0", "0"], ["0", "1"]], 2, "flat", 1)
    imm = Immersion(2, ("u1", "u2", "0"))
    with pytest.raises(SingularMetric, match="not finite"):
        _JetGeometry(imm, space, [(0.1, 0.2)])


def test_metric_not_finite_at_one_sample_is_singular():
    from prodgeo.ambient import SingularMetric

    # exp(1000 x1) overflows at the middle sample only
    space = product_of([["exp(1000 * x1)", "0"], ["0", "1"]], 2, "flat", 1)
    imm = Immersion(2, ("u1", "u2", "0"), samples=((0.1, 0.2), (1.0, 0.3), (0.2, 0.1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularMetric, match="not finite"):
            classify(imm, space)


def test_singular_metric_names_the_first_failing_point():
    from prodgeo.ambient import SingularMetric

    imm = Immersion(2, ("u1", "u2", "0"), samples=((0.1, 0.2), (1.01, 0.3), (-0.5, 0.1)))
    at = r"at u = \(1\.01, 0\.3\), x = \(1\.01, 0\.3, 0\.0\)$"
    cases = [
        ("exp(1000 * x1)", r"^ambient metric is not finite along the immersion " + at),
        ("1 + 1e-10 * exp(700 * x1)", r"^ambient metric derivative is not finite along the immersion " + at),
    ]
    for entry, message in cases:
        space = product_of([[entry, "0"], ["0", "1"]], 2, "flat", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMetric, match=message):
                classify(imm, space)
    space = product_of([["x1", "0"], ["0", "1"]], 2, "flat", 1)
    with pytest.raises(SingularMetric, match=r"^ambient metric is not positive definite along "
                       r"the immersion at u = \(-0\.5, 0\.1\), x = \(-0\.5, 0\.1, 0\.0\)$"):
        classify(imm, space, samples=[(0.5, 0.2), (-0.5, 0.1)])


@pytest.mark.parametrize("entry", ["0 * exp(1000 * x1)", "1e-10 * exp(700 * x1)"])
def test_non_finite_structure_fails_validation_without_strict(entry):
    # a structure (NaN at x1 = 1.01) or a structure derivative (infinite
    # there) that is not finite leaves nothing to verify: the failed report
    # is raised even without strict, and no warning is given
    space = AmbientSpace(2, [["1", "0"], ["0", "1"]], [["1", entry], ["0", "-1"]])
    imm = Immersion(1, ("u1", "0.5 * u1"), samples=((0.1,), (1.01,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AmbientValidationFailure) as err:
            _JetGeometry(imm, space, np.array(imm.samples))
    assert not err.value.report.passed and not err.value.report.residuals_finite


def test_constant_metric_derivative_table_keeps_the_connection():
    # every entry of the derivative of 1 + x1 is a constant, and not zero:
    # the table has the point axis like any other, and the space is curved
    space = product_of([["1 + x1", "0"], ["0", "1"]], 2, "flat", 1)
    imm = Immersion(2, ("u1", "0.3 * u1 + sin(u2)", "u2 + 0.2 * u1 * u2"),
                    samples=((0.1, 0.2), (0.7, -0.4)))
    geo = _JetGeometry(imm, space, np.array(imm.samples))
    assert geo.dg0.shape == (2, 3, 3, 3) and not geo.flat
    assert np.abs(geo.GammaE0).max() > 0.1
    outcome = verify(space, imm)
    assert all(report.max_residual <= 1e-12 for report in outcome.lemmas.values())


def _record_builds(monkeypatch) -> list:
    """The geometries built from now on, in the order of their builds."""
    built = []
    build = _JetGeometry.__init__

    def recording_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(_JetGeometry, "__init__", recording_build)
    return built


def test_immersion_jet_has_order_two_at_every_entry_point(monkeypatch):
    # the identities read first derivatives of the frames only, so a
    # classification and a full verification build the same geometry
    built = _record_builds(monkeypatch)
    scn = catalog_get("curved-block")
    classify(scn.immersion, scn.space)
    verify(scn.space, scn.immersion)
    verify(scn.space, scn.immersion, lemmas=False, theorems=False)
    point_geometry(scn.immersion, scn.space, scn.samples[0])
    assert [geo.f.order for geo in built] == [2, 2, 2, 2]


def test_classification_builds_no_derivative_jet(monkeypatch):
    # the derivatives of the projectors are taken for the identities only
    calls = []
    original = calculus._operator_derivatives
    monkeypatch.setattr(calculus, "_operator_derivatives",
                        lambda geo: calls.append(geo) or original(geo))
    # a connection that does not vanish, and a flat product
    cases = [(catalog_get("curved-block").space, catalog_get("curved-block").immersion),
             (FLAT22, random_trig_immersion(4, 6))]
    for space, imm in cases:
        classify(imm, space)
        verify(space, imm, lemmas=False, theorems=False)
    assert calls == []
    for space, imm in cases:
        verify(space, imm, theorems=False)
    assert len(calls) == len(cases)


@pytest.mark.parametrize("u", [(0.3, 0.4), [(0.3, 0.4, 0.5)]])
def test_geometry_takes_a_batch_of_points_only(u):
    # one point is a batch of one, (1, n); a row of n + 1 coordinates is no point
    imm = Immersion(2, ("u1", "u2", "0"))
    with pytest.raises(ValueError, match=r"^sample .* does not have 2 coordinates$"):
        _JetGeometry(imm, FLAT21, u)


def _point_cases():
    cases = [(scn.space, scn.immersion) for scn in map(catalog_get, catalog_list())]
    cases.append(corrupted_lemma_case())
    return cases + seed_one_grids()  # 64 points, where a stacked matmul may take another kernel


def test_point_geometry_is_a_row_of_the_batch():
    for space, imm in _point_cases():
        geo = _JetGeometry(imm, space, imm.samples)
        for index, u in enumerate(imm.samples):
            pg = point_geometry(imm, space, u)
            row = {"u": geo.points[index], "x": geo.x0[index], "tangent_on": geo.E0[index],
                   "normal_on": geo.Xi0[index], "induced_metric": geo.G0[index],
                   "ambient_metric": geo.g0[index], "h": geo.hcomp0[index],
                   "H": geo.H0[index], "phi": geo.phi0[index], "omega": geo.omega0[index],
                   "Bm": geo.B0[index], "Cm": geo.C0[index], "H_norm": geo.H_norm[index],
                   "pu_gap": geo.pu_gap[index]}
            for name, want in row.items():
                assert np.array_equal(getattr(pg, name), want), (imm.label, u, name)


def test_point_predicates_read_the_classification_measures():
    for label in catalog_list():
        scn = catalog_get(label)
        for tol in (1e-8, 1e-3):
            result = classify(scn.immersion, scn.space, tol=tol)
            flags = result.points["flags"]
            for u, minimal, pu in zip(scn.samples, flags["minimal"], flags["pseudo_umbilical"]):
                pg = point_geometry(scn.immersion, scn.space, u)
                assert (pg.H_norm <= tol) == minimal, (label, u, tol)
                assert (pg.pu_gap <= tol) == pu, (label, u, tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_classify_rejects_a_tolerance_verify_rejects(tol):
    # a NaN threshold passed nothing and an infinite one everything, so the
    # invariant torus read generic, or invariant with every point minimal
    scn = catalog_get("square-torus-aligned")
    with pytest.raises(ValueError, match=re.escape(f"tol must be a positive finite number, got {tol!r}")):
        classify(scn.immersion, scn.space, tol=tol)
    with pytest.raises(ValueError, match=re.escape(f"classify_tol must be a positive finite number, got {tol!r}")):
        Tolerances(classify_tol=tol)


@pytest.mark.parametrize("tol", [True, np.True_, "1e-8", 1e-8 + 0j, None])
def test_a_tolerance_that_is_a_bool_or_not_a_real_number_is_rejected(tol):
    # True passed as 1 and was reported as "identity_tol": true; the others
    # failed in a comparison with a TypeError
    scn = catalog_get("square-torus-aligned")
    for name in ("identity_tol", "classify_tol"):
        message = re.escape(f"{name} must be a positive finite number, got {tol!r}")
        with pytest.raises(ValueError, match=message):
            Tolerances(**{name: tol})
    message = re.escape(f"tol must be a positive finite number, got {tol!r}")
    with pytest.raises(ValueError, match=message):
        classify(scn.immersion, scn.space, tol=tol)


@pytest.mark.parametrize("tol", [Fraction(1, 10**8), np.float32(1e-8), 1, np.int64(1)])
def test_a_real_tolerance_is_used_as_a_float(tol):
    # a Fraction passed the check and then failed in numpy's square root of the rank threshold
    tolerances = Tolerances(identity_tol=tol, classify_tol=tol)
    assert (type(tolerances.identity_tol), type(tolerances.classify_tol)) == (float, float)
    assert tolerances == Tolerances(float(tol), float(tol))
    scn = catalog_get("circle")
    outcome = verify(scn.space, scn.immersion, tolerances=tolerances)
    assert outcome.classification == classify(scn.immersion, scn.space, tol=tol)
    floats = Tolerances(float(tol), float(tol))
    assert outcome == verify(scn.space, scn.immersion, tolerances=floats)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_class_helpers_reject_a_tolerance_classify_rejects(tol):
    # the public helpers that classify folds together: with a NaN
    # tolerance the invariant torus read generic with every rank 0
    scn = catalog_get("square-torus-aligned")
    geo = _JetGeometry(scn.immersion, scn.space, np.array(scn.samples))
    message = re.escape(f"tol must be a positive finite number, got {tol!r}")
    with pytest.raises(ValueError, match=message):
        classify_point(geo, tol)
    with pytest.raises(ValueError, match=message):
        aggregate_classification(classify_point(geo), scn.immersion.n, tol)


# ---- frames: the build against the Gram-Schmidt loop in jets ------------------


@lru_cache(maxsize=None)
def _frame_cases():
    """(label, space, immersion): the catalog, the corrupted ambient, 30
    random surfaces and a circle sampled at 0.3, pi/2 and 1.0, whose unit
    normal (cos u1, sin u1) turns from near e1 to e2 across them."""
    cases = [(label, catalog_get(label).space, catalog_get(label).immersion)
             for label in catalog_list()]
    cases.append(("corrupted",) + corrupted_lemma_case())
    cases += [(f"fuzz-{seed}", flat_product(2, 2), random_trig_immersion(seed, 16))
              for seed in range(30)]
    circle = Immersion(1, ("cos(u1)", "sin(u1)"), samples=((0.3,), (math.pi / 2,), (1.0,)))
    cases.append(("circle-e2", FLAT11, circle))
    return cases


def _frame_geometries():
    # each case as given and with its parameters, so its tangent columns, reversed
    for label, space, imm in _frame_cases():
        for parameters, source in (("forward", imm), ("reversed", _parameters_reversed(imm))):
            geo = _JetGeometry(source, space, np.array(source.samples))
            yield (label, parameters), space, geo


def _reference_tangent_frame(geo, space):
    """The tangent frame by modified Gram-Schmidt carried out in jets, one
    tangent column at a time in parameter order, g(e_a, .) beside it, and the
    smallest residual norm at each point.  The tangent columns and the metric
    are this function's own jets, from the immersion's jet and the metric
    table along it.
    """
    n, npts = geo.n, len(geo.u)
    tangents = taylor.swapaxes(taylor.array([taylor.partial(geo.f, a) for a in range(n)]), -1, -2)
    (metric,) = taylor.tables_at(space, ("metric",), geo.f.truncate(1))
    frames, lowered = [], []  # (P, 1, N) each
    smallest = np.full(npts, np.inf)
    for a in range(n):
        w = taylor.entry(tangents, ..., slice(a, a + 1), slice(None))
        for e, ge in zip(frames, lowered):
            w = w - taylor.entry(taylor.einsum("...i,...i->...", w, ge), ..., None) * e
        w_lowered = taylor.einsum("...ij,...kj->...ki", metric, w)
        nrm2 = taylor.einsum("...i,...i->...", w, w_lowered)
        smallest = np.minimum(smallest, np.sqrt(np.abs(nrm2.value[:, 0])))
        scale = taylor.entry(nrm2 ** -0.5, ..., None)
        frames.append(w * scale)
        lowered.append(w_lowered * scale)
    stacked = [taylor.swapaxes(taylor.array([taylor.entry(v, slice(None), 0) for v in vectors]), -1, -2)
               for vectors in (frames, lowered)]
    return stacked, smallest


def test_frames_match_the_gram_schmidt_loop_in_jets():
    # the build's tangent frame is the loop's values, its normal frame
    # completes it to a g-orthonormal basis, and the derivative of the
    # build's tangent projector is that of sum_a e_a g(e_a, .) over the loop's
    ill_conditioned = set()
    for key, space, geo in _frame_geometries():
        (frame, lowered), smallest = _reference_tangent_frame(geo, space)
        good = smallest >= 1e-3
        ill_conditioned |= {(key[0], int(p)) for p in np.flatnonzero(~good)}
        for got, want in zip((geo.E0, geo.E0 @ geo.g0), (frame, lowered)):
            scale = np.abs(want.value[good]).max(axis=(-2, -1))
            diff = np.abs(got - want.value)[good].max(axis=(-2, -1))
            assert (diff <= 1e-12 * scale).all(), key
        basis = np.concatenate([geo.E0, geo.Xi0], axis=-2)
        gram = basis @ (basis @ geo.g0).swapaxes(-1, -2)
        assert np.abs(gram - np.eye(geo.N)).max() <= 1e-12, key
        projector = taylor.einsum("...ai,...aj->...ij", frame, lowered)
        want = np.moveaxis(projector.gradient(), -1, 1)  # [a]: d_a P_T
        d_tan, _ = _operator_derivatives(geo)
        if not geo.flat:  # d_a P_T = D_a P_T - [Gamma_a, P_T]
            gamma, p_tan = geo.GammaE0.swapaxes(-1, -2), geo.P_tan0[:, None]
            d_tan = d_tan - gamma @ p_tan + p_tan @ gamma
        # from the tangent frame vectors to the coordinate directions, T_c = R[a, c] e_a
        d_tan = np.einsum("pac,pa...->pc...", geo.R, d_tan)
        scale = np.abs(want[good]).max(axis=(-3, -2, -1))
        diff = np.abs(d_tan - want)[good].max(axis=(-3, -2, -1))
        assert (diff <= 1e-9 * np.maximum(scale, 1.0)).all(), key
    # no case has nearly dependent tangent columns
    assert ill_conditioned == set()


def test_tiny_metric_builds_the_frames_of_flat_space():
    # a metric of scale 1e-20 and a circle of radius 1e6 have the lengths of
    # the unit circle in flat R x R: the frames are built, and the classes
    # and lemmas read the same as there.  The pseudo-umbilical flags and
    # T2-T4 threshold |H| absolutely, so they are not compared
    tiny = product_of([["1e-20"]], 1, [["1e-20"]], 1)
    circle = Immersion(1, ("1e6 * cos(u1)", "1e6 * sin(u1)"))
    unit = Immersion(1, ("cos(u1)", "sin(u1)"))
    samples = [(0.3,), (1.0,)]
    got, want = verify(tiny, circle, samples), verify(FLAT11, unit, samples)
    assert got.classification.classification == "generic"
    for name in ("phi", "omega"):
        got_norms, want_norms = (o.classification.points["norms"] for o in (got, want))
        for a, b in zip(got_norms[name], want_norms[name]):
            assert abs(a - b) <= 1e-12, name
    assert got.classification.points["rank_phi"] == want.classification.points["rank_phi"]
    assert all(report.passed for report in got.lemmas.values())


def test_immersion_names_the_first_unknown_variable():
    # x1 and u3 are both foreign to u1; the first in sorted order is named
    with pytest.raises(ex.UnknownVariable) as err:
        Immersion(1, ("x1 + u1", "u3"))
    assert err.value.name == "u3"
    # a constant component uses no variable and builds
    imm = Immersion(1, ("u1", "2.5", "-(1)"), samples=((0.4,),))
    assert imm.components[1:] == (ex.Num(2.5), ex.Neg(ex.Num(1.0)))
    assert np.array_equal(imm._plan({"u1": np.array([0.4])})[0], [[0.4, 2.5, -1.0]])
