"""Per-point submanifold geometry: frames, h, H, decompositions, classifier."""

import math

import numpy as np
import pytest

from prodgeo.ambient import product_of
from prodgeo.catalog import catalog_get, catalog_list
from prodgeo.subgeom import (
    DegenerateImmersion,
    Immersion,
    _JetGeometry,
    classify,
    is_minimal,
    is_pseudo_umbilical,
    point_geometry,
    pseudo_umbilical_gap,
)
from prodgeo.verify import verify

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
    assert is_minimal(point_geometry(plane, FLAT21, (0.1, 0.2)))
    circle = Immersion(1, ("cos(u1)", "sin(u1)"))
    assert not is_minimal(point_geometry(circle, FLAT11, (0.3,)))
    diag = Immersion(1, ("u1", "u1"))
    assert is_minimal(point_geometry(diag, FLAT11, (0.7,)))


def test_pseudo_umbilical_examples():
    plane = Immersion(2, ("u1", "u2", "0"))
    assert is_pseudo_umbilical(point_geometry(plane, FLAT21, (0.1, 0.2)))
    torus = Immersion(2, ("cos(u1)", "sin(u1)", "cos(u2)", "sin(u2)"))
    assert is_pseudo_umbilical(point_geometry(torus, FLAT22, (0.5, 1.1)))
    rect = Immersion(2, ("cos(u1)", "sin(u1)", "2*cos(u2)", "2*sin(u2)"))
    pg = point_geometry(rect, FLAT22, (0.5, 1.1))
    assert not is_pseudo_umbilical(pg)
    assert abs(pseudo_umbilical_gap(pg) - 0.1875) <= 1e-9
    sphere = Immersion(2, ("sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"))
    assert is_pseudo_umbilical(point_geometry(sphere, FLAT21, (0.8, 0.3)))


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
    assert [p.rank_phi for p in result.points] == [1, 1, 0]


def test_classify_flags_single_sample():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    result = classify(imm, FLAT11, samples=[(0.3,)])
    assert result.insufficient_samples


def geometry_of(label, u):
    scn = catalog_get(label)
    return _JetGeometry(scn.immersion, scn.space, u, order=2)


def test_structural_identities_every_catalog_sample():
    for label in catalog_list():
        scn = catalog_get(label)
        for u in scn.samples:
            geo = _JetGeometry(scn.immersion, scn.space, u, order=2)
            n, m = geo.n, geo.m
            # h symmetry
            assert np.max(np.abs(geo.hcomp0 - np.transpose(geo.hcomp0, (0, 2, 1)))) <= 1e-10
            # duality g(A_xi e_a, e_b) = h components, via the Weingarten route
            for alpha in range(m):
                for a in range(n):
                    weingarten = -geo.nabla_tan(geo.xi_field[alpha], geo.P[:, a])
                    comps = geo.E0 @ geo.g0 @ weingarten
                    assert np.max(np.abs(comps - geo.hcomp0[alpha, a])) <= 1e-10, label
            # adjointness
            assert np.max(np.abs(geo.phi0 - geo.phi0.T)) <= 1e-10
            assert np.max(np.abs(geo.C0 - geo.C0.T)) <= 1e-10
            assert np.max(np.abs(geo.B0 - geo.omega0.T)) <= 1e-10
            # F^2 = I block identities
            phi, om, bm, cm = geo.phi0, geo.omega0, geo.B0, geo.C0
            assert np.max(np.abs(phi @ phi + bm @ om - np.eye(n))) <= 1e-10
            assert np.max(np.abs(om @ phi + cm @ om)) <= 1e-10
            assert np.max(np.abs(phi @ bm + bm @ cm)) <= 1e-10
            assert np.max(np.abs(om @ bm + cm @ cm - np.eye(m))) <= 1e-10
            # completeness: F e_a reassembles from the frame components
            for a in range(n):
                fe = geo.F0 @ geo.E0[a]
                rebuilt = phi[:, a] @ geo.E0 + om[:, a] @ geo.Xi0
                assert np.max(np.abs(fe - rebuilt)) <= 1e-12


def test_frame_choice_independence():
    for label in ("circle", "square-torus-rotated", "sphere", "curved-block"):
        scn = catalog_get(label)
        fwd = classify(scn.immersion, scn.space, column_order="forward")
        rev = classify(scn.immersion, scn.space, column_order="reversed")
        assert fwd.classification == rev.classification
        for a, b in zip(fwd.points, rev.points):
            assert abs(a.phi_norm - b.phi_norm) <= 1e-9
            assert abs(a.omega_norm - b.omega_norm) <= 1e-9
            assert abs(a.mean_curvature_sq - b.mean_curvature_sq) <= 1e-9
            assert a.rank_phi == b.rank_phi
            assert a.pseudo_umbilical == b.pseudo_umbilical


def test_dimension_mismatch_between_immersion_and_space():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    with pytest.raises(ValueError):
        point_geometry(imm, FLAT21, (0.0,))


def test_geometry_jets_seed_only_the_parameters():
    # n seed directions: an n=2 jet carries 10 coefficients at order 3
    for label in catalog_list():
        scn = catalog_get(label)
        n = scn.immersion.n
        geo = _JetGeometry(scn.immersion, scn.space, scn.samples[0], order=3)
        fields = (geo.f, geo.T, geo.e_field, geo.xi_field, geo.G_field, geo.h_field, geo.H_field)
        assert all(field.nvars == n for field in fields), label
        assert geo.f.coeffs.shape[-1] == math.comb(n + 3, 3), label
        assert geo.T.shape == (n, geo.N) and geo.xi_field.shape == (geo.m, geo.N), label
        assert geo.h_field.shape == (n, n, geo.N) and geo.H_field.shape == (geo.N,), label


def test_non_finite_sample_is_a_value_error_naming_it():
    imm = Immersion(1, ("cos(u1)", "sin(u1)"))
    samples = [(0.1,), (math.nan,)]
    for call in (
        lambda: classify(imm, FLAT11, samples),
        lambda: verify(FLAT11, imm, samples),
        lambda: Immersion(1, imm.components, samples=((math.inf,),)),
    ):
        with pytest.raises(ValueError, match=r"^sample point \((nan|inf),\) is not finite$") as err:
            call()
        assert not isinstance(err.value, DegenerateImmersion)


def test_non_finite_metric_is_rejected_by_the_geometry():
    from prodgeo.ambient import SingularMetric

    space = product_of([["1e308 * 10 + x1 * 0", "0"], ["0", "1"]], 2, "flat", 1)
    imm = Immersion(2, ("u1", "u2", "0"))
    with pytest.raises(SingularMetric, match="not finite"):
        _JetGeometry(imm, space, (0.1, 0.2))


def test_metric_not_finite_at_one_sample_is_singular():
    from prodgeo.ambient import SingularMetric

    # exp(1000 x1) overflows at the middle sample only
    space = product_of([["exp(1000 * x1)", "0"], ["0", "1"]], 2, "flat", 1)
    imm = Immersion(2, ("u1", "u2", "0"), samples=((0.1, 0.2), (1.0, 0.3), (0.2, 0.1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularMetric, match="not finite"):
            classify(imm, space)
