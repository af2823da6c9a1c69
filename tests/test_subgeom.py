"""Per-point submanifold geometry: frames, h, H, decompositions, classifier."""

import math
import re
from functools import lru_cache

import numpy as np
import pytest

from prodgeo import expr as ex
from prodgeo import jets
from prodgeo.ambient import product_of
from prodgeo.calculus import lemma_tensors
from prodgeo.catalog import (
    catalog_get,
    catalog_list,
    corrupted_lemma_case,
    flat_product,
    random_trig_immersion,
)
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

from grids import seed_one_grids

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


def _row(m, index=0):
    """Row ``index`` of a per-point matrix; a constant one (no point axis) as it is."""
    return m if m.ndim == 2 else m[index]


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
            for alpha in range(m):
                for a in range(n):
                    along_e = geo.P[:, None, :, a] @ geo.nabla(geo.xi_field[:, alpha])
                    weingarten = -geo.project_tangent(along_e)[0, 0]
                    comps = E0 @ _row(geo.g0) @ weingarten
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
                fe = _row(geo.F0) @ E0[a]
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
    # n seed directions: an n=2 jet carries 6 coefficients at order 2
    for label in catalog_list():
        scn = catalog_get(label)
        n = scn.immersion.n
        geo = _JetGeometry(scn.immersion, scn.space, [scn.samples[0]])
        fields = (geo.f, geo.T, geo.e_field, geo.xi_field, geo.gE)
        assert all(field.nvars == n for field in fields), label
        assert geo.f.coeffs.shape[-1] == math.comb(n + 2, 2), label
        assert geo.T.shape == (1, n, geo.N) and geo.xi_field.shape == (1, geo.m, geo.N), label


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
        _JetGeometry(imm, space, [(0.1, 0.2)])


def test_metric_not_finite_at_one_sample_is_singular():
    from prodgeo.ambient import SingularMetric

    # exp(1000 x1) overflows at the middle sample only
    space = product_of([["exp(1000 * x1)", "0"], ["0", "1"]], 2, "flat", 1)
    imm = Immersion(2, ("u1", "u2", "0"), samples=((0.1, 0.2), (1.0, 0.3), (0.2, 0.1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularMetric, match="not finite"):
            classify(imm, space)


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


# the derivative jets of a geometry, built on first read
LAZY = ("T", "e_field", "xi_field", "gE")


def test_classification_builds_no_derivative_jet(monkeypatch):
    built = _record_builds(monkeypatch)
    # a connection that does not vanish, and a flat product
    cases = [(catalog_get("curved-block").space, catalog_get("curved-block").immersion),
             (FLAT22, random_trig_immersion(4, 6))]
    for space, imm in cases:
        classify(imm, space)
        verify(space, imm, lemmas=False, theorems=False)
    assert len(built) >= 4
    for geo in built:
        assert not set(LAZY) & set(vars(geo)), sorted(set(LAZY) & set(vars(geo)))


def test_lemma_tensors_build_the_derivative_jets_around_the_float_values():
    scn = catalog_get("curved-block")
    geo = _JetGeometry(scn.immersion, scn.space, scn.samples)
    assert not set(LAZY) & set(vars(geo))
    lemma_tensors(geo)
    assert set(LAZY) <= set(vars(geo))
    # each jet's value is the float value of the build, to roundoff
    for jet, value in ((geo.T, geo.J0.swapaxes(-1, -2)), (geo.e_field, geo.E0),
                       (geo.xi_field, geo.Xi0), (geo.gE, geo.lowered_frame0[..., : geo.n, :])):
        assert np.allclose(jet.value, value, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("u", [(0.3, 0.4), [(0.3, 0.4, 0.5)]])
def test_geometry_takes_a_batch_of_points_only(u):
    # one point is a batch of one, (1, n); a row of n + 1 coordinates is no point
    imm = Immersion(2, ("u1", "u2", "0"))
    with pytest.raises(ValueError, match=r"^sample points must have shape \(P, 2\)"):
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
                   "ambient_metric": _row(geo.g0, index), "h": geo.hcomp0[index],
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
            for u, record in zip(scn.samples, result.points):
                pg = point_geometry(scn.immersion, scn.space, u)
                assert is_minimal(pg, tol) == record.minimal, (label, u, tol)
                assert is_pseudo_umbilical(pg, tol) == record.pseudo_umbilical, (label, u, tol)
                assert (pseudo_umbilical_gap(pg) <= tol) == record.pseudo_umbilical, (label, u)


# ---- frames: closed-form jets against the Gram-Schmidt loop in jets ----------


@lru_cache(maxsize=None)
def _frame_cases():
    """(label, space, immersion): the catalog, the corrupted ambient, 30
    random surfaces and a circle whose normal frame is completed by e1 at
    0.3 and by e2 at pi/2 and 1.0."""
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
            yield (label, parameters), geo


def _reference_frames(geo):
    """The frames by masked modified Gram-Schmidt carried out in jets, and the
    smallest accepted residual norm at each point.  The candidates are the
    tangent columns in parameter order and then, per point, the axes in the
    order ``geo.V0`` records for the normal slots.

    Slot s of ``frames`` holds the s-th frame vector once filled and zero
    before; ``filled`` counts the slots of each point and ``lowered`` holds
    g(e_s, .) beside each slot.
    """
    n, N, shape = geo.n, geo.N, geo.u.shape[:-1]
    tangents = geo.T
    frames = lowered = jets.Jet(tangents.alg, np.zeros(shape + (N, N, tangents.alg.size)))
    filled = np.zeros(shape, dtype=int)
    smallest = np.full(shape, np.inf)
    axes = [geo.V0[..., s, :] for s in range(n, N)]
    for k, vec in enumerate([tangents[..., c, :] for c in range(n)] + axes):
        if k >= n and (filled == N).all():
            break
        w = vec
        for slot in range(int(filled.max())):
            ip = jets.einsum("...i,...i->...", w, lowered[..., slot, :])
            w = w - ip[..., None] * frames[..., slot, :]
        w_lowered = jets.einsum("...ij,...j->...i", geo.gf, w)
        nrm2 = jets.einsum("...i,...i->...", w, w_lowered)
        value = nrm2.coeffs[..., 0]
        accept = np.ones(shape, dtype=bool) if k < n else (value >= 1e-8 ** 2) & (filled < N)
        smallest = np.where(accept, np.minimum(smallest, np.sqrt(np.abs(value))), smallest)
        # a rejected candidate gets a unit norm, then a zero weight
        scale = ((nrm2 + np.where(accept, 0.0, 1.0)) ** -0.5)[..., None]
        weight = ((np.arange(N) == filled[..., None]) & accept[..., None])[..., None]
        frames = frames + (w * scale)[..., None, :] * weight
        lowered = lowered + (w_lowered * scale)[..., None, :] * weight
        filled = filled + accept
    assert (filled == N).all()
    return (frames[..., :n, :], frames[..., n:, :], lowered[..., :n, :]), smallest


def test_frames_match_the_gram_schmidt_loop_in_jets():
    ill_conditioned = set()
    for key, geo in _frame_geometries():
        fields, smallest = _reference_frames(geo)
        good = smallest >= 1e-3
        ill_conditioned |= {(key[0], int(p)) for p in np.flatnonzero(~good)}
        for got, want in zip((geo.e_field, geo.xi_field, geo.gE), fields):
            assert got.shape == want.shape and got.order == want.order == 1, key
            scale = np.abs(want.coeffs[good]).max(axis=(-3, -2, -1))
            diff = np.abs(got.coeffs - want.coeffs)[good]
            assert (diff[..., 0].max(axis=(-2, -1)) <= 1e-12 * scale).all(), key
            assert (diff[..., 1:].max(axis=(-3, -2, -1)) <= 1e-9 * scale).all(), key
    # the pivoted completion leaves no ill-conditioned point
    assert ill_conditioned == set()


def test_frames_are_orthonormal_to_first_order():
    for key, geo in _frame_geometries():
        frames = jets.Jet(geo.e_field.alg,
                          np.concatenate([geo.e_field.coeffs, geo.xi_field.coeffs], axis=-3))
        lowered = jets.einsum("...ij,...sj->...si", geo.gf, frames)
        gram = jets.einsum("...ri,...si->...rs", frames, lowered)
        assert np.abs(gram.coeffs[..., 1:]).max() <= 1e-9, key


def test_frame_completion_failure_keeps_its_message():
    # under a metric of scale 1e-20 no coordinate axis has the accepted length
    tiny = product_of([["1e-20"]], 1, [["1e-20"]], 1)
    circle = Immersion(1, ("1e6 * cos(u1)", "1e6 * sin(u1)"))
    with pytest.raises(DegenerateImmersion, match="^could not complete the normal frame$"):
        _JetGeometry(circle, tiny, [(0.3,), (1.0,)])


def test_pivoted_completion_takes_the_longest_residual():
    # under the identity metric the squared residuals of the N axes against
    # the filled slots sum to the number of slots left to fill, so the axis
    # taken for a normal slot has a residual of at least 1/sqrt(N); that
    # residual is g(e_s, V0[s]), the candidate's length along its frame vector
    cases = [(catalog_get(label).space, catalog_get(label).immersion) for label in catalog_list()]
    cases += [(flat_product(2, 2), random_trig_immersion(seed, 16)) for seed in range(30)]
    checked = 0
    for space, imm in cases:
        geo = _JetGeometry(imm, space, np.array(imm.samples))
        if not geo.unit_metric:
            continue
        residual = (geo.Xi0 * geo.V0[..., geo.n :, :]).sum(axis=-1)
        assert residual.min() >= (1.0 - 1e-12) / math.sqrt(geo.N), imm.label
        checked += 1
    assert checked >= 30 + len(catalog_list()) - 1
