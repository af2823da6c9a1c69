"""Ambient spaces: construction, Christoffels, covariant derivative, validation.

The Christoffel symbols are those of :func:`levi_civita` on the space's
metric tables, and the covariant derivative of an operator field along a
curve, D M = d M + [Gamma, M], is that of
``calculus._operator_derivatives`` on the curve as a one-dimensional
immersion.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from prodgeo import ambient, calculus, jets
from prodgeo import expr as ex
from prodgeo.ambient import (
    AmbientSpace,
    AmbientValidationReport,
    BlockVariableLeak,
    SingularMetric,
    ambient_vars,
    leading_minors,
    levi_civita,
    positive_definite,
    product_of,
)
from prodgeo.catalog import catalog_get, flat_product
from prodgeo.subgeom import Immersion, _JetGeometry

from controls import (
    block_mixing_case,
    constant_reflection_space,
    position_reflection_space,
    rotation_structure_space,
)
from oracle import fd_directional
from validation import validate_at
import taylor


def sphere_block_space():
    return product_of([["1", "0"], ["0", "sin(x1)^2"]], 2, "flat", 1)


def _metric(sp, x):
    return sp.tables(("metric",), np.asarray(x, dtype=float))[0]


def _christoffel(sp, x):
    g, dg = sp.tables(("metric", "metric_diff"), np.asarray(x, dtype=float))
    return levi_civita(np.linalg.inv(g), dg)


def test_product_of_r1_r1():
    sp = product_of("flat", 1, "flat", 1)
    x = np.array([0.3, -0.7])
    assert np.array_equal(_metric(sp, x), np.eye(2))
    assert np.array_equal(sp.tables(("structure",), x)[0], np.diag([1.0, -1.0]))
    assert sp.product_split == (1, 1)


def test_product_of_r2_r2_flat_christoffels():
    sp = product_of("flat", 2, "flat", 2)
    assert np.array_equal(sp.tables(("structure",), np.zeros(4))[0], np.diag([1.0, 1.0, -1.0, -1.0]))
    assert np.max(np.abs(_christoffel(sp, [0.2, 0.4, -1.0, 2.0]))) == 0.0


def test_sphere_block_christoffels():
    sp = sphere_block_space()
    gamma = _christoffel(sp, [math.pi / 4, 0.8, -0.3])
    assert abs(gamma[0, 1, 1] - (-0.5)) <= 1e-12
    assert abs(gamma[1, 0, 1] - 1.0) <= 1e-12
    assert abs(gamma[1, 1, 0] - 1.0) <= 1e-12


def test_block_variable_leak():
    with pytest.raises(BlockVariableLeak):
        product_of([["1", "0"], ["0", "sin(x3)^2"]], 2, "flat", 1)
    with pytest.raises(BlockVariableLeak):
        product_of("flat", 1, [["1 + x1^2"]], 1)


def test_metric_symmetry_enforced():
    with pytest.raises(ValueError):
        AmbientSpace(2, [["1", "x1"], ["0", "1"]], [["1", "0"], ["0", "-1"]])


def test_christoffel_symmetry_random_metric():
    sp = AmbientSpace(
        2,
        [["1 + 0.2*sin(x2)", "0.1*x1*x2"], ["0.1*x1*x2", "1 + 0.2*cos(x1)"]],
        [["1", "0"], ["0", "-1"]],
    )
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-0.8, 0.8, 2)
        gamma = _christoffel(sp, x)
        assert np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1)))) <= 1e-14


@pytest.mark.parametrize("ginv_points", [(64,), ()])
def test_levi_civita_is_the_einsum_over_the_lowered_symbols(ginv_points):
    # one matmul over the contracted axis, on a batch of points or one inverse
    # metric shared by all of them, in C order
    rng = np.random.default_rng(43)
    ginv, dg = rng.uniform(-1, 1, ginv_points + (3, 3)), rng.uniform(-1, 1, (64, 3, 3, 3))
    swapped = dg.swapaxes(-3, -2)  # d_j g_lk at [l, j, k]
    lowered = swapped + swapped.swapaxes(-2, -1) - dg
    gamma = levi_civita(ginv, dg)
    assert gamma.shape == (64, 3, 3, 3) and gamma.flags.c_contiguous
    assert np.max(np.abs(gamma - 0.5 * np.einsum("...il,...ljk->...ijk", ginv, lowered))) <= 1e-14


def test_christoffel_matches_finite_differences():
    sp = sphere_block_space()
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = np.array([rng.uniform(0.4, 2.6), rng.uniform(-2, 2), rng.uniform(-2, 2)])
        gamma = _christoffel(sp, x)
        n = sp.dim
        dg = np.empty((n, n, n))
        for l in range(n):
            direction = np.eye(n)[l]
            dg[l] = fd_directional(lambda p: _metric(sp, p), x, direction, 1)
        ginv = np.linalg.inv(_metric(sp, x))
        expected = 0.5 * (
            np.einsum("il,jlk->ijk", ginv, dg)
            + np.einsum("il,klj->ijk", ginv, dg)
            - np.einsum("il,ljk->ijk", ginv, dg)
        )
        assert np.max(np.abs(gamma - expected)) <= 1e-6


def test_singular_metric_raises():
    sp = AmbientSpace(2, [["x1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]])
    line = Immersion(1, ("u1", "1"))  # through (x1, 1)
    for x in ([0.0, 1.0], [-1.0, 1.0]):
        assert not validate_at(sp, [x]).positive_definite
        with pytest.raises(SingularMetric):
            _JetGeometry(line, sp, [x[:1]])


def test_cov_derivative_constant_field_flat():
    sp = product_of("flat", 1, "flat", 1)
    # the line through (0.3, 0.4) with velocity (1, 0): its tangent projector
    # and F are constant fields along it, of zero derivative
    geo = _JetGeometry(Immersion(1, ("0.3 + u1", "0.4")), sp, [[0.0]])
    for derivative in calculus._operator_derivatives(geo):
        assert np.array_equal(derivative, np.zeros((1, 1, 2, 2)))


def test_cov_derivative_position_field_along_circle():
    sp = product_of("flat", 1, "flat", 1)
    # the unit circle through (1, 0) with velocity (0, 1): its normal
    # projector is x x^T, whose derivative takes the position x to the
    # velocity, (D P_N) x = -(D P_T) x
    geo = _JetGeometry(Immersion(1, ("cos(u1)", "sin(u1)")), sp, [[0.0]])
    d_tan, _ = calculus._operator_derivatives(geo)
    assert np.allclose(-d_tan[0, 0] @ geo.x0[0], [0.0, 1.0], atol=1e-15)


def test_cov_derivative_rotating_frame():
    sp = product_of("flat", 1, "flat", 1)
    # the unit tangent e = (-sin u, cos u) turns at unit rate: (D P_T) e is
    # its derivative, -x, at u = 0
    geo = _JetGeometry(Immersion(1, ("cos(u1)", "sin(u1)")), sp, [[0.0]])
    d_tan, _ = calculus._operator_derivatives(geo)
    assert np.allclose(d_tan[0, 0] @ geo.E0[0, 0], [-1.0, 0.0], atol=1e-15)


def test_metric_compatibility_along_random_curves():
    # d_d g = g Gamma_d + Gamma_d^T g, with Gamma_d = Gamma(d, .) of the build
    sp = sphere_block_space()
    rng = np.random.default_rng(17)
    for _ in range(10):
        x0 = np.array([rng.uniform(0.4, 2.6), rng.uniform(-2, 2), rng.uniform(-2, 2)])
        d = rng.uniform(-1, 1, 3)
        vv = rng.uniform(-1, 1, 3)
        ww = rng.uniform(-1, 1, 3)
        (t,) = jets.seed_point([0.0], 1)
        (gj,) = taylor.tables_at(sp, ("metric",), taylor.array([x0[j] + d[j] * t for j in range(3)]))
        g_vw = None
        for i in range(3):
            for j in range(3):
                term = taylor.entry(gj, i, j) * (vv[i] * ww[j])
                g_vw = term if g_vw is None else g_vw + term
        lhs = g_vw.gradient()[0]
        # the same curve as an immersion, with the direction d/du1 = d
        line = Immersion(1, tuple(f"{float(x0[j])!r} + {float(d[j])!r} * u1" for j in range(3)))
        geo = _JetGeometry(line, sp, [[0.0]])
        # [i, k] = Gamma^i_jk d^j, from Gamma(e_1, .) and d = T_1 = R[0, 0] e_1
        gamma_d = geo.R[0, 0, 0] * geo.GammaE0[0, 0].T
        g0 = _metric(sp, x0)
        rhs = vv @ (g0 @ gamma_d + gamma_d.T @ g0) @ ww
        assert abs(lhs - rhs) <= 1e-8


def test_validate_product_spaces_pass_tightly():
    rng = np.random.default_rng(3)
    for sp, box in [
        (product_of("flat", 1, "flat", 1), [(-2, 2)] * 2),
        (product_of("flat", 2, "flat", 2), [(-2, 2)] * 4),
        (sphere_block_space(), [(0.3, 2.8), (-2, 2), (-2, 2)]),
    ]:
        samples = [
            [rng.uniform(lo, hi) for lo, hi in box] for _ in range(20)
        ]
        report = validate_at(sp, samples)
        assert report.passed
        assert report.max_f_squared_residual <= 1e-12
        assert report.max_compat_residual <= 1e-12
        assert report.max_parallel_residual <= 1e-10
        assert not report.f_is_identity


def test_rotation_structure_fails_f_squared():
    report = validate_at(rotation_structure_space(), [[0.0, 0.0], [1.0, 2.0]])
    assert not report.passed
    assert report.max_f_squared_residual >= 1.0


def test_constant_reflection_passes_position_dependent_fails(monkeypatch):
    connections = []

    def counted(ginv, dg):
        connections.append(dg)
        return levi_civita(ginv, dg)

    monkeypatch.setattr(ambient, "levi_civita", counted)
    good = validate_at(constant_reflection_space(0.7), [[0.0, 0.0], [1.5, -2.0]])
    assert good.passed and not good.f_is_identity
    # with both derivative tables zero, nabla F is zero without a connection
    assert good.max_parallel_residual == 0.0
    for sp, samples in [
        (product_of("flat", 1, "flat", 1), [[0.3, -1.2]]),
        (product_of("flat", 2, "flat", 2), [[0.1, 0.2, 0.3, 0.4], [1.0, -1.0, 2.0, -2.0]]),
    ]:
        report = validate_at(sp, samples)
        assert report.passed and report.max_parallel_residual == 0.0
    assert connections == []
    bad = validate_at(position_reflection_space(), [[0.0, 0.0]])
    assert not bad.passed
    assert bad.max_parallel_residual >= 0.1
    # a varying structure and a curved block keep their reports; over a flat
    # metric nabla F is d F, without a connection
    assert bad == AmbientValidationReport(0.0, 0.0, 1.0, True, False, False)
    curved = validate_at(catalog_get("curved-block").space, [[0.3, 0.2, 0.9], [1.0, -0.5, 2.0]])
    assert curved == AmbientValidationReport(0.0, 0.0, 0.0, True, False, True)
    assert len(connections) == 1


@pytest.mark.parametrize("label, connections_computed", [("curved-block", 1), ("rect-torus", 0)])
@pytest.mark.parametrize("full", [True, False])
def test_verification_computes_the_connection_once(label, connections_computed, full, monkeypatch):
    # the geometry build computes the Christoffel symbols (in
    # AmbientSpace.at) and the ambient validation reads them; the identities
    # take no connection jet, and a flat product computes none
    from prodgeo.verify import verify

    connections = []

    def counted(ginv, dg):
        connections.append(dg)
        return levi_civita(ginv, dg)

    monkeypatch.setattr(ambient, "levi_civita", counted)
    scn = catalog_get(label)
    outcome = verify(scn.space, scn.immersion, lemmas=full, theorems=full)
    assert outcome.ambient_report.passed
    assert len(connections) == connections_computed


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("label", ["rect-torus", "curved-block"])
def test_verification_takes_one_positive_definiteness_sweep(label, full, monkeypatch):
    # one determinant call over the stacked leading blocks is one sweep: the
    # geometry build takes it, and its mask and the ambient report threshold
    # the same minors; a curved block takes one per document, and a constant
    # space (rect-torus's flat R^2 x R^2), freshly built, one for both
    from prodgeo.verify import verify

    sweeps = []
    det = np.linalg.det

    def counted(blocks):
        sweeps.append(blocks.shape)
        return det(blocks)

    monkeypatch.setattr(np.linalg, "det", counted)
    scn = catalog_get(label)
    space = replace(scn.space)  # nothing evaluated yet
    for _ in range(2):
        outcome = verify(space, scn.immersion, lemmas=full, theorems=full)
        assert outcome.ambient_report.passed and outcome.ambient_report.positive_definite
    assert space.constant == (label == "rect-torus")
    assert len(sweeps) == (1 if space.constant else 2)


def _counted_evaluations(monkeypatch) -> dict:
    """Counts of the ambient validations and Cholesky factorizations made
    from here on."""
    calls = {"validate": 0, "cholesky": 0}
    validate, cholesky = ambient.validate_ambient, np.linalg.cholesky

    def counted_validate(*args):
        calls["validate"] += 1
        return validate(*args)

    def counted_cholesky(g):
        calls["cholesky"] += 1
        return cholesky(g)

    monkeypatch.setattr(ambient, "validate_ambient", counted_validate)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    return calls


@pytest.mark.parametrize("label, evaluations", [
    ("rect-torus", 1), ("curved-block", 2), ("block-mixing-chart", 2),
])
def test_a_constant_space_is_evaluated_once_for_every_document(label, evaluations, monkeypatch):
    from prodgeo.verify import verify

    if label == "block-mixing-chart":
        space, imm = block_mixing_case()
    else:
        scn = catalog_get(label)
        space, imm = replace(scn.space), scn.immersion
    calls = _counted_evaluations(monkeypatch)
    reports = [verify(space, imm, lemmas=True, theorems=True).ambient_report for _ in range(2)]
    assert reports[0] == reports[1] and reports[0].passed
    assert calls == {"validate": evaluations, "cholesky": evaluations}


def test_a_constant_space_gives_read_only_arrays():
    space = flat_product(2, 2)
    for points in (np.zeros((3, 4)), np.full((2, 4), 0.5)):
        at = space.at(points)
        arrays = [a for a in at if isinstance(a, np.ndarray)]
        assert [a.shape[0] for a in arrays] == [len(points)] * len(arrays)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    scn = catalog_get("rect-torus")
    geo = _JetGeometry(scn.immersion, replace(scn.space), scn.samples)
    with pytest.raises(ValueError, match="read-only"):
        geo.g0[0, 0, 0] = 2.0
    # no points, or points of another size, fail as on a varying space
    with pytest.raises(ValueError, match="needs at least one sample point"):
        space.at(np.zeros((0, 4)))
    with pytest.raises(ValueError, match="expected a point with 4 coordinates"):
        space.at(np.zeros((2, 3)))


def test_identity_structure_is_flagged():
    sp = AmbientSpace(2, [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]])
    report = validate_at(sp, [[0.1, 0.2]])
    assert report.f_is_identity
    assert report.passed  # flag, not error


def test_structure_is_self_adjoint_on_valid_spaces():
    rng = np.random.default_rng(21)
    for sp, box in [
        (product_of("flat", 2, "flat", 2), [(-2, 2)] * 4),
        (sphere_block_space(), [(0.3, 2.8), (-2, 2), (-2, 2)]),
        (constant_reflection_space(1.1), [(-2, 2)] * 2),
    ]:
        for _ in range(10):
            x = np.array([rng.uniform(lo, hi) for lo, hi in box])
            g0, f0 = sp.tables(("metric", "structure"), x)
            assert np.max(np.abs(f0.T @ g0 - g0 @ f0)) <= 1e-10


@pytest.mark.parametrize("g", [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.inf]]])
def test_non_finite_metric_is_singular(g):
    assert not positive_definite(leading_minors(np.array(g)))


def _assert_finite_report(report):
    values = (report.max_f_squared_residual, report.max_compat_residual,
              report.max_parallel_residual)
    assert all(math.isfinite(v) for v in values)
    assert not report.passed


def test_overflowing_metric_fails_validation():
    sp = AmbientSpace(2, [["1e308 * 10 + x1 * 0", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]])
    report = validate_at(sp, [[0.1, 0.2], [0.5, -1.0]])
    assert not report.positive_definite
    _assert_finite_report(report)


def test_overflowing_structure_fails_validation():
    sp = AmbientSpace(2, [["1", "0"], ["0", "1"]], [["1e308 * 10 + x2 * 0", "0"], ["0", "-1"]])
    report = validate_at(sp, [[0.1, 0.2]])
    assert report.positive_definite
    _assert_finite_report(report)


def test_overflowing_residual_fails_validation():
    # finite entries whose F^2 overflows
    sp = AmbientSpace(2, [["1", "0"], ["0", "1"]], [["1e200", "0"], ["0", "-1"]])
    report = validate_at(sp, [[0.1, 0.2]])
    _assert_finite_report(report)


def test_non_finite_metric_derivative_fails_validation():
    # g_11 is about 1e7 at x1 = 1.01, its derivative overflows to inf
    sp = AmbientSpace(2, [["1 + 1e-300 * exp(700 * x1)", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]])
    report = validate_at(sp, [[1.01, 0.2]])
    assert report.positive_definite
    _assert_finite_report(report)


def test_ambient_validation_checks_each_sample_once(monkeypatch):
    import prodgeo.ambient as ambient

    checked = []  # the size of every mask returned: the samples checked
    check = ambient.positive_definite

    def counting(g, tol=1e-10):
        mask = check(g, tol)
        checked.append(mask.size)
        return mask

    monkeypatch.setattr(ambient, "positive_definite", counting)
    validate_at(sphere_block_space(), [[0.5, 0.1, 0.2], [1.0, 0.3, -0.4]])
    assert sum(checked) == 2


@pytest.mark.parametrize("upper, lower", [("0.5", "1/2"), ("0.1*x1*x2", "0.1*x2*x1")])
def test_metric_symmetry_is_decided_on_values(upper, lower):
    sp = AmbientSpace(2, [["2", upper], [lower, "2"]], [["1", "0"], ["0", "1"]])
    x = [[0.3, -0.7], [1.1, 0.4]]
    g = _metric(sp, x)
    assert np.array_equal(g, np.swapaxes(g, -2, -1))
    assert validate_at(sp, x).passed


def test_asymmetric_metric_is_rejected_by_validation_and_geometry():
    from prodgeo.subgeom import Immersion, _JetGeometry

    assert not positive_definite(leading_minors(np.array([[2.0, 0.1], [0.2, 2.0]])))
    assert positive_definite(leading_minors(np.array([[2.0, 0.1], [0.1, 2.0]])))
    # the mirrored entries agree for x1 >= 0 only
    sp = AmbientSpace(2, [["2", "0.1*x1"], ["0.1*sqrt(x1^2)", "2"]], [["1", "0"], ["0", "1"]])
    assert validate_at(sp, [[0.5, 0.2]]).passed
    report = validate_at(sp, [[0.5, 0.2], [-0.5, 0.2]])
    assert not report.positive_definite and not report.passed
    imm = Immersion(1, ("u1", "0.3*u1"))
    _JetGeometry(imm, sp, [[0.5]])
    with pytest.raises(SingularMetric, match="not positive definite"):
        _JetGeometry(imm, sp, [[0.5], [-0.5]])


def test_constant_tables_are_not_shared_with_callers():
    sp = constant_reflection_space()
    x = np.array([[0.3, -0.7]])
    g, f = sp.tables(("metric", "structure"), x)
    for table in (g, f):
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 5.0
    assert np.array_equal(_metric(sp, x), np.eye(2)[None])
    assert np.array_equal(sp.tables(("structure",), x)[0],
                          constant_reflection_space().tables(("structure",), x)[0])


@pytest.mark.parametrize("space", [rotation_structure_space, position_reflection_space])
def test_validation_needs_a_sample(space):
    # with no samples there is nothing to measure F^2 - I or nabla F at
    with pytest.raises(ValueError, match="needs at least one sample point"):
        validate_at(space(), [])


def test_derivative_tables_of_a_flat_and_a_curved_space():
    flat = flat_product(2, 2)
    for table in (flat.metric_diff, flat.structure_diff):
        entries = [e for matrix in table for row in matrix for e in row]
        assert len(entries) == 64 and all(e == ex.Num(0) for e in entries)
    assert flat.flat
    # entrywise symbolic derivatives, zero folded where an entry lacks the variable
    curved = catalog_get("curved-block").space
    for matrix, table in ((curved.metric, curved.metric_diff), (curved.structure, curved.structure_diff)):
        assert table == tuple(
            tuple(tuple(ex.diff(e, x) for e in row) for row in matrix) for x in ambient_vars(curved.dim)
        )
    assert not curved.flat


@pytest.mark.parametrize("label", ["flat-product", "curved-block"])
def test_tables_take_float_points_on_every_space(label):
    # a flat product's tables are all literals, and still a jet is refused
    # as it is where an entry depends on the point
    space = flat_product(2, 1) if label == "flat-product" else catalog_get(label).space
    point = taylor.array(jets.seed_point(np.array([0.3, 0.2, 0.1]), 1))
    with pytest.raises(TypeError, match="not 'Jet'"):
        space.tables(("metric",), point)
    assert space.tables(("metric",), [[0.3, 0.2, 0.1]])[0].shape == (1, 3, 3)
