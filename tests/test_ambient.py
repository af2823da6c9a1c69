"""Ambient spaces: construction, Christoffels, covariant derivative, validation."""

import math

import numpy as np
import pytest

from prodgeo import jets
from prodgeo.ambient import (
    AmbientSpace,
    BlockVariableLeak,
    SingularMetric,
    ambient_cov_derivative,
    christoffel,
    product_of,
    validate_ambient,
)
from prodgeo.catalog import (
    constant_reflection_space,
    position_reflection_space,
    rotation_structure_space,
)
from prodgeo.oracle import fd_directional


def sphere_block_space():
    return product_of([["1", "0"], ["0", "sin(x1)^2"]], 2, "flat", 1)


def test_product_of_r1_r1():
    sp = product_of("flat", 1, "flat", 1)
    assert np.array_equal(sp.metric_at([0.3, -0.7]), np.eye(2))
    assert np.array_equal(sp.structure_at([0.3, -0.7]), np.diag([1.0, -1.0]))
    assert sp.product_split == (1, 1)


def test_product_of_r2_r2_flat_christoffels():
    sp = product_of("flat", 2, "flat", 2)
    assert np.array_equal(sp.structure_at([0] * 4), np.diag([1.0, 1.0, -1.0, -1.0]))
    assert np.max(np.abs(christoffel(sp, [0.2, 0.4, -1.0, 2.0]))) == 0.0


def test_sphere_block_christoffels():
    sp = sphere_block_space()
    gamma = christoffel(sp, [math.pi / 4, 0.8, -0.3])
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
        gamma = christoffel(sp, x)
        assert np.max(np.abs(gamma - np.transpose(gamma, (0, 2, 1)))) <= 1e-14


def test_christoffel_matches_finite_differences():
    sp = sphere_block_space()
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = np.array([rng.uniform(0.4, 2.6), rng.uniform(-2, 2), rng.uniform(-2, 2)])
        gamma = christoffel(sp, x)
        n = sp.dim
        dg = np.empty((n, n, n))
        for l in range(n):
            direction = np.eye(n)[l]
            dg[l] = fd_directional(lambda p: sp.metric_at(p), x, direction, 1)
        ginv = np.linalg.inv(sp.metric_at(x))
        expected = 0.5 * (
            np.einsum("il,jlk->ijk", ginv, dg)
            + np.einsum("il,klj->ijk", ginv, dg)
            - np.einsum("il,ljk->ijk", ginv, dg)
        )
        assert np.max(np.abs(gamma - expected)) <= 1e-6


def test_singular_metric_raises():
    sp = AmbientSpace(2, [["x1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]])
    with pytest.raises(SingularMetric):
        christoffel(sp, [0.0, 1.0])
    with pytest.raises(SingularMetric):
        christoffel(sp, [-1.0, 1.0])


def test_cov_derivative_constant_field_flat():
    sp = product_of("flat", 1, "flat", 1)
    v = [jets.lift_constant(2.0, 1), jets.lift_constant(-1.0, 1)]
    assert np.array_equal(
        ambient_cov_derivative(sp, [0.3, 0.4], v, [1.0, 0.0]), [0.0, 0.0]
    )


def test_cov_derivative_position_field_along_circle():
    sp = product_of("flat", 1, "flat", 1)
    t = jets.seed_variable(0.0, 0, 1)
    v = [jets.cos(t), jets.sin(t)]  # position along the unit circle
    out = ambient_cov_derivative(sp, [1.0, 0.0], v, [0.0, 1.0])
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_cov_derivative_rotating_frame():
    sp = product_of("flat", 1, "flat", 1)
    t = jets.seed_variable(0.0, 0, 1)
    e = [-jets.sin(t), jets.cos(t)]
    out = ambient_cov_derivative(sp, [1.0, 0.0], e, [0.0, 1.0])
    assert np.allclose(out, [-1.0, 0.0], atol=1e-15)


def test_cov_derivative_needs_order_one():
    sp = product_of("flat", 1, "flat", 1)
    v = [jets.lift_constant(1.0, 0), jets.lift_constant(0.0, 0)]
    with pytest.raises(jets.InsufficientJetOrder):
        ambient_cov_derivative(sp, [0.0, 0.0], v, [1.0, 0.0])


def test_metric_compatibility_along_random_curves():
    sp = sphere_block_space()
    rng = np.random.default_rng(17)
    for _ in range(10):
        x0 = np.array([rng.uniform(0.4, 2.6), rng.uniform(-2, 2), rng.uniform(-2, 2)])
        d = rng.uniform(-1, 1, 3)
        vv = rng.uniform(-1, 1, 3)
        ww = rng.uniform(-1, 1, 3)
        curve = [
            jets.lift_constant(x0[j], 1) + d[j] * jets.seed_variable(0.0, 0, 1)
            for j in range(3)
        ]
        gj = [[jets.as_jet(e, 1, 1) for e in row] for row in sp.metric_jets(curve)]
        g_vw = None
        for i in range(3):
            for j in range(3):
                term = gj[i][j] * (vv[i] * ww[j])
                g_vw = term if g_vw is None else g_vw + term
        lhs = g_vw.gradient()[0]
        v_jets = [jets.lift_constant(c, 1) for c in vv]
        w_jets = [jets.lift_constant(c, 1) for c in ww]
        dv = ambient_cov_derivative(sp, x0, v_jets, d)
        dw = ambient_cov_derivative(sp, x0, w_jets, d)
        g0 = sp.metric_at(x0)
        rhs = dv @ g0 @ ww + vv @ g0 @ dw
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
        report = validate_ambient(sp, samples)
        assert report.passed
        assert report.max_f_squared_residual <= 1e-12
        assert report.max_compat_residual <= 1e-12
        assert report.max_parallel_residual <= 1e-10
        assert not report.f_is_identity


def test_rotation_structure_fails_f_squared():
    report = validate_ambient(rotation_structure_space(), [[0.0, 0.0], [1.0, 2.0]])
    assert not report.passed
    assert report.max_f_squared_residual >= 1.0


def test_constant_reflection_passes_position_dependent_fails():
    good = validate_ambient(constant_reflection_space(0.7), [[0.0, 0.0], [1.5, -2.0]])
    assert good.passed and not good.f_is_identity
    bad = validate_ambient(position_reflection_space(), [[0.0, 0.0]])
    assert not bad.passed
    assert bad.max_parallel_residual >= 0.1


def test_identity_structure_is_flagged():
    sp = AmbientSpace(2, [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]])
    report = validate_ambient(sp, [[0.1, 0.2]])
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
            x = [rng.uniform(lo, hi) for lo, hi in box]
            g0, f0 = sp.metric_at(x), sp.structure_at(x)
            assert np.max(np.abs(f0.T @ g0 - g0 @ f0)) <= 1e-10


@pytest.mark.parametrize("g", [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, math.inf]]])
def test_non_finite_metric_is_singular(g):
    from prodgeo.ambient import _assert_positive_definite

    with pytest.raises(SingularMetric):
        _assert_positive_definite(np.array(g))


def _assert_finite_report(report):
    values = (report.max_f_squared_residual, report.max_compat_residual,
              report.max_parallel_residual)
    assert all(math.isfinite(v) for v in values)
    assert not report.passed


def test_overflowing_metric_fails_validation():
    sp = AmbientSpace(2, [["1e308 * 10 + x1 * 0", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]])
    report = validate_ambient(sp, [[0.1, 0.2], [0.5, -1.0]])
    assert not report.positive_definite
    _assert_finite_report(report)


def test_overflowing_structure_fails_validation():
    sp = AmbientSpace(2, [["1", "0"], ["0", "1"]], [["1e308 * 10 + x2 * 0", "0"], ["0", "-1"]])
    report = validate_ambient(sp, [[0.1, 0.2]])
    assert report.positive_definite
    _assert_finite_report(report)


def test_overflowing_residual_fails_validation():
    # finite entries whose F^2 overflows
    sp = AmbientSpace(2, [["1", "0"], ["0", "1"]], [["1e200", "0"], ["0", "-1"]])
    report = validate_ambient(sp, [[0.1, 0.2]])
    _assert_finite_report(report)


def test_non_finite_metric_derivative_fails_validation():
    # g_11 is about 1e7 at x1 = 1.01, its derivative overflows to inf
    sp = AmbientSpace(2, [["1 + 1e-300 * exp(700 * x1)", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]])
    report = validate_ambient(sp, [[1.01, 0.2]])
    assert report.positive_definite
    _assert_finite_report(report)


def test_ambient_validation_checks_each_sample_once(monkeypatch):
    import prodgeo.ambient as ambient

    calls = []
    check = ambient._assert_positive_definite
    monkeypatch.setattr(ambient, "_assert_positive_definite", lambda g: calls.append(1) or check(g))
    validate_ambient(sphere_block_space(), [[0.5, 0.1, 0.2], [1.0, 0.3, -0.4]])
    assert len(calls) == 2
