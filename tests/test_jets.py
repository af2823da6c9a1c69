"""Jet arithmetic: spec examples, ring axioms, oracle cross-checks."""

import math

import numpy as np
import pytest

from prodgeo.jets import (
    InsufficientJetOrder,
    Jet,
    array,
    cos,
    einsum,
    exp,
    inverse,
    lift_constant,
    partial,
    seed_point,
    seed_variable,
    sin,
    sqrt,
)
from prodgeo.oracle import FDConfig, fd_derivative, fd_second, fd_third


def test_lift_constant_layout():
    j = lift_constant(5.0, 2)
    assert j.coeffs.tolist() == [5.0, 0.0, 0.0]
    assert lift_constant(0.0, 3).coeffs.tolist() == [0.0] * 4


def test_lift_constant_is_multiplicative_identity():
    one = lift_constant(1.0, 3)
    j = sin(seed_variable(0.4, 0, 3)) + 2.0
    assert np.allclose((one * j).coeffs, j.coeffs, atol=0.0)


def test_sine_series_at_zero():
    s = sin(seed_variable(0.0, 0, 3))
    assert np.allclose(s.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)


def test_square_at_two():
    j = seed_variable(2.0, 0, 1)
    assert (j * j).coeffs.tolist() == [4.0, 4.0]


def test_reciprocal_geometric_series():
    j = 1.0 / seed_variable(1.0, 0, 2)
    assert np.allclose(j.coeffs, [1.0, -1.0, 1.0], atol=1e-15)


def test_pythagorean_identity_kills_derivatives():
    j = seed_variable(0.7, 0, 3)
    p = sin(j) ** 2 + cos(j) ** 2
    assert abs(p.value - 1.0) <= 1e-14
    assert np.max(np.abs(p.coeffs[1:])) <= 1e-14


def test_product_rule_on_random_jets():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = lift_constant(0.0, 3)
        b = lift_constant(0.0, 3)
        a.coeffs[:] = rng.uniform(-2, 2, a.coeffs.shape)
        b.coeffs[:] = rng.uniform(-2, 2, b.coeffs.shape)
        ab = a * b
        da, db, dab = partial(a, 0), partial(b, 0), partial(ab, 0)
        lhs = dab.coeffs
        rhs = (da * b.truncate(2) + a.truncate(2) * db).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_exp_derivative_at_one_matches_oracle():
    j = exp(seed_variable(1.0, 0, 1))
    oracle = fd_derivative(math.exp, 1.0, FDConfig(step=1e-5))
    assert abs(j.derivative((1,)) - math.e) <= 1e-12
    assert abs(j.derivative((1,)) - oracle) <= 1e-9 * abs(oracle)


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        jets3 = []
        for _ in range(3):
            j = lift_constant(0.0, 3, nvars=2)
            j.coeffs[:] = rng.uniform(-1, 1, j.coeffs.shape)
            jets3.append(j)
        a, b, c = jets3
        assert np.max(np.abs(((a + b) + c).coeffs - (a + (b + c)).coeffs)) <= 1e-13
        assert np.max(np.abs(((a * b) * c).coeffs - (a * (b * c)).coeffs)) <= 1e-13
        assert np.max(np.abs((a * (b + c)).coeffs - (a * b + a * c).coeffs)) <= 1e-13
        assert np.max(np.abs((a * b).coeffs - (b * a).coeffs)) <= 1e-13
        assert np.max(np.abs((a + b).coeffs - (b + a).coeffs)) <= 1e-13


@pytest.mark.parametrize(
    "fn,math_fn,lo,hi",
    [
        (sin, math.sin, -3.0, 3.0),
        (cos, math.cos, -3.0, 3.0),
        (exp, math.exp, -1.5, 1.5),
        (sqrt, math.sqrt, 0.5, 4.0),
        (lambda j: j ** 3, lambda t: t ** 3, -2.0, 2.0),
        (lambda j: j ** -2, lambda t: t ** -2, 0.5, 2.5),
        (lambda j: j ** 1.5, lambda t: t ** 1.5, 0.5, 4.0),
    ],
)
def test_elementary_functions_match_oracle_to_order_three(fn, math_fn, lo, hi):
    # stencil roundoff scales with |f|, so the relative scale includes it
    rng = np.random.default_rng(23)
    for _ in range(100):
        t0 = rng.uniform(lo, hi)
        j = fn(seed_variable(t0, 0, 3))
        scale = max(1.0, abs(math_fn(t0)))
        f1 = fd_derivative(math_fn, t0)
        f2 = fd_second(math_fn, t0)
        f3 = fd_third(math_fn, t0)
        assert abs(j.derivative((1,)) - f1) <= 1e-6 * max(scale, abs(f1))
        assert abs(j.derivative((2,)) - f2) <= 1e-6 * max(scale, abs(f2))
        assert abs(j.derivative((3,)) - f3) <= 1e-6 * max(scale, abs(f3))


def test_exact_mixed_partials_of_composition():
    # d^3/du dv dw of sin(u v) exp(w) = (cos(uv) - uv sin(uv)) exp(w)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u0, v0, w0 = rng.uniform(-1.2, 1.2, 3)
        u, v, w = seed_point([u0, v0, w0], order=3)
        f = sin(u * v) * exp(w)
        expected = (math.cos(u0 * v0) - u0 * v0 * math.sin(u0 * v0)) * math.exp(w0)
        assert abs(f.derivative((1, 1, 1)) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_division_by_zero_value_raises():
    with pytest.raises(ZeroDivisionError):
        1.0 / seed_variable(0.0, 0, 2)


def test_sqrt_domain_error():
    with pytest.raises(ValueError):
        sqrt(seed_variable(-1.0, 0, 2))
    with pytest.raises(ValueError):
        sqrt(lift_constant(0.0, 2))


def test_unsupported_exponent():
    with pytest.raises(ValueError):
        seed_variable(2.0, 0, 2) ** 0.3


def test_half_integer_power_needs_positive_base():
    with pytest.raises(ValueError):
        seed_variable(-2.0, 0, 2) ** 1.5


def test_integer_power_handles_negative_base():
    j = seed_variable(-2.0, 0, 2) ** 3
    assert j.value == -8.0
    assert j.derivative((1,)) == 12.0


def test_order_zero_has_no_gradient():
    with pytest.raises(InsufficientJetOrder):
        lift_constant(1.0, 0).gradient()
    with pytest.raises(InsufficientJetOrder):
        partial(lift_constant(1.0, 0), 0)


def test_truncate_cannot_invent_orders():
    j = seed_variable(1.0, 0, 1)
    with pytest.raises(InsufficientJetOrder):
        j.truncate(2)
    assert j.truncate(1) is j


def test_mixed_order_arithmetic_truncates():
    a = sin(seed_variable(0.5, 0, 3))
    b = cos(seed_variable(0.5, 0, 2))
    assert (a * b).order == 2


def test_different_seed_sets_rejected():
    a = seed_variable(1.0, 0, 2, nvars=1)
    b = seed_variable(1.0, 0, 2, nvars=2)
    with pytest.raises(ValueError):
        a + b


def test_invalid_direction_rejected():
    with pytest.raises(ValueError):
        seed_variable(1.0, 3, 2, nvars=2)


def test_seed_point_bilinear_mixed_partial():
    u1, u2 = seed_point([2.0, 3.0], order=2)
    p = u1 * u2
    assert p.value == 6.0
    assert p.gradient().tolist() == [3.0, 2.0]
    assert p.derivative((1, 1)) == 1.0


def test_scalar_coercion_both_sides():
    j = seed_variable(2.0, 0, 2)
    assert (2.0 - j).value == 0.0
    assert (3 * j).derivative((1,)) == 3.0
    assert (6.0 / j).value == 3.0


def test_repr_mentions_shape():
    assert "order=2" in repr(seed_variable(1.0, 0, 2))


def test_jet_equality_with_order_zero_env():
    j = lift_constant(0.25, 0)
    assert isinstance(j, Jet)
    assert sqrt(j).value == 0.5


def _random_jet(rng, shape, order=3, nvars=2):
    j = lift_constant(0.0, order, nvars)
    return Jet(j.alg, rng.uniform(-1, 1, tuple(shape) + j.coeffs.shape))


def test_array_product_equals_elementwise_scalar_products():
    rng = np.random.default_rng(31)
    a, b = _random_jet(rng, (3, 1)), _random_jet(rng, (4,))
    ab = a * b
    assert ab.shape == (3, 4)
    for i in range(3):
        for k in range(4):
            scalar = Jet(a.alg, a.coeffs[i, 0].copy()) * Jet(b.alg, b.coeffs[k].copy())
            assert np.max(np.abs(ab[i][k].coeffs - scalar.coeffs)) <= 1e-15
    scaled = a * np.array([2.0, -1.0, 0.5, 3.0])
    assert scaled.shape == (3, 4)
    assert np.array_equal(scaled[2][3].coeffs, a[2][0].coeffs * 3.0)


def test_einsum_matches_explicit_loops():
    rng = np.random.default_rng(37)
    g, w = _random_jet(rng, (3, 3)), _random_jet(rng, (2, 3))
    c = rng.uniform(-1, 1, (3, 3))
    contracted = einsum("ij,bj->bi", g, w)
    floats = einsum("ij,bj->bi", c, w)
    assert contracted.shape == floats.shape == (2, 3)
    for b in range(2):
        for i in range(3):
            total = lift_constant(0.0, 3, 2)
            float_total = lift_constant(0.0, 3, 2)
            for j in range(3):
                total = total + g[i][j] * w[b][j]
                float_total = float_total + c[i, j] * w[b][j]
            assert np.max(np.abs(contracted[b][i].coeffs - total.coeffs)) <= 1e-14
            assert np.max(np.abs(floats[b][i].coeffs - float_total.coeffs)) <= 1e-14
    assert np.allclose(einsum("ij,bj->bi", c, w.value), np.einsum("ij,bj->bi", c, w.value))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_inverse_times_matrix_is_identity_to_carried_order(order):
    # a non-diagonal curved metric along a seeded point
    u, v = seed_point([0.4, -0.9], order=max(order, 1))
    s = 0.3 * sin(v)
    entries = [[2.0 + u * u, u * v, s], [u * v, 2.0 + cos(u), 0.3 * u], [s, 0.3 * u, 1.0 + exp(v)]]
    m = array(entries).truncate(order)
    product = einsum("ij,jk->ik", inverse(m), m)
    identity = np.zeros(product.coeffs.shape)
    identity[..., 0] = np.eye(3)
    scale = np.max(np.abs(inverse(m).coeffs)) * np.max(np.abs(m.coeffs))
    assert product.order == order
    assert np.max(np.abs(product.coeffs - identity)) <= 1e-15 * scale
    assert np.allclose(inverse(m).value, np.linalg.inv(m.value), atol=1e-14)


def test_array_stacks_jets_and_numbers_at_lowest_order():
    u, v = seed_point([0.5, 0.2], order=3)
    stacked = array([[u, 2.0], [v.truncate(2), 0.0]])
    assert stacked.shape == (2, 2) and stacked.order == 2
    assert stacked[0][1].value == 2.0 and stacked[1][0].gradient().tolist() == [0.0, 1.0]
    assert isinstance(array([[1.0, 0.0]]), np.ndarray)
