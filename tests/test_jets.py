"""Jet arithmetic: spec examples, ring axioms, oracle cross-checks."""

import math

import numpy as np
import pytest

from prodgeo.jets import (
    InsufficientJetOrder,
    Jet,
    _algebra,
    _constant,
    array,
    cos,
    einsum,
    exp,
    partial,
    seed_point,
    sin,
    sqrt,
    stack,
)

from oracle import FDConfig, fd_derivative, fd_second, fd_third


def _var(value, order):
    """The jet of one independent variable at ``value``."""
    return seed_point([value], order)[0]


def test_lift_constant_is_multiplicative_identity():
    one = _constant(_algebra(1, 3), 1.0)
    j = sin(_var(0.4, 3)) + 2.0
    assert np.allclose((one * j).coeffs, j.coeffs, atol=0.0)


def test_sine_series_at_zero():
    s = sin(_var(0.0, 3))
    assert np.allclose(s.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0], atol=1e-15)


def test_square_at_two():
    j = _var(2.0, 1)
    assert (j * j).coeffs.tolist() == [4.0, 4.0]


def test_reciprocal_geometric_series():
    j = 1.0 / _var(1.0, 2)
    assert np.allclose(j.coeffs, [1.0, -1.0, 1.0], atol=1e-15)


def test_pythagorean_identity_kills_derivatives():
    j = _var(0.7, 3)
    p = sin(j) ** 2 + cos(j) ** 2
    assert abs(p.value - 1.0) <= 1e-14
    assert np.max(np.abs(p.coeffs[1:])) <= 1e-14


def test_product_rule_on_random_jets():
    rng = np.random.default_rng(7)
    for _ in range(50):
        alg = _algebra(1, 3)
        a = Jet(alg, rng.uniform(-2, 2, alg.size))
        b = Jet(alg, rng.uniform(-2, 2, alg.size))
        ab = a * b
        da, db, dab = partial(a, 0), partial(b, 0), partial(ab, 0)
        lhs = dab.coeffs
        rhs = (da * b.truncate(2) + a.truncate(2) * db).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_exp_derivative_at_one_matches_oracle():
    j = exp(_var(1.0, 1))
    oracle = fd_derivative(math.exp, 1.0, FDConfig(step=1e-5))
    assert abs(j.derivative((1,)) - math.e) <= 1e-12
    assert abs(j.derivative((1,)) - oracle) <= 1e-9 * abs(oracle)


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        jets3 = []
        for _ in range(3):
            alg = _algebra(2, 3)
            jets3.append(Jet(alg, rng.uniform(-1, 1, alg.size)))
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
        j = fn(_var(t0, 3))
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
        1.0 / _var(0.0, 2)


def test_sqrt_domain_error():
    with pytest.raises(ValueError):
        sqrt(_var(-1.0, 2))
    with pytest.raises(ValueError):
        sqrt(_var(0.0, 2))


def test_unsupported_exponent():
    with pytest.raises(ValueError):
        _var(2.0, 2) ** 0.3


def test_half_integer_power_needs_positive_base():
    with pytest.raises(ValueError):
        _var(-2.0, 2) ** 1.5


def test_integer_power_handles_negative_base():
    j = _var(-2.0, 2) ** 3
    assert j.value == -8.0
    assert j.derivative((1,)) == 12.0


def test_order_zero_has_no_gradient():
    constant = Jet(_algebra(1, 0), np.array([1.0]))
    with pytest.raises(InsufficientJetOrder):
        constant.gradient()
    with pytest.raises(InsufficientJetOrder):
        partial(constant, 0)


def test_truncate_cannot_invent_orders():
    j = _var(1.0, 1)
    with pytest.raises(InsufficientJetOrder):
        j.truncate(2)
    assert j.truncate(1) is j


def test_mixed_order_arithmetic_truncates():
    a = sin(_var(0.5, 3))
    b = cos(_var(0.5, 2))
    assert (a * b).order == 2


def test_different_seed_sets_rejected():
    a = _var(1.0, 2)
    b = seed_point([1.0, 0.0], 2)[0]
    with pytest.raises(ValueError):
        a + b


def test_invalid_direction_rejected():
    with pytest.raises(ValueError, match="direction 3 invalid for 2 seed directions"):
        partial(seed_point([1.0, 0.0], 2)[0], 3)


def test_seed_point_bilinear_mixed_partial():
    u1, u2 = seed_point([2.0, 3.0], order=2)
    p = u1 * u2
    assert p.value == 6.0
    assert p.gradient().tolist() == [3.0, 2.0]
    assert p.derivative((1, 1)) == 1.0


def test_hessian_reads_the_second_coefficients():
    u1, u2 = seed_point([2.0, 3.0], order=3)
    p = array([u1 ** 2 * u2 + u2 ** 3, u1 * u2])  # a vector: the pairs on the last two axes
    assert p.hessian().tolist() == [[[6.0, 4.0], [4.0, 18.0]], [[0.0, 1.0], [1.0, 0.0]]]
    for exponents, (a, b) in (((2, 0), (0, 0)), ((1, 1), (0, 1)), ((0, 2), (1, 1))):
        assert p.hessian()[:, a, b].tolist() == [p[i].derivative(exponents) for i in range(2)]
    with pytest.raises(InsufficientJetOrder):
        u1.truncate(1).hessian()


def test_scalar_coercion_both_sides():
    j = _var(2.0, 2)
    assert (2.0 - j).value == 0.0
    assert (3 * j).derivative((1,)) == 3.0
    assert (6.0 / j).value == 3.0


def test_repr_mentions_shape():
    assert "order=2" in repr(_var(1.0, 2))


def test_jet_equality_with_order_zero_env():
    j = Jet(_algebra(1, 0), np.array([0.25]))
    assert j.order == 0
    assert sqrt(j).value == 0.5


def _random_jet(rng, shape, order=3, nvars=2):
    alg = _algebra(nvars, order)
    return Jet(alg, rng.uniform(-1, 1, tuple(shape) + (alg.size,)))


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
            total = float_total = 0.0
            for j in range(3):
                total = total + g[i][j] * w[b][j]
                float_total = float_total + c[i, j] * w[b][j]
            assert np.max(np.abs(contracted[b][i].coeffs - total.coeffs)) <= 1e-14
            assert np.max(np.abs(floats[b][i].coeffs - float_total.coeffs)) <= 1e-14
    assert np.allclose(einsum("ij,bj->bi", c, w.value), np.einsum("ij,bj->bi", c, w.value))


@pytest.mark.parametrize("spec, float_shape, jet_shape, float_first", [
    ("...ij,...j->...i", (64, 3, 4), (64, 4), True),   # the jet's last axis: a @ coeffs
    ("...ij,...j->...i", (3, 4), (64, 2, 4), True),    # a constant matrix, batched jet
    ("...ij,...jk->...ik", (64, 3, 4), (64, 4, 2), True),  # the jet's first axis
    ("...ij,...jk->...ik", (64, 4, 2), (64, 3, 4), False),  # the float's first axis
    ("b,...bi->...i", (2,), (64, 2, 3), True),
    ("...ijk,...bk->...bij", (3, 3, 3), (64, 2, 3), True),
    ("...il,...ljk->...ijk", (64, 3, 3), (64, 3, 3, 3), True),
    ("...jik,...bj->...bik", (4, 3, 2), (64, 5, 4), True),  # the float's axes reordered
])
def test_float_by_jet_contraction_is_the_einsum_on_coefficients(
    spec, float_shape, jet_shape, float_first
):
    # the reference is np.einsum on the coefficients, the coefficient axis
    # riding along as one more output axis
    rng = np.random.default_rng(43)
    f, j = rng.uniform(-1, 1, float_shape), _random_jet(rng, jet_shape)
    (sa, sb), out = spec.split("->")[0].split(","), spec.split("->")[1]
    if float_first:
        got, want = einsum(spec, f, j), np.einsum(f"{sa},{sb}Z->{out}Z", f, j.coeffs)
    else:
        got, want = einsum(spec, j, f), np.einsum(f"{sa}Z,{sb}->{out}Z", j.coeffs, f)
    assert got.coeffs.shape == want.shape and got.coeffs.flags.c_contiguous
    assert np.max(np.abs(got.coeffs - want)) <= 1e-14
    floats = einsum(spec, f, j.value) if float_first else einsum(spec, j.value, f)
    assert np.max(np.abs(floats - want[..., 0])) <= 1e-14


@pytest.mark.parametrize("spec", ["...ij,...ij->...", "...i,...j->...ij", "...ij,...jk->...ki"])
def test_float_by_jet_contraction_rejects_other_specs(spec):
    rng = np.random.default_rng(47)
    with pytest.raises(ValueError, match="single-axis matrix product"):
        einsum(spec, rng.uniform(-1, 1, (3, 3)), _random_jet(rng, (3, 3)))


def test_contractions_keep_the_coefficient_axis_innermost(monkeypatch):
    # a gather that put the coefficient pairs outermost in memory made every
    # contraction's inner loop stride across the whole array
    rng = np.random.default_rng(41)
    strides = []
    real = np.einsum

    def spy(spec, *operands, **kwargs):
        terms = spec.split("->")[0].split(",")
        strides.extend(op.strides[-1] // op.itemsize for term, op in zip(terms, operands)
                       if term.endswith("Z"))
        return real(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    a, b = _random_jet(rng, (64, 2, 3)), _random_jet(rng, (64, 1, 2, 3))
    results = [
        a * b,
        a.swapaxes(-1, -2) * _random_jet(rng, (64, 3, 2)),
        partial(a.swapaxes(-1, -2), 0),
        einsum("...i,...ai->...a", a, b),
        einsum("...a,...ai->...i", _random_jet(rng, (64, 2, 2)), b),
        einsum("...ij,...jk->...ik", a.swapaxes(-1, -2), a),
        einsum("...ij,...j->...i", rng.normal(size=(3, 3)).T, a),
        einsum("...ijk,...bk->...bij", rng.normal(size=(3, 3, 3)),
               _random_jet(rng, (2, 64, 3)).swapaxes(0, 1)),
    ]
    assert strides and set(strides) == {1}
    for result in results:
        assert result.coeffs.flags.c_contiguous


def test_array_stacks_jets_and_numbers_at_lowest_order():
    u, v = seed_point([0.5, 0.2], order=3)
    stacked = array([[u, 2.0], [v.truncate(2), 0.0]])
    assert stacked.shape == (2, 2) and stacked.order == 2
    assert stacked[0][1].value == 2.0 and stacked[1][0].gradient().tolist() == [0.0, 1.0]
    assert isinstance(array([[1.0, 0.0]]), np.ndarray)


# ---- stack against the plain form it replaces -------------------------------
# The reference broadcasts every leaf (a number lifted to a full jet) and
# stacks the results; stack fills one array and must give the same bits.


def _ref_stack(shape, leaves):
    lead = np.broadcast_shapes(*(e.shape if isinstance(e, Jet) else np.shape(e) for e in leaves))
    found = [e for e in leaves if isinstance(e, Jet)]
    if not found:
        stacked = [np.broadcast_to(np.asarray(e, dtype=float), lead) for e in leaves]
        return np.stack(stacked, axis=-1).reshape(lead + shape)
    alg = _algebra(found[0].nvars, min(j.order for j in found))
    stacked = [
        np.broadcast_to(
            e.coeffs[..., : alg.size] if isinstance(e, Jet) else _constant(alg, e).coeffs,
            lead + (alg.size,),
        )
        for e in leaves
    ]
    return Jet(alg, np.stack(stacked, axis=-2).reshape(lead + shape + (alg.size,)))


def _same(a, b):
    """The same bits: equal values and equal signs, of zeros too."""
    if isinstance(b, Jet):
        assert isinstance(a, Jet) and a.alg is b.alg
        a, b = a.coeffs, b.coeffs
    assert a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _signed_zeros(rng, j):
    """``j`` with about a third of its coefficients set to +0.0 or -0.0."""
    c = j.coeffs.copy()
    hit = rng.random(c.shape) < 1 / 3
    c[hit] = np.where(rng.random(c.shape) < 0.5, 0.0, -0.0)[hit]
    return Jet(j.alg, c)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_stack_matches_broadcast_then_stack(order):
    rng = np.random.default_rng(400 + order)
    high = _signed_zeros(rng, _random_jet(rng, (5, 1), order=order + 1))
    low = _signed_zeros(rng, _random_jet(rng, (3,), order=order))
    cases = [
        ((2, 2), [high, 2.0, low, rng.normal(size=(5, 3))]),
        ((3,), [low, -1, np.float64(0.25)]),
        ((2,), [rng.normal(size=(4, 1)), 3.0]),
        ((2, 2), [1.0, 0, rng.normal(size=(3,)), np.arange(3)]),
        ((1,), [high]),
        ((2,), [low, -0.0]),
        ((3,), [-0.0, 0.0, np.array([0.0, -0.0, 1.0])]),
    ]
    for shape, leaves in cases:
        _same(stack(shape, leaves), _ref_stack(shape, leaves))
