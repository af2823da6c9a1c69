"""Jet arithmetic: spec examples, ring axioms, oracle cross-checks."""

import itertools
import math

import numpy as np
import pytest

from prodgeo import expr as ex
from prodgeo.jets import (
    InsufficientJetOrder,
    Jet,
    _Algebra,
    _algebra,
    _constant,
    cos,
    exp,
    seed_point,
    sin,
    sqrt,
)

from oracle import FDConfig, fd_derivative, fd_second, fd_third
from taylor import array, derivative, einsum, entry, partial, swapaxes
from taylor import stack as _ref_stack


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
    assert abs(derivative(j, (1,)) - math.e) <= 1e-12
    assert abs(derivative(j, (1,)) - oracle) <= 1e-9 * abs(oracle)


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
        assert abs(derivative(j, (1,)) - f1) <= 1e-6 * max(scale, abs(f1))
        assert abs(derivative(j, (2,)) - f2) <= 1e-6 * max(scale, abs(f2))
        assert abs(derivative(j, (3,)) - f3) <= 1e-6 * max(scale, abs(f3))


def test_exact_mixed_partials_of_composition():
    # d^3/du dv dw of sin(u v) exp(w) = (cos(uv) - uv sin(uv)) exp(w)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u0, v0, w0 = rng.uniform(-1.2, 1.2, 3)
        u, v, w = seed_point([u0, v0, w0], order=3)
        f = sin(u * v) * exp(w)
        expected = (math.cos(u0 * v0) - u0 * v0 * math.sin(u0 * v0)) * math.exp(w0)
        assert abs(derivative(f, (1, 1, 1)) - expected) <= 1e-12 * max(1.0, abs(expected))


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
    assert derivative(j, (1,)) == 12.0


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


def test_mixed_order_arithmetic_rejected():
    a = sin(_var(0.5, 3))
    b = cos(_var(0.5, 2))
    for combine in (lambda: a * b, lambda: b * a, lambda: a + b, lambda: b - a, lambda: a / b):
        with pytest.raises(ValueError):
            combine()


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
    assert derivative(p, (1, 1)) == 1.0


def test_hessian_reads_the_second_coefficients():
    u1, u2 = seed_point([2.0, 3.0], order=3)
    p = array([u1 ** 2 * u2 + u2 ** 3, u1 * u2])  # a vector: the pairs on the last two axes
    assert p.hessian().tolist() == [[[6.0, 4.0], [4.0, 18.0]], [[0.0, 1.0], [1.0, 0.0]]]
    for exponents, (a, b) in (((2, 0), (0, 0)), ((1, 1), (0, 1)), ((0, 2), (1, 1))):
        assert p.hessian()[:, a, b].tolist() == [derivative(entry(p, i), exponents) for i in range(2)]
    with pytest.raises(InsufficientJetOrder):
        u1.truncate(1).hessian()


def test_scalar_coercion_both_sides():
    j = _var(2.0, 2)
    assert (2.0 - j).value == 0.0
    assert derivative(3 * j, (1,)) == 3.0
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
            assert np.max(np.abs(entry(ab, i, k).coeffs - scalar.coeffs)) <= 1e-15
    scaled = a * np.array([2.0, -1.0, 0.5, 3.0])
    assert scaled.shape == (3, 4)
    assert np.array_equal(entry(scaled, 2, 3).coeffs, entry(a, 2, 0).coeffs * 3.0)


def test_einsum_matches_explicit_loops():
    # the tests' contraction against sums of the library's jet products
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
                total = total + entry(g, i, j) * entry(w, b, j)
                float_total = float_total + c[i, j] * entry(w, b, j)
            assert np.max(np.abs(entry(contracted, b, i).coeffs - total.coeffs)) <= 1e-14
            assert np.max(np.abs(entry(floats, b, i).coeffs - float_total.coeffs)) <= 1e-14


def test_contractions_keep_the_coefficient_axis_innermost(monkeypatch):
    # a gather that put the coefficient pairs outermost in memory made every
    # product's scatter run its inner loop across a stride of the whole array;
    # products of operands laid out in any order return C-ordered coefficients
    strides = []

    class Scatter(np.ndarray):
        """The scatter table, noting the pair operand's innermost stride."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            strides.extend(op.strides[-1] // op.itemsize for op in inputs if not isinstance(op, Scatter))
            return getattr(ufunc, method)(*(np.asarray(op) for op in inputs), **kwargs)

    table = _Algebra.mul_table

    def spied(alg):
        ia, ib, scatter = table(alg)
        return ia, ib, scatter.view(Scatter)

    monkeypatch.setattr(_Algebra, "mul_table", spied)
    rng = np.random.default_rng(41)
    a, b = _random_jet(rng, (64, 2, 3)), _random_jet(rng, (64, 1, 2, 3))
    swapped = swapaxes(a, -1, -2)
    assert not swapped.coeffs.flags.c_contiguous
    results = [
        a * b,
        swapped * _random_jet(rng, (64, 3, 2)),
        swapped * swapped,
        swapped ** 3,
        sin(swapped),
        1.0 / swapped,
    ]
    assert strides and set(strides) == {1}
    for result in results:
        assert result.coeffs.flags.c_contiguous


def test_array_stacks_jets_and_numbers_at_lowest_order():
    u, v = seed_point([0.5, 0.2], order=3)
    stacked = array([[u, 2.0], [v.truncate(2), 0.0]])
    assert stacked.shape == (2, 2) and stacked.order == 2
    assert entry(stacked, 0, 1).value == 2.0 and entry(stacked, 1, 0).gradient().tolist() == [0.0, 1.0]
    assert isinstance(array([[1.0, 0.0]]), np.ndarray)


# ---- a plan's table assembly against the plain form it replaces -------------
# The reference (tests/taylor.py) broadcasts every leaf (a number lifted to a
# full jet) and stacks the results; a plan folds the literal leaves into one
# array and writes the others into a copy of it with one store, and must give
# the same bits.  The jets of one table share one algebra.


def _nest(flat, shape):
    """A flat list as nested tuples of ``shape``, row-major."""
    if not shape:
        return flat[0]
    size = len(flat) // shape[0]
    return tuple(_nest(flat[i * size : (i + 1) * size], shape[1:]) for i in range(shape[0]))


def _planned(shape, leaves, literal):
    """One plan's table of ``shape`` whose entries are the ``leaves``: with
    ``literal`` a Python number is a literal entry (-0.0 a negated zero),
    and any other leaf is a variable bound to it."""
    nodes, env = [], {}
    for i, e in enumerate(leaves):
        if literal and type(e) in (int, float):
            nodes.append(ex.Neg(ex.Num(0.0)) if math.copysign(1.0, e) < 0 and e == 0 else ex.Num(float(e)))
        else:
            env[f"v{i}"] = e
            nodes.append(ex.Var(f"v{i}"))
    return ex.Plan([_nest(nodes, shape)])(env)[0]


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
    high_row = _signed_zeros(rng, _random_jet(rng, (3,), order=order + 1))
    low_column = _signed_zeros(rng, _random_jet(rng, (5, 1), order=order))
    cases = [
        ((2, 2), [high, 2.0, high_row, rng.normal(size=(5, 3))]),
        ((2, 2), [low_column, 2.0, low, rng.normal(size=(5, 3))]),
        ((3,), [low, -1, np.float64(0.25)]),
        ((2,), [rng.normal(size=(4, 1)), 3.0]),
        ((2, 2), [1.0, 0, rng.normal(size=(3,)), np.arange(3)]),
        ((1,), [high]),
        ((2,), [low, -0.0]),
        ((3,), [-0.0, 0.0, np.array([0.0, -0.0, 1.0])]),
        ((2,), [-0.0, 1]),
    ]
    for shape, leaves in cases:
        for literal in (True, False):
            _same(_planned(shape, leaves, literal), _ref_stack(shape, leaves))
    for literal in (True, False):  # jets of two orders do not meet in one table
        with pytest.raises(ValueError):
            _planned((2,), [high, low], literal)


# ---- kernels against the plain forms they replace ----------------------------
# The references are the earlier kernels: Horner's scheme from a constant jet
# through full jet products, and a number lifted to a constant jet before it
# is added or multiplied.  The kernels must give the same floats.

EXTREMES = (0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300)
SHAPES = ((), (3,), (3, 2))


def _ref_constant(alg, value):
    v = np.asarray(value, dtype=float)
    c = np.zeros(v.shape + (alg.size,))
    c[..., 0] = v
    return c


def _ref_product(alg, a, b):
    ia, ib, scatter = alg.mul_table()
    return (a.take(ia, axis=-1) * b.take(ib, axis=-1)) @ scatter


def _ref_analytic(j, derivatives):
    zero_part = j.coeffs - _ref_constant(j.alg, j.coeffs[..., 0])
    ck = [d / math.factorial(k) for k, d in enumerate(derivatives)]
    result = _ref_constant(j.alg, ck[-1])
    for k in range(j.order - 1, -1, -1):
        result = _ref_product(j.alg, result, zero_part)
        result[..., 0] += ck[k]
    return result


def _ref_trig(j, shift):
    v = j.coeffs[..., 0]
    cycle = (np.sin(v), np.cos(v), -np.sin(v), -np.cos(v))
    return _ref_analytic(j, [cycle[(k + shift) % 4] for k in range(j.order + 1)])


def _ref_power(j, q):
    v = j.coeffs[..., 0]
    ders, c = [], 1.0
    for k in range(j.order + 1):
        ders.append(c * v ** (q - k))
        c *= q - k
    return _ref_analytic(j, ders)


def _ref_reciprocal(j):
    v = j.coeffs[..., 0]
    return _ref_analytic(j, [(-1.0) ** k * math.factorial(k) / v ** (k + 1) for k in range(j.order + 1)])


KERNELS = {  # name: (the kernel, its reference, whether its value must be positive)
    "sin": (sin, lambda j: _ref_trig(j, 0), False),
    "cos": (cos, lambda j: _ref_trig(j, 1), False),
    "exp": (exp, lambda j: _ref_analytic(j, [np.exp(j.coeffs[..., 0])] * (j.order + 1)), False),
    "sqrt": (sqrt, lambda j: _ref_power(j, 0.5), True),
    "reciprocal": (lambda j: 1.0 / j, _ref_reciprocal, False),
    **{f"power{q}": ((lambda j, q=q: j ** q), (lambda j, q=q: _ref_power(j, q)), True)
       for q in (-1.5, -0.5, 1.5, 2.5)},
}


def _kernel_input(rng, nvars, order, shape, positive):
    """A random jet, a third of its coefficients drawn from EXTREMES; with
    ``positive`` its values are positive, else non-zero."""
    alg = _algebra(nvars, order)
    c = rng.normal(size=shape + (alg.size,))
    hit = rng.random(c.shape) < 1 / 3
    c[hit] = rng.choice(EXTREMES, size=c.shape)[hit]
    v = c[..., 0]
    v[v == 0.0] = 1e-300
    if positive:
        c[..., 0] = np.abs(v)
    return Jet(alg, c)


def _jet_cases():
    return [(nvars, order, shape) for nvars in (1, 2, 3) for order in (0, 1, 2, 3) for shape in SHAPES]


def _finite_entries(c):
    return np.isfinite(c).all(axis=-1)


def _same_floats(got, ref):
    """Non-finite at the same entries, and equal (NaNs included) at every
    entry where the reference is finite.

    Only at an entry where the reference overflowed may the two differ
    beyond that: the reference's constant jet adds 0 * inf terms there."""
    assert got.shape == ref.shape
    finite = _finite_entries(ref)
    assert np.array_equal(_finite_entries(got), finite)
    assert np.array_equal(got[finite], ref[finite])


@pytest.mark.parametrize("name", KERNELS)
def test_kernels_give_the_floats_of_the_reference(name):
    kernel, reference, positive = KERNELS[name]
    rng = np.random.default_rng(sorted(KERNELS).index(name))
    with np.errstate(all="ignore"):
        for nvars, order, shape in _jet_cases():
            for _ in range(4):
                j = _kernel_input(rng, nvars, order, shape, positive)
                _same_floats(kernel(j).coeffs, reference(j))


@pytest.mark.parametrize("name", KERNELS)
def test_kernels_are_non_finite_where_the_reference_is(name):
    kernel, reference, positive = KERNELS[name]
    rng = np.random.default_rng(100 + sorted(KERNELS).index(name))
    bad = (np.nan, np.inf) if positive else (np.nan, np.inf, -np.inf)
    with np.errstate(all="ignore"):
        for nvars, order, shape in _jet_cases():
            if not shape:
                continue
            for value in bad:
                j = _kernel_input(rng, nvars, order, shape, positive)
                point = tuple(rng.integers(n) for n in shape)
                j.coeffs[point + (rng.integers(j.alg.size),)] = value
                got, ref = kernel(j).coeffs, reference(j)
                # at order 0 only the value is computed, and exp(-inf) is 0
                assert order == 0 or not _finite_entries(ref)[point]
                assert np.array_equal(_finite_entries(got), _finite_entries(ref))


def test_float_arithmetic_gives_the_floats_of_a_constant_jet():
    rng = np.random.default_rng(7)
    numbers = EXTREMES + (1.5, -2.25, np.float64(0.25), np.inf, np.nan)
    for nvars, order, shape in _jet_cases():
        j = _kernel_input(rng, nvars, order, shape, False)
        j.coeffs[rng.random(j.coeffs.shape) < 0.1] = np.nan
        for x in numbers:
            with np.errstate(all="ignore"):
                total, scaled = j.coeffs + _ref_constant(j.alg, x), j.coeffs * np.asarray(x)[..., None]
                cases = ((j + x, total), (x + j, total), (j * x, scaled), (x * j, scaled))
            for got, ref in cases:
                assert np.array_equal(got.coeffs, ref, equal_nan=True)
                assert np.array_equal(np.signbit(got.coeffs), np.signbit(ref))


@pytest.mark.parametrize("order", [2, 3])
def test_hessian_is_the_derivative_of_every_pair(order):
    rng = np.random.default_rng(order)
    for nvars in (1, 2, 3):
        j = _random_jet(rng, (3, 2), order=order, nvars=nvars)
        hessian = j.hessian()
        for a, b in itertools.product(range(nvars), repeat=2):
            exponents = np.eye(nvars, dtype=int)[a] + np.eye(nvars, dtype=int)[b]
            assert np.array_equal(hessian[..., a, b], derivative(j, exponents))


def _ref_integer_power(j, k):
    """The earlier loop, which also squared the base after the last bit."""
    result, base = _constant(j.alg, 1.0), j
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


@pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4)])
def test_integer_power_squares_only_while_bits_remain(k, products, monkeypatch):
    calls = []
    real = Jet.__mul__

    def counted(a, b):
        calls.append(isinstance(b, Jet))
        return real(a, b)

    monkeypatch.setattr(Jet, "__mul__", counted)
    rng = np.random.default_rng(k)
    for nvars, order, shape in _jet_cases():
        j = _kernel_input(rng, nvars, order, shape, False)
        j.coeffs[rng.random(j.coeffs.shape) < 0.1] = np.nan
        with np.errstate(all="ignore"):
            ref = _ref_integer_power(j, k).coeffs
            calls.clear()
            got = (j ** k).coeffs
        assert sum(calls) == products  # jet-by-jet products
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
