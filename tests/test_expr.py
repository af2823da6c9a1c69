"""Expression parsing, printing and evaluation."""

import math

import numpy as np
import pytest

from prodgeo import expr as ex
from prodgeo.catalog import catalog_get, catalog_list
from prodgeo.jets import seed_point, seed_variable
from prodgeo.oracle import fd_derivative


def test_precedence_example():
    ast = ex.parse("u1 + u2 * u3")
    assert ast == ex.BinOp("+", ex.Var("u1"), ex.BinOp("*", ex.Var("u2"), ex.Var("u3")))


def test_power_binds_tightest():
    ast = ex.parse("-u1^2")
    assert ast == ex.Neg(ex.BinOp("^", ex.Var("u1"), ex.Num(2.0)))
    assert ex.evaluate(ast, {"u1": 3.0}) == -9.0


def test_left_associativity():
    ast = ex.parse("u1 - u2 - u3")
    assert ast == ex.BinOp("-", ex.BinOp("-", ex.Var("u1"), ex.Var("u2")), ex.Var("u3"))
    assert ex.evaluate(ex.parse("8 / 4 / 2"), {}) == 1.0


def test_exponent_chain_is_right_associative():
    assert ex.parse("u1^2^3") == ex.BinOp("^", ex.Var("u1"), ex.Num(8.0))


def test_negative_exponent_literal():
    ast = ex.parse("u1^-2")
    assert ast == ex.BinOp("^", ex.Var("u1"), ex.Num(-2.0))
    assert ex.evaluate(ast, {"u1": 2.0}) == 0.25


def test_exponent_must_be_literal():
    with pytest.raises(ex.ParseError):
        ex.parse("u1^u2")


def test_simple_eval():
    assert ex.evaluate(ex.parse("cos(u1)*2"), {"u1": 0.0}) == 2.0


def test_unbalanced_paren_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("(u1")
    assert err.value.offset == 3


def test_unknown_function_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("tan(u1)")
    assert err.value.offset == 0


def test_no_implicit_multiplication():
    with pytest.raises(ex.ParseError):
        ex.parse("2u1")


def test_dangling_operator():
    with pytest.raises(ex.ParseError):
        ex.parse("u1 +")
    with pytest.raises(ex.ParseError):
        ex.parse("* u1")


def test_unexpected_character_offset():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("u1 + $")
    assert err.value.offset == 5


def test_unknown_variable_deferred_to_eval():
    ast = ex.parse("u7 + 1")
    with pytest.raises(ex.UnknownVariable):
        ex.evaluate(ast, {"u1": 0.0})


def test_pythagorean_identity_with_jets():
    j = seed_variable(0.3, 0, 3)
    out = ex.evaluate(ex.parse("sin(u1)^2 + cos(u1)^2"), {"u1": j})
    assert abs(out.value - 1.0) <= 1e-13
    assert np.max(np.abs(out.coeffs[1:])) <= 1e-13


def test_bilinear_mixed_partials():
    u1, u2 = seed_point([2.0, 3.0], order=2)
    out = ex.evaluate(ex.parse("u1*u2"), {"u1": u1, "u2": u2})
    assert out.value == 6.0
    assert out.gradient().tolist() == [3.0, 2.0]
    assert out.derivative((1, 1)) == 1.0


def test_sqrt_jet_matches_oracle():
    out = ex.evaluate(ex.parse("sqrt(u1)"), {"u1": seed_variable(4.0, 0, 2)})
    assert out.value == 2.0
    oracle = fd_derivative(math.sqrt, 4.0)
    assert abs(out.derivative((1,)) - 0.25) <= 1e-14
    assert abs(out.derivative((1,)) - oracle) <= 1e-8


def test_real_env_equals_order_zero_jets():
    src = "sin(u1)*cos(u2) + sqrt(u1 + 2) / (1 + u2^2)"
    ast = ex.parse(src)
    real = ex.evaluate(ast, {"u1": 0.7, "u2": -0.4})
    from prodgeo.jets import lift_constant

    jet = ex.evaluate(
        ast, {"u1": lift_constant(0.7, 0, 2), "u2": lift_constant(-0.4, 0, 2)}
    )
    assert real == jet.value


@pytest.mark.parametrize(
    "src",
    [
        "u1 + u2 * u3",
        "-u1^2",
        "u1 - u2 - u3",
        "u1 - (u2 - u3)",
        "2 * -u1",
        "(u1 + 1)^2",
        "u1^-2",
        "sin(cos(u1) * 2) / sqrt(u2 + 3)",
        "1e-3 * u1 + 2.5E2",
    ],
)
def test_pretty_roundtrip_is_fixed_point(src):
    ast = ex.parse(src)
    printed = ex.pretty(ast)
    assert ex.parse(printed) == ast
    assert ex.pretty(ex.parse(printed)) == printed


def test_pretty_roundtrip_on_catalog_expressions():
    for label in catalog_list():
        scn = catalog_get(label)
        trees = list(scn.immersion.components)
        trees += [e for row in scn.space.metric for e in row]
        trees += [e for row in scn.space.structure for e in row]
        for tree in trees:
            printed = ex.pretty(tree)
            assert ex.parse(printed) == tree


def test_variables_collects_names():
    assert ex.variables(ex.parse("sin(u1) + u2 * x3")) == frozenset({"u1", "u2", "x3"})


def test_float_eval_guards():
    with pytest.raises(ZeroDivisionError):
        ex.evaluate(ex.parse("1 / u1"), {"u1": 0.0})
    with pytest.raises(ValueError):
        ex.evaluate(ex.parse("u1^0.5"), {"u1": -1.0})


DIFF_CASES = [
    "x1^3 * x2",
    "x1^-1 - x2",
    "x1^0.5 * x2",
    "x1 / (x2 + 3)",
    "sqrt(x1 * x2)",
    "sin(exp(x1 * x2))",
    "cos(x1) * exp(-x2)",
    "-(x1 - 2 * x2)^2",
    "x2^0 + 3",
]


@pytest.mark.parametrize("src", DIFF_CASES)
def test_diff_matches_jet_derivatives(src):
    # first and second symbolic derivatives against the jet's partials
    node = ex.parse(src)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x0 = rng.uniform(0.3, 1.7, 2)
        x1, x2 = seed_point(list(x0), order=3)
        j = ex.evaluate(node, {"x1": x1, "x2": x2})
        floats = {"x1": float(x0[0]), "x2": float(x0[1])}
        for a, name in enumerate(("x1", "x2")):
            d = ex.diff(node, name)
            expected = j.gradient()[a] if hasattr(j, "gradient") else 0.0
            assert abs(ex.evaluate(d, floats) - expected) <= 1e-12 * max(1.0, abs(expected))
            for b, other in enumerate(("x1", "x2")):
                exps = [0, 0]
                exps[a] += 1
                exps[b] += 1
                expected = j.derivative(exps) if hasattr(j, "derivative") else 0.0
                got = ex.evaluate(ex.diff(d, other), floats)
                assert abs(got - expected) <= 1e-11 * max(1.0, abs(expected))


def test_diff_folds_zeros():
    from prodgeo.ambient import product_of

    assert ex.diff(ex.parse("sin(x2) * 3 + x2^2"), "x1") == ex.Num(0)
    assert ex.diff(ex.parse("1e308 * 10 + x1 * 0"), "x1") == ex.Num(0)
    assert ex.diff(ex.parse("x1"), "x1") == ex.Num(1)
    space = product_of("flat", 2, "flat", 2)
    entries = [e for table in space.metric_diff for row in table for e in row]
    assert len(entries) == 64 and all(e == ex.Num(0) for e in entries)


@pytest.mark.parametrize("src, offset", [
    ("1e309", 0), ("x1^1e309", 3), ("2 * 1e400 + x1", 4), ("x1^10^400", 3), ("x1^0^-1", 3),
])
def test_overflowing_literal_is_a_parse_error(src, offset):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(src)
    assert err.value.offset == offset


def test_interning_shares_equal_subtrees():
    nodes = {}
    a, b = ex.parse("2*sin(u1) + cos(u1)", nodes), ex.parse("sin(u1)^2 - 0.0", nodes)
    assert a.lhs.rhs is b.lhs.lhs  # one sin(u1)
    assert ex.parse("2*sin(u1) + cos(u1)", nodes) is a
    assert ex.parse("-0.0", nodes).arg is b.rhs
    assert ex.make(nodes, ex.Num, -0.0) is not ex.make(nodes, ex.Num, 0.0)  # the sign stays
    # a tree built elsewhere joins the table; structural equality is unchanged
    assert ex.intern(ex.parse("sin(u1)^2 - 0.0"), nodes) is b
    assert ex.diff(b, "u1", nodes).rhs is ex.parse("cos(u1)", nodes)
    assert ex.parse("sin(u1)") == a.lhs.rhs


def test_memoized_pass_evaluates_a_shared_node_once(monkeypatch):
    calls = []
    monkeypatch.setitem(ex._CALLS, "sin", lambda x: calls.append(x) or np.sin(x))
    nodes = {}
    tables = [(ex.parse("sin(u1) + 1", nodes), ex.parse("2*sin(u1)", nodes)),
              ((ex.parse("sin(u1)^2", nodes),),)]
    u = np.array([0.1, 0.2])
    first, second = ex.evaluate_tables(tables, {"u1": u})
    assert len(calls) == 1
    # the point axis leads, the table's nesting trails
    assert np.array_equal(first, np.stack([np.sin(u) + 1, 2 * np.sin(u)], axis=-1))
    assert second.shape == (2, 1, 1) and np.array_equal(second[:, 0, 0], np.sin(u) ** 2)


def test_memoized_tables_share_no_storage():
    nodes = {}
    u1 = np.array([0.3, -0.4])
    table = (ex.parse("u1", nodes), ex.parse("sin(u1)", nodes), ex.parse("sin(u1)", nodes))
    (seed,) = seed_point(u1[:, None], order=2)
    for env in ({"u1": u1}, {"u1": seed}):
        first, second = ex.evaluate_tables([table, table], env)
        data = (lambda t: t.coeffs) if hasattr(first, "coeffs") else (lambda t: t)
        expected = data(second).copy()
        data(first)[...] = 7.0  # a caller writes into its result
        assert np.array_equal(data(second), expected)
        assert np.array_equal(data(ex.evaluate_tables([table], env)[0]), expected)
    assert np.array_equal(u1, [0.3, -0.4])
    assert np.array_equal(seed.coeffs[..., 0], u1)
