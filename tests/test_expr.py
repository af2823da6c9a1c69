"""Expression parsing, printing and evaluation."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodgeo import expr as ex
from prodgeo.catalog import catalog_get, catalog_list, random_trig_immersion
from prodgeo.jets import Jet, _constant, seed_point

from oracle import fd_derivative
import taylor


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


@pytest.mark.parametrize("src, offset", [
    ("\u0663 * u1", 0), ("\uff11+u1", 0), ("u1 + 2\u0663", 6), ("1e\u0663", 2), ("u1^\u0662", 3),
])
def test_non_ascii_digits_are_unexpected_characters(src, offset):
    # an Arabic-Indic or fullwidth digit is not a number, as a non-ASCII letter is not a name
    with pytest.raises(ex.ParseError, match="^unexpected character") as err:
        ex.parse(src)
    assert err.value.offset == offset


def test_unknown_variable_deferred_to_eval():
    ast = ex.parse("u7 + 1")
    with pytest.raises(ex.UnknownVariable):
        ex.evaluate(ast, {"u1": 0.0})


def test_a_plan_called_without_one_of_its_variables_names_it():
    plan = ex.Plan([(ex.parse("u1 + 1"), ex.parse("sin(u2) * u1"))])
    assert plan({"u1": 1.0, "u2": 0.0})[0].tolist() == [2.0, 0.0]
    with pytest.raises(ex.UnknownVariable, match="^unbound variable 'u2'$") as err:
        plan({"u1": 1.0})
    assert err.value.name == "u2"


def test_pythagorean_identity_with_jets():
    (j,) = seed_point([0.3], 3)
    out = ex.evaluate(ex.parse("sin(u1)^2 + cos(u1)^2"), {"u1": j})
    assert abs(out.value - 1.0) <= 1e-13
    assert np.max(np.abs(out.coeffs[1:])) <= 1e-13


def test_bilinear_mixed_partials():
    u1, u2 = seed_point([2.0, 3.0], order=2)
    out = ex.evaluate(ex.parse("u1*u2"), {"u1": u1, "u2": u2})
    assert out.value == 6.0
    assert out.gradient().tolist() == [3.0, 2.0]
    assert taylor.derivative(out, (1, 1)) == 1.0


def test_sqrt_jet_matches_oracle():
    out = ex.evaluate(ex.parse("sqrt(u1)"), {"u1": seed_point([4.0], 2)[0]})
    assert out.value == 2.0
    oracle = fd_derivative(math.sqrt, 4.0)
    assert abs(taylor.derivative(out, (1,)) - 0.25) <= 1e-14
    assert abs(taylor.derivative(out, (1,)) - oracle) <= 1e-8


def test_real_env_equals_order_zero_jets():
    src = "sin(u1)*cos(u2) + sqrt(u1 + 2) / (1 + u2^2)"
    ast = ex.parse(src)
    real = ex.evaluate(ast, {"u1": 0.7, "u2": -0.4})
    u1, u2 = (j.truncate(0) for j in seed_point([0.7, -0.4], 1))
    jet = ex.evaluate(ast, {"u1": u1, "u2": u2})
    assert jet.order == 0 and real == jet.value


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
        "(u1^2)^3",
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
                expected = taylor.derivative(j, exps) if isinstance(j, Jet) else 0.0
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


def test_plan_has_one_step_per_distinct_subtree():
    a, b = ex.parse("2*sin(u1) + cos(u1)"), ex.parse("sin(u1)^2 - 0.0")
    # u1, 2, sin(u1), 2*sin(u1), cos(u1), a; then ^ and 0 and -, whose 2 is a's
    assert len(ex.Plan([(a, b), ex.parse("2*sin(u1) + cos(u1)")]).steps) == 9
    # the derivative 2*sin(u1)*cos(u1) adds only cos(u1) and two products
    assert len(ex.Plan([b, ex.diff(b, "u1")]).steps) == 6 + 3
    zeros = ex.Plan([(ex.Num(-0.0), ex.Num(0.0), ex.parse("-0.0"))])
    assert len(zeros.steps) == 3  # the sign stays
    assert np.signbit(zeros({})[0]).tolist() == [True, False, True]
    assert ex.parse("sin(u1)") == a.lhs.rhs  # trees compare by structure


def test_constant_map_comes_back_as_a_jet_on_the_points():
    seeds = seed_point(np.array([[0.1], [0.2], [0.3]]), 2)
    (f,) = ex.Plan([(ex.parse("0.5"), ex.parse("-0"))])({"u1": seeds[0]})
    assert isinstance(f, Jet) and f.alg is seeds[0].alg and f.shape == (3, 2)
    assert f.value.tolist() == [[0.5, 0.0]] * 3 and np.signbit(f.value[:, 1]).all()
    assert not f.gradient().any() and not f.hessian().any()


def test_plan_computes_a_shared_step_once(monkeypatch):
    calls = []

    def counting(name, fn):
        return lambda x: calls.append(name) or fn(x)

    for name in ("sin", "cos"):
        monkeypatch.setitem(ex._CALLS, name, counting(name, ex._CALLS[name]))
    tables = [(ex.parse("sin(u1) + 1"), ex.parse("2*sin(u1)")), ((ex.parse("sin(u1)^2"),),)]
    u = np.array([0.1, 0.2])
    first, second = ex.Plan(tables)({"u1": u})
    assert calls == ["sin"]
    # the point axis leads, the table's nesting trails
    assert np.array_equal(first, np.stack([np.sin(u) + 1, 2 * np.sin(u)], axis=-1))
    assert second.shape == (2, 1, 1) and np.array_equal(second[:, 0, 0], np.sin(u) ** 2)

    # a random trig surface: four distinct sin/cos among the 24 of its components
    imm = random_trig_immersion(5, 16)
    calls.clear()
    points = np.array(imm.samples)
    imm._plan({"u1": points[:, 0], "u2": points[:, 1]})
    assert sorted(calls) == ["cos", "cos", "sin", "sin"]
    calls.clear()
    env = {"u1": 0.3, "u2": -0.2}
    for component in imm.components:
        ex.evaluate(component, env)
    assert len(calls) == 24

    # curved-block: sin(x1) in the metric and in its derivative 2*sin(x1)*cos(x1)
    space = catalog_get("curved-block").space
    calls.clear()
    x = np.array([[0.3, 0.1, 0.2], [0.5, 0.0, 1.0]])
    space.tables(x)
    assert sorted(calls) == ["cos", "sin"]


def test_plan_tables_share_no_storage():
    u1 = np.array([0.3, -0.4])
    table = (ex.parse("u1"), ex.parse("sin(u1)"), ex.parse("sin(u1)"))
    plan = ex.Plan([table, table])
    (seed,) = seed_point(u1[:, None], order=2)
    for env in ({"u1": u1}, {"u1": seed}):
        first, second = plan(env)
        data = (lambda t: t.coeffs) if hasattr(first, "coeffs") else (lambda t: t)
        expected = data(second).copy()
        data(first)[...] = 7.0  # a caller writes into its result
        assert np.array_equal(data(second), expected)
        assert np.array_equal(data(plan(env)[0]), expected)
    assert np.array_equal(u1, [0.3, -0.4])
    assert np.array_equal(seed.coeffs[..., 0], u1)


# ---- properties -------------------------------------------------------------

_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _trees(draw, leaves, depth=5):
    """A tree over ``leaves``, at most ``depth`` deep, with every node kind
    (mostly binary operators, whose precedence is the most error-prone);
    exponents are literals."""
    kind = draw(st.sampled_from(["leaf", "binop", "binop", "binop", "neg", "call", "power"])) if depth else "leaf"
    if kind == "leaf":
        return draw(leaves)
    operand = _trees(leaves, depth - 1)
    if kind == "neg":
        return ex.Neg(draw(operand))
    if kind == "call":
        return ex.Call(draw(st.sampled_from(ex.FUNCTIONS)), draw(operand))
    if kind == "power":
        exponent = draw(st.sampled_from([2.0, 3.0, 0.5, -1.0, -2.0]) | _FINITE)
        return ex.BinOp("^", draw(operand), ex.Num(exponent))
    return ex.BinOp(draw(st.sampled_from("+-*/")), draw(operand), draw(operand))


@settings(derandomize=True, deadline=None)
@given(_trees(_FINITE.map(ex.Num) | _NAMES.map(ex.Var)))
def test_pretty_is_a_fixed_point_of_parse(tree):
    printed = ex.pretty(tree)
    assert ex.pretty(ex.parse(printed)) == printed


_FRAGMENTS = [
    "0", "7", "2.5", ".5", "3.", "1e3", "2E-2", "1e999", "e", "u1", "x2", "_a", *ex.FUNCTIONS, "tan",
    "+", "-", "*", "/", "^", "(", ")", " ", "\t", "\n", " ", "é", "$",
    "(" * 60, ")" * 60, "-" * 60, "+u1" * 60, "^1" * 60,
]


@settings(derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join)
       | st.text(alphabet="0123456789.eE+-*/^()_ \tuxsincoé", max_size=30))
def test_parse_gives_a_tree_or_a_located_parse_error(src):
    try:
        tree = ex.parse(src)
    except ex.ParseError as err:
        assert 0 <= err.offset <= len(src)
    else:
        assert isinstance(tree, (ex.Num, ex.Var, ex.Neg, ex.BinOp, ex.Call))


def _bits(values):
    values = np.ascontiguousarray(values, dtype=float)
    return values.shape, values.tobytes()


_ENTRIES = _trees(
    st.sampled_from([ex.Num(0.0), ex.Num(-0.0), ex.Var("u1"), ex.Var("u2")])
    | st.floats(-3.0, 3.0).map(ex.Num),
    depth=3,
)
_TABLES = st.lists(
    st.integers(1, 3).flatmap(lambda cols: st.lists(st.tuples(*[_ENTRIES] * cols), min_size=1, max_size=3)),
    min_size=1, max_size=3,
).map(lambda tables: [tuple(rows) for rows in tables])


@settings(derandomize=True, deadline=None, report_multiple_bugs=False)
@given(_TABLES)
def test_plan_matches_evaluating_each_entry(tables):
    u = np.array([[0.3, -0.7], [1.1, 0.0], [-0.4, 2.5]])
    for env in (dict(zip(("u1", "u2"), u.T)), dict(zip(("u1", "u2"), seed_point(u, order=2)))):
        with np.errstate(all="ignore"):
            try:
                expected = [[[ex.evaluate(e, env) for e in row] for row in table] for table in tables]
            except (ArithmeticError, ValueError) as err:  # the plan stops at the same first failure
                with pytest.raises(type(err), match=re.escape(str(err))):
                    ex.Plan(tables)(env)
                continue
            got = ex.Plan(tables)(env)
        for values, rows in zip(got, expected):
            for i, row in enumerate(rows):
                for j, value in enumerate(row):
                    entry = taylor.entry(values, ..., i, j)
                    if isinstance(entry, Jet):  # a constant entry of a jet table is a constant jet
                        if not isinstance(value, Jet):
                            value = _constant(entry.alg, value)
                        entry, value = entry.coeffs, value.coeffs
                    assert _bits(entry) == _bits(np.broadcast_to(value, entry.shape))


# ---- pinned front-end behaviour ----------------------------------------------

# every message and offset, as the parser reports them
PARSE_ERRORS = [
    ("(u1 .", "unexpected character '.'", 4),
    ("u1 .", "unexpected character '.'", 3),
    (".", "unexpected character '.'", 0),
    ("..5", "unexpected character '.'", 0),
    (" \t.5.", "unexpected character '.'", 4),
    ("u1 + $", "unexpected character '$'", 5),
    ("(u1 + tan) $ .", "unexpected character '$'", 11),
    ("tan(u1)", "unknown function 'tan'", 0),
    ("u1 +", "unexpected end of input", 4),
    ("u1 +  ", "unexpected end of input", 6),
    ("", "unexpected end of input", 0),
    ("* u1", "expected a value, found '*'", 0),
    ("(u1", "expected ')'", 3),
    ("sin(u1", "expected ')'", 6),
    ("u1^u2", "exponent must be a numeric literal", 3),
    ("u1^", "exponent must be a numeric literal", 3),
    ("u1^-", "exponent must be a numeric literal", 4),
    ("1e999", "numeric literal '1e999' overflows", 0),
    ("u1^1e309", "numeric literal '1e309' overflows", 3),
    ("u1^10^400", "exponent is not a finite number", 3),
    ("u1^2^10^400", "exponent is not a finite number", 5),
    ("u1^0^-1", "exponent is not a finite number", 3),
    ("u1 u2", "unexpected token 'u2'", 3),
    ("2u1", "unexpected token 'u1'", 1),
    ("1.2.3", "unexpected token '.3'", 3),
    ("u1)", "unexpected token ')'", 2),
    ("sin u1", "unexpected token 'u1'", 4),
    ("-" * 101 + "u1", "expression nested deeper than 100 levels", 100),
    ("(" * 101 + "u1" + ")" * 101, "expression nested deeper than 100 levels", 100),
    ("-(" * 51 + "u1" + ")" * 51, "expression nested deeper than 100 levels", 100),
    ("u1" + "^2" * 102, "expression nested deeper than 100 levels", 203),
    ("u1" + "^2" * 100, "exponent is not a finite number", 193),
    ("u1" + "+u1" * 100, "expression nested deeper than 100 levels", 300),
    ("(" * 100 + "u1" + ")" * 100 + " + 1", "expression nested deeper than 100 levels", 205),
]


@pytest.mark.parametrize("src, message, offset", PARSE_ERRORS)
def test_parse_error_messages_and_offsets(src, message, offset):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(src)
    assert (str(err.value), err.value.offset) == (f"{message} (offset {offset})", offset)


def _corpus() -> list[str]:
    """Sources as documents hold them: every catalog scenario's map, metric
    and structure entries, random trig surfaces, and the README's examples."""
    sources = []
    for label in catalog_list():
        scn = catalog_get(label)
        sources += [ex.pretty(c) for c in scn.immersion.components]
        for matrix in (scn.space.metric, scn.space.structure):
            sources += [ex.pretty(e) for row in matrix for e in row]
    for seed in range(50):
        sources += [ex.pretty(c) for c in random_trig_immersion(seed, 0).components]
    sources += ["1", "0", "sin(x1)^2", "0.7853981633974483", "u1", "u2", "cos(u1)", "sin(u1)",
                "0.5", "1/2", "x1*x2", "x2*x1", "1e155*cos(u1)", "1e-20", "1 + x1"]
    return sources


CORPUS_SIZE = 478
CORPUS_DIGEST = "0bc9bb00ff4e351ad4d12c140f6ff686c4d59f0dfeb166693ed2659688c33dc7"


def test_trees_are_unchanged_on_a_fixed_corpus():
    # identical trees compile to identical plans, so reports stay byte-identical
    sources = _corpus()
    assert len(sources) == CORPUS_SIZE
    digest = hashlib.sha256("\n".join(repr(ex.parse(src)) for src in sources).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


PLAN_DIGEST = "9b6a3ec78221e11de16623cc556343c37fdaaefa3c34cfb67e01b015e3935953"


def test_plans_are_unchanged_on_a_fixed_corpus():
    # the steps and layouts of every corpus source and of every catalog
    # space's own plan of its four tables
    digest = hashlib.sha256()
    plans = [ex.Plan([ex.parse(src)]) for src in _corpus()]
    for label in catalog_list():
        space = catalog_get(label).space
        plans.append(space._plan)
    for plan in plans:
        digest.update(repr((plan.steps, plan.layouts)).encode())
    assert len(plans) == CORPUS_SIZE + len(catalog_list())
    assert digest.hexdigest() == PLAN_DIGEST


def test_plan_refuses_what_is_not_an_expression():
    with pytest.raises(TypeError, match="is not an expression"):
        ex.Plan([[ex.Var("u1")]])
