"""The shortcuts taken for literal table entries, zero connections and
shared subexpressions give the results of the general path.

Each input is rewritten so that no shortcut applies while every value stays
the same: a constant table entry ``c`` becomes ``c + (x1 - x1)*x1``, which
also keeps a variable in the derivative table, and one ``sin(u1)`` of the
immersion becomes ``sin(u1 + 0)``, a node of its own.  Verdicts, flags and
ranks must agree exactly and numbers to 1e-12 relative; the absolute 1e-12
admits residuals that are roundoff on both sides.
"""

import dataclasses
import math

import numpy as np
import pytest

from prodgeo import expr as ex
from prodgeo.ambient import AmbientSpace, product_of
from prodgeo.catalog import catalog_get, catalog_list, flat_product, random_trig_immersion
from prodgeo.subgeom import Immersion, _JetGeometry, _points
from prodgeo.verify import verify


def _general_space(space: AmbientSpace) -> AmbientSpace:
    def rewrite(e):
        text = ex.pretty(e)
        return text if ex.variables(e) else f"{text} + (x1 - x1)*x1"

    def table(rows):
        return [[rewrite(e) for e in row] for row in rows]

    return AmbientSpace(space.dim, table(space.metric), table(space.structure), space.product_split)


def _general_immersion(immersion: Immersion) -> Immersion:
    text = "\n".join(ex.pretty(c) for c in immersion.components)
    text = text.replace("sin(u1)", "sin(u1 + 0)", 1)
    return Immersion(immersion.n, tuple(text.split("\n")), immersion.samples, immersion.label)


def _assert_same(a, b, where):
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            if f.name not in ("space", "immersion"):
                _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12), (where, a, b)
    else:
        assert a == b, (where, a, b)


CASES = [(label, catalog_get(label).space, catalog_get(label).immersion, catalog_get(label).samples)
         for label in catalog_list()]
CASES.append(("random-trig-5", flat_product(2, 2), random_trig_immersion(5, 8), None))


@pytest.mark.parametrize("label, space, immersion, samples", CASES, ids=[c[0] for c in CASES])
def test_fast_paths_match_the_general_path(label, space, immersion, samples):
    samples = samples if samples is not None else immersion.samples
    general_space, general_immersion = _general_space(space), _general_immersion(immersion)
    # the rewritten input takes no shortcut
    points = _points(samples, immersion.n)
    geo = _JetGeometry(general_immersion, general_space, points)
    assert not geo.flat
    # no table is made of literals alone, so none comes back as a
    # read-only view of one array broadcast over the points
    assert all(t.flags.writeable for t in (geo.g0, geo.F0, geo.dg0, geo.dF0))

    fast_geo = _JetGeometry(immersion, space, points)
    assert np.array_equal(fast_geo.x0, geo.x0)
    _assert_same(fast_geo.ambient_report, geo.ambient_report, label)
    for full in (True, False):
        fast = verify(space, immersion, samples, lemmas=full, theorems=full)
        general = verify(general_space, general_immersion, samples, lemmas=full, theorems=full)
        _assert_same(fast, general, label)


CONTRACT_SPACES = {
    "flat-product": (flat_product(2, 2), True),
    "curved-block": (catalog_get("curved-block").space, False),
    # the derivative table of 1 + x1 has only constant entries
    "linear-entry": (product_of([["1 + x1", "0"], ["0", "1"]], 2, "flat", 1), False),
}


@pytest.mark.parametrize("space, flat", CONTRACT_SPACES.values(), ids=CONTRACT_SPACES.keys())
def test_every_table_carries_the_point_axis(space, flat):
    # whatever is constant, a table has the points' leading shape, and
    # flatness is the space's, not read off an evaluated table
    npts, N = 3, space.dim
    shapes = [(npts, N, N), (npts, N, N), (npts, N, N, N), (npts, N, N, N)]
    x = np.linspace(0.1, 0.9, npts * N).reshape(npts, N)
    assert [t.shape for t in space.tables(x)] == shapes
    imm = Immersion(2, ("u1", "u2") + tuple(f"0.3 * u1 * u2 + {i}" for i in range(N - 2)))
    geo = _JetGeometry(imm, space, np.array([[0.1, 0.2], [0.5, -0.3], [0.9, 0.4]]))
    assert [t.shape for t in (geo.g0, geo.F0, geo.dg0, geo.dF0)] == shapes
    assert space.flat == geo.flat == flat
    assert not _general_space(space).flat
