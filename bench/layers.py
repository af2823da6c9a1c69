"""Layer spans and exact operation counts, recorded from outside the program.

Both install wrappers for the duration of a ``with`` block and restore the
originals on exit.  A function is replaced in every prodgeo module namespace
that holds it, because callers such as ``cli`` bind ``_lemma1_point``,
``_t2_point`` and the rest with ``from ... import``; replacing only the
defining module would miss those calls.  Classes are wrapped at their
``__init__``, which every caller reaches through the class.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager

# (layer, defining module, attribute); "Class.method" wraps a method.
BOUNDARIES = (
    ("cli.main", "prodgeo.cli", "main"),
    ("scenario.load", "prodgeo.scenario", "load_scenario"),
    ("ambient.validate", "prodgeo.ambient", "validate_ambient"),
    ("subgeom.build", "prodgeo.subgeom", "_JetGeometry.__init__"),
    ("subgeom.classify", "prodgeo.subgeom", "classify_point"),
    ("subgeom.classify", "prodgeo.subgeom", "aggregate_classification"),
    ("calculus.lemma1", "prodgeo.calculus", "_lemma1_point"),
    ("calculus.lemma2", "prodgeo.calculus", "_lemma2_point"),
    ("theorems.pointdata", "prodgeo.theorems", "_PointData.__init__"),
    ("theorems.t2", "prodgeo.theorems", "_t2_point"),
    ("theorems.t3", "prodgeo.theorems", "_t3_point"),
    ("theorems.t4", "prodgeo.theorems", "_t4_point"),
    ("theorems.verdict", "prodgeo.theorems", "_verdict"),
    ("cli.render", "prodgeo.cli", "render_json"),
    ("cli.render", "prodgeo.cli", "render_text"),
)
ROOT_LAYER = "cli.main"


def _resolve(module_name: str, attribute: str):
    """Return (owner, name, original), or None if the boundary is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if original is None:
        return None
    return owner, name, original


@contextmanager
def _patched(replacements):
    """Apply (owner, name, original, wrapper) tuples; restore on exit.

    A class attribute is replaced on the class; a module-level function in
    every loaded prodgeo module that binds the same object.
    """
    undo = []
    try:
        for owner, name, original, wrapper in replacements:
            if isinstance(owner, type):
                bindings = [(owner, name)]
            else:
                bindings = [
                    (module, attr)
                    for key, module in list(sys.modules.items())
                    if key == "prodgeo" or key.startswith("prodgeo.")
                    for attr, value in list(vars(module).items())
                    if value is original
                ]
            for target, attr in bindings:
                setattr(target, attr, wrapper)
                undo.append((target, attr, original))
        yield
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


class Tracer:
    """Spans at layer boundaries, kept in memory.

    Each span is ``[doc, id, parent, layer, start, end]`` on the program
    clock.  A new document id starts with every outermost ``cli.main``.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.doc = 0
        self.not_observed: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, layer, fn):
        spans, stack, now = self.spans, self._stack, self.clock.now

        def wrapper(*args, **kwargs):
            if not stack and layer == ROOT_LAYER:
                self.doc += 1
            span = [self.doc, len(spans), stack[-1] if stack else None, layer, now(), None]
            spans.append(span)
            stack.append(span[1])
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = now()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        replacements = []
        for layer, module_name, attribute in BOUNDARIES:
            found = _resolve(module_name, attribute)
            if found is None:
                self.not_observed.append(f"{layer} ({module_name}.{attribute})")
                continue
            owner, name, original = found
            replacements.append((owner, name, original, self._wrap(layer, original)))
        with _patched(replacements):
            yield self

    def self_times(self, factors: dict[int, float]) -> dict[str, float]:
        """Corrected self seconds per layer: span time minus its child spans."""
        child = defaultdict(float)
        for doc, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for doc, sid, _, layer, start, end in self.spans:
            totals[layer] += (end - start - child[sid]) * factors[doc]
        return dict(totals)


class Counter:
    """Exact counts of jet products, truncations and outermost evaluations.

    ``madds`` adds, for every product, the length of the multiplication table
    of the algebra the product ran in: the multiply-adds it performed.
    """

    def __init__(self):
        self.counts = {"mul": 0, "madds": 0, "truncate": 0, "evaluate": 0}
        self.not_observed: list[str] = []
        self._table_len: dict[object, int] = {}
        self._depth = 0

    def _mul(self, fn):
        counts, table_len = self.counts, self._table_len

        def wrapper(a, b):
            result = fn(a, b)
            if result is not NotImplemented:
                counts["mul"] += 1
                alg = result.alg
                size = table_len.get(alg)
                if size is None:
                    size = table_len[alg] = len(alg.mul_table()[0])
                counts["madds"] += size
            return result

        return wrapper

    def _truncate(self, fn):
        counts = self.counts

        def wrapper(jet, order):
            counts["truncate"] += 1
            return fn(jet, order)

        return wrapper

    def _evaluate(self, fn):
        counts = self.counts

        def wrapper(node, env):
            if self._depth == 0:
                counts["evaluate"] += 1
            self._depth += 1
            try:
                return fn(node, env)
            finally:
                self._depth -= 1

        return wrapper

    @contextmanager
    def installed(self):
        factories = (
            ("prodgeo.jets", "Jet.__mul__", self._mul),
            ("prodgeo.jets", "Jet.__rmul__", self._mul),
            ("prodgeo.jets", "Jet.truncate", self._truncate),
            ("prodgeo.expr", "evaluate", self._evaluate),
        )
        replacements = []
        for module_name, attribute, factory in factories:
            found = _resolve(module_name, attribute)
            if found is None:
                self.not_observed.append(f"{module_name}.{attribute}")
                continue
            owner, name, original = found
            replacements.append((owner, name, original, factory(original)))
        with _patched(replacements):
            yield self
