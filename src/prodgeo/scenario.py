"""Scenario-file ingestion and export.

A scenario file is an INI-style document with four sections::

    [ambient]
    mode = product            # or "explicit"
    p = 1                     # product mode: block dimensions
    q = 1
    blockA_metric = flat      # or rows "g11, g12; g21, g22" over x1..xp
    blockB_metric = flat      # rows over x(p+1)..x(p+q)
    # explicit mode instead uses:
    # dim = 2
    # metric = 1, 0; 0, 1
    # structure = 1, 0; 0, -1

    [immersion]
    n = 1
    map = cos(u1), sin(u1)
    label = circle

    [samples]                 # exactly one of the three forms
    points = (0.0,); (0.39269908169872414,)
    # grid = u1: 0 : 1.5 : 4; u2: -1 : 1 : 3        (start : stop : count)
    # random = count=5 seed=42 box=(-1,1)x(-1,1)

    [tolerances]              # optional, defaults shown; each must be
    identity_tol = 1e-8       # a positive finite number
    classify_tol = 1e-8

Files are read and written as UTF-8.  The text is split into lines at ``\\n``
and read in one pass, with the grammar of Python's ``configparser`` (no
interpolation, ``#`` as the inline comment prefix, case-sensitive keys):

* a ``#`` at the start of a line or right after a whitespace character starts
  a comment that runs to the end of the line, and a line whose text starts
  with ``#`` or ``;`` is a comment line;
* ``[name]`` opens a section; the name is the text between the brackets, not
  stripped;
* a key line is split at its first ``=`` or ``:``; the key is right-stripped
  and the value stripped;
* a line indented deeper than the line that started the current key continues
  that key's value; blank lines inside a continued value are kept as empty
  lines unless they held a comment, and the parts are joined with ``\\n`` and
  right-stripped.

Unlike ``configparser``, text after a header's ``]`` is an error and
``[DEFAULT]`` is an ordinary section.  A structural error is one line that
names its section (the section open at that line, or the repeated one) and its
line number, as in ``[immersion] line 11: 'foo' is not 'key = value'``; text
before the first header has no section to name (``line 1: text before the
first section header 'foo'``).  The other forms are ``section is repeated``,
``key 'points' is repeated`` and ``text after the section header '[a] b'``.

Numbers are written in ASCII without digit-group underscores, as in expressions.
An empty entry of a list (a matrix row or entry, a map component, a point or a
grid axis), a trailing one included, is an error, not skipped.
A key that its section does not read (the ambient section's in its mode), a
key in a section other than these four, or a random spec key other than count,
seed and box or given twice, is an error, not ignored.

Loading parses: it checks the sections and dimensions and parses every
expression, but evaluates none.  Whether the space is locally product at the
images of the samples is measured by the geometry build, inside
:func:`prodgeo.verify.verify`.

Each distinct ``[ambient]`` text is built once per process: documents whose
sections hold the same keys and values in the same order share one
:class:`~prodgeo.ambient.AmbientSpace`, with its derivative tables and
compiled table plans (the 64 most recently used sections are kept), and if it
is ``constant`` its one evaluation and validation.  A section that fails
raises again on every load, and a failed validation in every document.
Immersions are not shared.  Only documents in one process share a space (a
``prodgeo`` run of several files, a library caller); one file gains nothing.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

from . import expr as ex
from .ambient import AmbientSpace, product_of
from .catalog import Scenario
from .rng import SplitMix64
from .subgeom import Immersion, param_vars
from .verify import Tolerances

__all__ = [
    "ScenarioError",
    "DimensionMismatch",
    "LoadedScenario",
    "load_scenario",
    "loads_scenario",
    "export_scenario",
    "scenario_text",
]


class ScenarioError(ValueError):
    """Malformed scenario file; names the offending section."""

    def __init__(self, message: str, section: str | None = None):
        prefix = f"[{section}] " if section else ""
        super().__init__(f"{prefix}{message}")
        self.section = section


class DimensionMismatch(ScenarioError):
    pass


@dataclass(frozen=True)
class LoadedScenario:
    label: str
    space: AmbientSpace
    immersion: Immersion
    samples: tuple[tuple[float, ...], ...]
    tolerances: Tolerances


def _split_top(text: str, sep: str, section: str) -> list[str]:
    """Split at separators that are not nested inside parentheses; an empty
    entry, a trailing one included, is an error of ``section``."""
    parts, current = [], None
    for piece in text.split(sep):
        current = piece if current is None else current + sep + piece
        # the separator after ``current`` is at depth 0 when its parentheses balance
        if current.count("(") == current.count(")"):
            parts.append(current.strip())
            current = None
    if current is not None:
        parts.append(current.strip())
    if not all(parts):
        raise ScenarioError(f"empty entry in {text!r}", section)
    return parts


def _parse_matrix(text: str, section: str) -> list[list[str]]:
    matrix = [_split_top(row, ",", section) for row in _split_top(text, ";", section)]
    if any(len(r) != len(matrix) for r in matrix):
        raise ScenarioError("matrix must be square (rows separated by ';')", section)
    return matrix


def _number(text: str, kind=float):
    """``kind(text)`` for a number written in ASCII without underscores;
    ``int`` and ``float`` alone also read ``1_0`` and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return kind(text)


_KEY_LINE = re.compile(r"([^=:]*)[=:](.*)")


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    """Section -> key -> value of a scenario file's text (see the module
    docstring for the grammar); a structural error names its line."""
    doc: dict[str, dict[str, str]] = {}
    name = keys = key = None  # the open section, its keys, the key being continued
    indent = 0  # of the line that opened ``key``
    for number, line in enumerate(text.split("\n"), 1):
        hash_at = line.find("#")  # an inline comment starts at a '#' after whitespace
        while hash_at > 0 and not line[hash_at - 1].isspace():
            hash_at = line.find("#", hash_at + 1)
        value = (line if hash_at < 0 else line[:hash_at]).strip()
        if not value or value[0] == ";":
            if key is not None and hash_at < 0 and not value:
                keys[key] += "\n"  # a blank line inside a continued value
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            keys[key] += "\n" + value
            continue
        indent = depth
        if value[0] == "[" and value.find("]", 2) > 0:  # a header, as configparser matches one
            if value[-1] != "]":
                raise ScenarioError(f"line {number}: text after the section header {value!r}", name)
            name, key = value[1:-1], None
            if name in doc:
                raise ScenarioError(f"line {number}: section is repeated", name)
            keys = doc[name] = {}
            continue
        if name is None:
            raise ScenarioError(f"line {number}: text before the first section header {value!r}")
        match = _KEY_LINE.match(value)
        if match is None or not match[1]:
            raise ScenarioError(f"line {number}: {value!r} is not 'key = value'", name)
        key = match[1].rstrip()
        if key in keys:
            raise ScenarioError(f"line {number}: key {key!r} is repeated", name)
        keys[key] = match[2].strip()
    for keys in doc.values():  # drop the blank lines a value ended on
        for key, value in keys.items():
            keys[key] = value.rstrip()
    return doc


def _get(doc: dict[str, dict[str, str]], section: str, key: str) -> str:
    if section not in doc:
        raise ScenarioError(f"missing section [{section}]", section)
    if key not in doc[section]:
        raise ScenarioError(f"missing key {key!r}", section)
    return doc[section].pop(key).strip()

def _get_int(doc, section, key) -> int:
    raw = _get(doc, section, key)
    try:
        return _number(raw, int)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {raw!r}", section) from None


def _get_float(doc, section, key, default) -> float:
    raw = doc.get(section, {}).pop(key, None)
    if raw is None:
        return default
    raw = raw.strip()
    try:
        return _number(raw)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {raw!r}", section) from None


def _load_ambient(doc: dict[str, dict[str, str]]) -> AmbientSpace:
    """The space of the ``[ambient]`` section, which is left holding the keys
    it does not read; see :func:`_ambient_space`."""
    keys = doc.get("ambient")
    space, unread = _ambient_space(None if keys is None else tuple(keys.items()))
    doc["ambient"] = dict(unread)
    return space


@lru_cache(maxsize=64)
def _ambient_space(pairs: tuple[tuple[str, str], ...] | None) -> tuple[AmbientSpace, tuple]:
    """The space of an ``[ambient]`` section given as its ``(key, value)``
    pairs in file order (``None`` if there is none), and the pairs it does not
    read.  Cached by content: documents with the same section share one space,
    with its derivative tables and compiled plans; an error is not cached."""
    section = "ambient"
    doc = {} if pairs is None else {section: dict(pairs)}
    mode = _get(doc, section, "mode")
    try:
        if mode == "product":
            p = _get_int(doc, section, "p")
            q = _get_int(doc, section, "q")
            block_a = _get(doc, section, "blockA_metric")
            block_b = _get(doc, section, "blockB_metric")
            a_rows = "flat" if block_a == "flat" else _parse_matrix(block_a, section)
            b_rows = "flat" if block_b == "flat" else _parse_matrix(block_b, section)
            space = product_of(a_rows, p, b_rows, q)
        elif mode == "explicit":
            dim = _get_int(doc, section, "dim")
            metric = _parse_matrix(_get(doc, section, "metric"), section)
            structure = _parse_matrix(_get(doc, section, "structure"), section)
            space = AmbientSpace(dim, metric, structure)
        else:
            raise ScenarioError(f"mode must be 'product' or 'explicit', got {mode!r}", section)
    except ValueError as err:
        if isinstance(err, ScenarioError):
            raise
        raise ScenarioError(str(err), section) from err
    if "dim" in doc[section]:
        declared = _get_int(doc, section, "dim")
        if declared != space.dim:
            raise DimensionMismatch(
                f"declared dim {declared} but the metric has dimension {space.dim}",
                section,
            )
    return space, tuple(doc[section].items())


def _load_immersion(doc: dict[str, dict[str, str]], space: AmbientSpace) -> Immersion:
    section = "immersion"
    n = _get_int(doc, section, "n")
    label = doc[section].pop("label", "").strip()
    components = _split_top(_get(doc, section, "map"), ",", section)
    try:
        trees = tuple(map(ex.parse, components))  # a syntax error before the count
        if len(trees) == space.dim:
            return Immersion(n, trees, label=label)
    except ValueError as err:
        raise ScenarioError(str(err), section) from err
    raise DimensionMismatch(
        f"map has {len(trees)} component{'s' * (len(trees) != 1)} but the ambient dimension"
        f" is {space.dim}",
        section,
    )


def _parse_points(text: str, n: int) -> tuple[tuple[float, ...], ...]:
    """The points of a ``points`` text; each coordinate is read by ``float``
    when the whole text is plain ASCII without underscores, where it is
    what :func:`_number` reads, else by :func:`_number`."""
    section = "samples"
    number = float if text.isascii() and "_" not in text else _number
    points = []
    for chunk in _split_top(text, ";", section):
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ScenarioError(f"point {chunk!r} must be parenthesized", section)
        entries = [e.strip() for e in chunk[1:-1].split(",")]
        if not entries[-1]:  # one trailing comma, or no coordinates
            entries.pop()
        try:
            point = tuple(map(number, entries))
        except ValueError:
            raise ScenarioError(f"non-numeric sample point {chunk!r}", section) from None
        if len(point) != n:
            raise DimensionMismatch(
                f"sample {chunk} has {len(point)} coordinates, expected {n}", section
            )
        points.append(point)
    return tuple(points)


def _parse_grid(text: str, n: int) -> tuple[tuple[float, ...], ...]:
    section = "samples"
    axes: dict[str, list[float]] = {}
    for chunk in _split_top(text, ";", section):
        pieces = [p.strip() for p in chunk.split(":")]
        if len(pieces) != 4:
            raise ScenarioError(
                f"grid axis {chunk!r} must be 'name : start : stop : count'", section
            )
        name, start, stop, count = pieces
        try:
            start, stop, count = _number(start), _number(stop), _number(count, int)
        except ValueError:
            raise ScenarioError(f"bad grid axis {chunk!r}", section) from None
        if count < 1:
            raise ScenarioError("grid axis count must be >= 1", section)
        if name in axes:
            raise ScenarioError(f"grid axis {name!r} is given twice", section)
        if count == 1:
            axes[name] = [start]
        else:
            step = (stop - start) / (count - 1)
            axes[name] = [start + i * step for i in range(count)]
    expected = list(param_vars(n))
    if sorted(axes) != sorted(expected):
        raise DimensionMismatch(
            f"grid axes {sorted(axes)} do not match parameters {expected}", section
        )
    ordered = [axes[name] for name in expected]
    return tuple(itertools.product(*ordered))


def _parse_random(text: str, n: int, seed_override: int | None) -> tuple[tuple[float, ...], ...]:
    section = "samples"
    fields: dict[str, str] = {}
    for token in text.split():
        if "=" not in token:
            raise ScenarioError(f"random spec token {token!r} is not key=value", section)
        key, value = token.split("=", 1)
        if key in fields or key not in ("count", "seed", "box"):
            reason = "repeated" if key in fields else "not read"
            raise ScenarioError(f"random spec key {key!r} is {reason}", section)
        fields[key] = value.strip()
    for required in ("count", "seed", "box"):
        if required not in fields:
            raise ScenarioError(f"random spec needs {required}=...", section)
    try:
        count = _number(fields["count"], int)
        seed = _number(fields["seed"], int)
    except ValueError:
        raise ScenarioError("random count and seed must be integers", section) from None
    if count < 1:
        raise ScenarioError("random count must be >= 1", section)
    if seed_override is not None:
        seed = seed_override
    ranges = []
    for rng_text in fields["box"].split("x"):
        rng_text = rng_text.strip()
        parenthesized = rng_text.startswith("(") and rng_text.endswith(")")
        try:
            lo, hi = map(_number, rng_text[1:-1].split(",")) if parenthesized else ()
        except ValueError:
            raise ScenarioError(f"box range {rng_text!r} must look like (lo,hi)", section) from None
        ranges.append((lo, hi))
    if len(ranges) != n:
        raise DimensionMismatch(
            f"box has {len(ranges)} ranges, expected {n}", section
        )
    gen = SplitMix64(seed)
    return tuple(
        tuple(gen.uniform(lo, hi) for lo, hi in ranges) for _ in range(count)
    )


def _load_samples(doc, n: int, seed_override: int | None) -> tuple[tuple[float, ...], ...]:
    section = "samples"
    if section not in doc:
        raise ScenarioError("missing section [samples]", section)
    keys = [k for k in ("points", "grid", "random") if k in doc[section]]
    if len(keys) != 1:
        raise ScenarioError("need exactly one of points/grid/random", section)
    text = doc[section].pop(keys[0]).strip()
    if keys[0] == "points":
        samples = _parse_points(text, n)
    elif keys[0] == "grid":
        samples = _parse_grid(text, n)
    else:
        samples = _parse_random(text, n, seed_override)
    for point in samples:
        if not all(math.isfinite(v) for v in point):
            raise ScenarioError(f"sample point {point} is not finite", section)
    return samples


def loads_scenario(text: str, seed_override: int | None = None) -> LoadedScenario:
    doc = _read_sections(text)
    space = _load_ambient(doc)
    immersion = _load_immersion(doc, space)
    samples = _load_samples(doc, immersion.n, seed_override)
    identity_tol = _get_float(doc, "tolerances", "identity_tol", 1e-8)
    classify_tol = _get_float(doc, "tolerances", "classify_tol", 1e-8)
    try:
        tolerances = Tolerances(identity_tol, classify_tol)
    except ValueError as err:
        raise ScenarioError(str(err), "tolerances") from None
    # files of earlier versions set fail_threshold, which is taken and ignored
    doc.get("tolerances", {}).pop("fail_threshold", None)
    for section, unread in doc.items():  # each loader took the keys it read
        if unread:
            mode = "explicit" if space.product_split is None else "product"
            where = f" in {mode} mode" if section == "ambient" else ""
            raise ScenarioError(f"key {next(iter(unread))!r} is not read{where}", section)
    return LoadedScenario(
        label=immersion.label,
        space=space,
        immersion=immersion,
        samples=samples,
        tolerances=tolerances,
    )


def load_scenario(path: str | Path, seed_override: int | None = None) -> LoadedScenario:
    return loads_scenario(Path(path).read_text(encoding="utf-8"), seed_override=seed_override)


def _matrix_text(matrix) -> str:
    return "; ".join(", ".join(ex.pretty(e) for e in row) for row in matrix)


def scenario_text(
    space: AmbientSpace,
    immersion: Immersion,
    samples: Sequence[Sequence[float]],
    tolerances: Tolerances = Tolerances(),
    label: str | None = None,
) -> str:
    """Render a scenario in the file format; load/export round-trips exactly,
    so a label holding ``#`` (a comment) or a line break, or with outer
    whitespace (stripped on load), is a ``ValueError``."""
    label = immersion.label if label is None else label
    if "#" in label or "\n" in label or "\r" in label or label != label.strip():
        raise ValueError(f"label {label!r} does not round-trip through a scenario file")
    out = io.StringIO()
    out.write("[ambient]\n")
    if space.product_split is not None:
        p, q = space.product_split
        out.write("mode = product\n")
        out.write(f"dim = {space.dim}\n")
        out.write(f"p = {p}\nq = {q}\n")
        block_a = [row[:p] for row in space.metric[:p]]
        block_b = [row[p:] for row in space.metric[p:]]
        out.write(f"blockA_metric = {_matrix_text(block_a)}\n")
        out.write(f"blockB_metric = {_matrix_text(block_b)}\n")
    else:
        out.write("mode = explicit\n")
        out.write(f"dim = {space.dim}\n")
        out.write(f"metric = {_matrix_text(space.metric)}\n")
        out.write(f"structure = {_matrix_text(space.structure)}\n")
    out.write("\n[immersion]\n")
    out.write(f"n = {immersion.n}\n")
    out.write(f"map = {', '.join(ex.pretty(c) for c in immersion.components)}\n")
    out.write(f"label = {label}\n")
    out.write("\n[samples]\n")
    formatted = "; ".join(
        "(" + ", ".join(repr(float(v)) for v in u) + ("," if len(u) == 1 else "") + ")"
        for u in samples
    )
    out.write(f"points = {formatted}\n")
    out.write("\n[tolerances]\n")
    out.write(f"identity_tol = {tolerances.identity_tol!r}\n")
    out.write(f"classify_tol = {tolerances.classify_tol!r}\n")
    return out.getvalue()


def export_scenario(path: str | Path, source: Scenario | LoadedScenario) -> None:
    tolerances = getattr(source, "tolerances", Tolerances())
    Path(path).write_text(
        scenario_text(
            source.space, source.immersion, source.samples, tolerances, label=source.label
        ),
        encoding="utf-8",
    )
