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

Numbers are written in ASCII without digit-group underscores, as in expressions.
A key that its section does not read (the ambient section's in its mode), or a
key in a section other than these four, is an error, not ignored.

Loading parses: it checks the sections and dimensions and parses every
expression, but evaluates none.  Whether the space is locally product at the
images of the samples is measured by the geometry build, inside
:func:`prodgeo.verify.verify`.
"""

from __future__ import annotations

import configparser
import io
import itertools
import math
from dataclasses import dataclass
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


def _split_top(text: str, sep: str) -> list[str]:
    """Split at separators that are not nested inside parentheses."""
    parts, current = [], None
    for piece in text.split(sep):
        current = piece if current is None else current + sep + piece
        # the separator after ``current`` is at depth 0 when its parentheses balance
        if current.count("(") == current.count(")"):
            parts.append(current.strip())
            current = None
    if current is not None:
        parts.append(current.strip())
    return [p for p in parts if p]


def _parse_matrix(text: str, section: str) -> list[list[str]]:
    rows = _split_top(text, ";")
    matrix = [_split_top(row, ",") for row in rows]
    if not matrix or any(len(r) != len(matrix) for r in matrix):
        raise ScenarioError("matrix must be square (rows separated by ';')", section)
    return matrix


def _number(text: str, kind=float):
    """``kind(text)`` for a number written in ASCII without underscores;
    ``int`` and ``float`` alone also read ``1_0`` and non-ASCII digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return kind(text)


def _get(cfg: configparser.ConfigParser, section: str, key: str) -> str:
    if not cfg.has_section(section):
        raise ScenarioError(f"missing section [{section}]", section)
    if not cfg.has_option(section, key):
        raise ScenarioError(f"missing key {key!r}", section)
    return cfg.get(section, key).strip()

def _get_int(cfg, section, key) -> int:
    raw = _get(cfg, section, key)
    try:
        return _number(raw, int)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {raw!r}", section) from None


def _get_float(cfg, section, key, default) -> float:
    if not cfg.has_section(section) or not cfg.has_option(section, key):
        return default
    raw = cfg.get(section, key).strip()
    try:
        return _number(raw)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {raw!r}", section) from None


def _load_ambient(cfg: configparser.ConfigParser) -> AmbientSpace:
    section = "ambient"
    mode = _get(cfg, section, "mode")
    try:
        if mode == "product":
            p = _get_int(cfg, section, "p")
            q = _get_int(cfg, section, "q")
            block_a = _get(cfg, section, "blockA_metric")
            block_b = _get(cfg, section, "blockB_metric")
            a_rows = "flat" if block_a == "flat" else _parse_matrix(block_a, section)
            b_rows = "flat" if block_b == "flat" else _parse_matrix(block_b, section)
            space = product_of(a_rows, p, b_rows, q)
        elif mode == "explicit":
            dim = _get_int(cfg, section, "dim")
            metric = _parse_matrix(_get(cfg, section, "metric"), section)
            structure = _parse_matrix(_get(cfg, section, "structure"), section)
            space = AmbientSpace(dim, metric, structure)
        else:
            raise ScenarioError(f"mode must be 'product' or 'explicit', got {mode!r}", section)
    except (ex.ParseError, ex.UnknownVariable, ValueError) as err:
        if isinstance(err, ScenarioError):
            raise
        raise ScenarioError(str(err), section) from err
    if cfg.has_option(section, "dim"):
        declared = _get_int(cfg, section, "dim")
        if declared != space.dim:
            raise DimensionMismatch(
                f"declared dim {declared} but the metric has dimension {space.dim}",
                section,
            )
    return space


def _load_immersion(cfg: configparser.ConfigParser, space: AmbientSpace) -> Immersion:
    section = "immersion"
    n = _get_int(cfg, section, "n")
    label = cfg.get(section, "label", fallback="").strip()
    components = _split_top(_get(cfg, section, "map"), ",")
    if len(components) != space.dim:
        raise DimensionMismatch(
            f"map has {len(components)} components but the ambient dimension is {space.dim}",
            section,
        )
    try:
        return Immersion(n, tuple(components), label=label)
    except (ex.ParseError, ex.UnknownVariable, ValueError) as err:
        raise ScenarioError(str(err), section) from err


def _parse_points(text: str, n: int) -> tuple[tuple[float, ...], ...]:
    section = "samples"
    points = []
    for chunk in _split_top(text, ";"):
        chunk = chunk.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ScenarioError(f"point {chunk!r} must be parenthesized", section)
        entries = [e.strip() for e in chunk[1:-1].split(",")]
        if not entries[-1]:  # one trailing comma, or no coordinates
            entries.pop()
        try:
            point = tuple(map(_number, entries))
        except ValueError:
            raise ScenarioError(f"non-numeric sample point {chunk!r}", section) from None
        if len(point) != n:
            raise DimensionMismatch(
                f"sample {chunk} has {len(point)} coordinates, expected {n}", section
            )
        points.append(point)
    if not points:
        raise ScenarioError("points list is empty", section)
    return tuple(points)


def _parse_grid(text: str, n: int) -> tuple[tuple[float, ...], ...]:
    section = "samples"
    axes: dict[str, list[float]] = {}
    for chunk in _split_top(text, ";"):
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
        fields[key.strip()] = value.strip()
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


def _load_samples(cfg, n: int, seed_override: int | None) -> tuple[tuple[float, ...], ...]:
    section = "samples"
    if not cfg.has_section(section):
        raise ScenarioError("missing section [samples]", section)
    keys = [k for k in ("points", "grid", "random") if cfg.has_option(section, k)]
    if len(keys) != 1:
        raise ScenarioError("need exactly one of points/grid/random", section)
    text = cfg.get(section, keys[0]).strip()
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


# the keys each section reads, the ambient section's by mode; [tolerances] also
# takes fail_threshold, which files of earlier versions set, and ignores it
_KEYS = {
    ("ambient", "product"): ("mode", "dim", "p", "q", "blockA_metric", "blockB_metric"),
    ("ambient", "explicit"): ("mode", "dim", "metric", "structure"),
    ("immersion", None): ("n", "map", "label"),
    ("samples", None): ("points", "grid", "random"),
    ("tolerances", None): ("identity_tol", "classify_tol", "fail_threshold"),
}


def loads_scenario(text: str, seed_override: int | None = None) -> LoadedScenario:
    cfg = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    cfg.optionxform = str
    try:
        cfg.read_string(text)
    except configparser.Error as err:
        raise ScenarioError(str(err), getattr(err, "section", None)) from err
    space = _load_ambient(cfg)
    immersion = _load_immersion(cfg, space)
    samples = _load_samples(cfg, immersion.n, seed_override)
    identity_tol = _get_float(cfg, "tolerances", "identity_tol", 1e-8)
    classify_tol = _get_float(cfg, "tolerances", "classify_tol", 1e-8)
    try:
        tolerances = Tolerances(identity_tol, classify_tol)
    except ValueError as err:
        raise ScenarioError(str(err), "tolerances") from None
    mode = cfg.get("ambient", "mode").strip()
    for section in cfg.sections():
        read = _KEYS.get((section, mode if section == "ambient" else None), ())
        unread = [key for key in cfg.options(section) if key not in read]
        if unread:
            where = f" in {mode} mode" if section == "ambient" else ""
            raise ScenarioError(f"key {unread[0]!r} is not read{where}", section)
    return LoadedScenario(
        label=immersion.label,
        space=space,
        immersion=immersion,
        samples=samples,
        tolerances=tolerances,
    )


def load_scenario(path: str | Path, seed_override: int | None = None) -> LoadedScenario:
    return loads_scenario(Path(path).read_text(), seed_override=seed_override)


def _matrix_text(matrix) -> str:
    return "; ".join(", ".join(ex.pretty(e) for e in row) for row in matrix)


def scenario_text(
    space: AmbientSpace,
    immersion: Immersion,
    samples: Sequence[Sequence[float]],
    tolerances: Tolerances = Tolerances(),
    label: str | None = None,
) -> str:
    """Render a scenario in the file format; load/export round-trips exactly."""
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
    out.write(f"label = {label if label is not None else immersion.label}\n")
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


def export_scenario(
    path: str | Path,
    source: Scenario | LoadedScenario,
    tolerances: Tolerances | None = None,
) -> None:
    if tolerances is None:
        tolerances = getattr(source, "tolerances", Tolerances())
    Path(path).write_text(
        scenario_text(
            source.space, source.immersion, source.samples, tolerances, label=source.label
        )
    )
