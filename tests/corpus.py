"""The reference corpus: what the CLI reports on a fixed set of scenario files.

``tests/corpus/*.ini`` are the inputs: the ten catalog exports,
``random_trig_immersion`` seeds 0-19 and 440307 at 8 points in flat
R^2 x R^2, the two 8x8 grids of ``grids.seed_one_grids``, the block-mixing
chart of ``controls`` and its composition with x_old, edits of the circle
and curved-block exports (a fractional power and a constant term in the
map, a metric of scale 1e-20, a block metric ``1 + x1``, continuation and
comment lines), and error documents (``error-*.ini``), three of which
``test_cli`` reads as its own inputs.  ``tests/corpus/reference.json``
holds, per command and file, the run's exit code, the first line of its
stderr with each number replaced by ``#`` (its numbers are a float field,
``stderr numbers``), and its report split into fields:

* ``verdicts``: every field without a number, compared exactly.  A JSON
  report's fields are its leaves by path, with the ``points`` array read as
  one column per path; a text report's are its lines, with each number
  replaced by ``#``.
* ``floats``: every field with a number.  Two numbers agree within 1e-12
  relative, or when both are below 1e-9 in size, since LAPACK rounding may
  differ between builds; anything else in the field is compared exactly.
  Integers are compared the same way, which is exact below 10^12.

Record the reference again from the prodgeo that Python imports, and print
what changed, with::

    PYTHONPATH=src python tests/corpus.py --write
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from prodgeo import cli

CORPUS = Path(__file__).resolve().parent / "corpus"
REFERENCE = CORPUS / "reference.json"
COMMANDS = {
    "classify": ["classify"],
    "check-json": ["check", "--all", "--format", "json"],
    "check-lemmas": ["check", "--lemmas"],
    "check-lemmas-json": ["check", "--lemmas", "--format", "json"],
    "check-theorems": ["check", "--theorems"],
    "check-theorems-json": ["check", "--theorems", "--format", "json"],
    "report": ["report"],
    "report-force-json": ["report", "--force", "--format", "json"],
}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def inputs() -> list[Path]:
    return sorted(CORPUS.glob("*.ini"))


def run(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_all() -> dict:
    """``{command: {file name: (code, stdout, stderr)}}`` over the corpus, one file per run."""
    return {command: {path.name: run([*argv, str(path)]) for path in inputs()}
            for command, argv in COMMANDS.items()}


def _leaves(obj, path: str, fields: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _leaves(value, f"{path}.{key}" if path else key, fields)
    elif path == "points":  # one column per path
        entries = [{} for _ in obj]
        for entry, point in zip(entries, obj):
            _leaves(point, path, entry)
        for key in entries[0] if entries else ():
            fields[key] = [entry[key] for entry in entries]
    else:
        fields[path] = obj


def _fields(out: str) -> dict:
    if out.startswith("{"):
        fields = {}
        _leaves(json.loads(out), "", fields)
        return fields
    fields = {}
    for number, line in enumerate(out.splitlines(), 1):
        _split(line, f"line {number}", fields)
    return fields


def _split(line: str, key: str, fields: dict) -> None:
    """``line`` with each number replaced by ``#`` as ``key``, and its
    numbers, if any, as ``key numbers``."""
    fields[key] = _NUMBER.sub("#", line)
    if _NUMBER.search(line):
        fields[f"{key} numbers"] = [float(x) for x in _NUMBER.findall(line)]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _has_number(value) -> bool:
    return _is_number(value) or isinstance(value, list) and any(map(_has_number, value))


def dumps(reference: dict) -> str:
    """The reference as JSON text, one run per line."""
    lines = []
    for command, files in sorted(reference.items()):
        rows = [f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
                for name, entry in sorted(files.items())]
        lines.append(f"{json.dumps(command)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{" + ",\n".join(lines) + "}\n"


def record(code: int, out: str, err: str) -> dict:
    """The reference entry of one run."""
    fields = {}
    _split(err.splitlines()[0] if err else "", "stderr", fields)
    entry = {"exit": code, "stderr": fields.pop("stderr"), "verdicts": {}, "floats": fields}
    for path, value in _fields(out).items():
        entry["floats" if _has_number(value) else "verdicts"][path] = value
    return entry


def record_all(runs: dict) -> dict:
    return {command: {name: record(*result) for name, result in files.items()}
            for command, files in runs.items()}


def _agree(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_agree, a, b))
    if _is_number(a) and _is_number(b):
        return math.isclose(a, b, rel_tol=1e-12) or (abs(a) < 1e-9 and abs(b) < 1e-9)
    return a == b


def differences(reference: dict, current: dict) -> list[tuple[str, str, str]]:
    """``(kind, where, what)`` for every field that moved: kind is ``exit
    code`` (the exit code or the error line), ``verdict`` (including a field
    that came or went) or ``float``."""
    moved = []
    for command in sorted(reference.keys() | current.keys()):
        old_files, new_files = reference.get(command, {}), current.get(command, {})
        for name in sorted(old_files.keys() | new_files.keys()):
            where = f"{command} {name}"
            old, new = old_files.get(name), new_files.get(name)
            if old is None or new is None:
                moved.append(("verdict", where, "only in the reference" if new is None else "new"))
                continue
            for key in ("exit", "stderr"):
                if old[key] != new[key]:
                    moved.append(("exit code", where, f"{key}: {old[key]!r} -> {new[key]!r}"))
            for kind, group in (("verdict", "verdicts"), ("float", "floats")):
                for path in sorted(old[group].keys() | new[group].keys()):
                    a, b = old[group].get(path), new[group].get(path)
                    if path not in old[group] or path not in new[group]:
                        moved.append(("verdict", f"{where} {path}",
                                      "new" if path not in old[group] else "gone"))
                    elif not _agree(a, b):
                        moved.append((kind, f"{where} {path}", f"{a!r} -> {b!r}"))
    return moved


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def summary(moved: list[tuple[str, str, str]]) -> str:
    """The moved fields grouped by kind, one line each."""
    if not moved:
        return "no field moved\n"
    lines = []
    for kind in ("exit code", "verdict", "float"):
        group = [f"  {where}: {what}" for k, where, what in moved if k == kind]
        if group:
            lines += [f"{kind} ({len(group)}):", *group]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true",
                        help="record the reference from this checkout's prodgeo")
    ns = parser.parse_args(argv)
    current = record_all(run_all())
    moved = differences(load_reference(), current) if REFERENCE.exists() else []
    sys.stdout.write(summary(moved))
    if ns.write:
        REFERENCE.write_text(dumps(current), encoding="utf-8")
        sys.stdout.write(f"wrote {REFERENCE}\n")
    return 0 if ns.write or not moved else 1


if __name__ == "__main__":
    sys.exit(main())
