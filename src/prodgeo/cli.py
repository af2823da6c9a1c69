"""Command-line driver: parses arguments, loads a scenario, calls
:func:`prodgeo.verify.verify` and renders the outcome.

Commands::

    prodgeo classify [--force] [--seed S] <file>...    four-way verdict
    prodgeo check [--lemmas|--theorems|--all] [--tol T] [--force]
                  [--seed S] [--format text|json] <file>...
    prodgeo report [--tol T] [--force] [--seed S] [--format text|json] <file>...
                                                       same as check --all
    prodgeo catalog [list | run <label> [--format text|json]
                     | export <label> <path>]

Exit codes: 0 success, 1 usage error (including a non-positive or
non-finite ``--tol``), 2 parse/validation error, 3 verification failure (a
lemma residual above tolerance or an inconsistent biconditional; a skipped
proof-residual section is not a failure).  A space that is not locally
product at the samples is a validation error, unless ``--force`` is given.

``classify``, ``check`` and ``report`` take one file or several, and run
them in order in one process.  Each file's report is the bytes a run of it
alone prints; with several files an error line names its file after the
kind of error (``error: b.ini: ...``), and a file that fails does not stop
the rest.  The exit code is then 2 if any file was invalid, else 3 if any
failed verification, else 0.

Reports are byte-identical for identical inputs and seeds.  JSON reports
are indented by two spaces per level and write floats with ``%.17g``.  The
outcome's per-point columns carry the names of a report's point entry, so
:func:`_point_fields` puts them in one tree without renaming any; the
other fields of its results are the report's verdicts, which
:func:`_document` copies as they are named.  :func:`render_json` writes the
``points`` array through one ``%`` template per document, one fill per
point; :func:`dump_json` writes the rest.  Text reports take each point's
``u`` from the outcome's samples.  The argument parser is built once per process, and so is the space of
each distinct ``[ambient]`` text (see :mod:`prodgeo.scenario`),
so files of a run that share that text share one space, and a constant one's
validation; a run of one file gains nothing.  A closed stdout ends the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np

from .catalog import UnknownScenario, catalog_get, catalog_list
from .ambient import AmbientValidationFailure
from .scenario import _number, export_scenario, load_scenario
from .verify import Tolerances, VerificationOutcome, verify

EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_FAILED = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---- structured report -----------------------------------------------------


def _point_fields(outcome: VerificationOutcome) -> dict:
    """The column tree of a point entry: the classification's columns, then
    ``"residuals"``, each lemma's column and each statement's columns."""
    residuals = {key: report.residuals for key, report in (outcome.lemmas or {}).items()}
    residuals.update((key, verdict.points) for key, verdict in (outcome.theorems or {}).items())
    return {**outcome.classification.points, "residuals": residuals}


def _verdicts(result) -> dict:
    """A result's verdicts: every field but its per-point column."""
    return {key: value for key, value in vars(result).items() if key not in ("points", "residuals")}


def _document(outcome: VerificationOutcome) -> dict:
    """The report, with ``points`` as the column tree of :func:`_point_fields`
    and ``verdicts`` as the outcome's results under their own names."""
    rep = outcome.ambient_report
    doc = {
        "scenario": {
            "label": outcome.immersion.label,
            "parametric_dim": outcome.immersion.n,
            "ambient_dim": outcome.space.dim,
            "num_samples": len(outcome.samples),
        },
        "tolerances": {
            "identity_tol": outcome.tolerances.identity_tol,
            "classify_tol": outcome.tolerances.classify_tol,
        },
        "ambient_validation": {
            "max_f_squared_residual": rep.max_f_squared_residual,
            "max_compat_residual": rep.max_compat_residual,
            "max_parallel_residual": rep.max_parallel_residual,
            "positive_definite": rep.positive_definite,
            "f_is_identity": rep.f_is_identity,
            "passed": rep.passed,
        },
        "points": _point_fields(outcome),
    }
    verdicts = _verdicts(outcome.classification)
    for results in (outcome.lemmas, outcome.theorems):
        verdicts.update((key, _verdicts(result)) for key, result in (results or {}).items())
    doc["verdicts"] = {**verdicts, "consistent": outcome.consistent}
    return doc


def _json_leaf(obj) -> str:
    """JSON text of anything but a non-empty object or array."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError("report numbers must be finite")
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (dict, list, tuple)) and not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(doc, pad: str = "\n") -> str:
    """``doc`` (dicts, lists, tuples, strings, numbers, booleans, None) as
    JSON text indented by two spaces per level; ``pad`` is the line break
    and indentation of ``doc`` itself.  Floats are written with ``%.17g``,
    so they read back exactly; NaN and infinities raise ``ValueError``."""
    inner = pad + "  "
    if isinstance(doc, dict) and doc:
        rows = [f'{inner}"{key}": {dump_json(value, inner)}' for key, value in doc.items()]
        return "{" + ",".join(rows) + pad + "}"
    if isinstance(doc, (list, tuple)) and doc:
        return "[" + ",".join([inner + dump_json(member, inner) for member in doc]) + pad + "]"
    return _json_leaf(doc)


_CONSTANTS = {True: "true", False: "false", None: "null"}


def _slots(fields, pad: str, columns: list) -> str:
    """JSON text of a point entry of the column tree ``fields``, with a
    ``%`` slot per value; the columns that fill the slots, in slot order,
    go to ``columns``.  A column of floats fills ``%.17g`` slots, of ints
    ``%d`` slots, of tuples an array of slots; any other column is written
    as its JSON text."""
    inner = pad + "  "
    if isinstance(fields, dict):
        rows = [f'{inner}"{key}": {_slots(column, inner, columns)}' for key, column in fields.items()]
        return "{" + ",".join(rows) + pad + "}" if rows else "{}"
    kinds = set(map(type, fields))
    if kinds == {tuple}:
        return "[" + ",".join([inner + _slots(c, inner, columns) for c in zip(*fields)]) + pad + "]"
    if kinds == {float} and not all(map(math.isfinite, fields)):
        raise ValueError("report numbers must be finite")
    if kinds == {float} or kinds == {int}:
        columns.append(fields)
        return "%.17g" if kinds == {float} else "%d"
    leaf = _CONSTANTS.__getitem__ if kinds <= {bool, type(None)} else _json_leaf
    columns.append(list(map(leaf, fields)))
    return "%s"


def render_json(outcome: VerificationOutcome) -> str:
    """The report as :func:`dump_json` writes it with one dict per point;
    the points are one template per document, filled from the columns once
    per point."""
    pad, inner = "\n  ", "\n    "
    rows = []
    for key, value in _document(outcome).items():
        if key == "points":
            columns = []
            template = _slots(value, inner, columns)
            value = "[" + ",".join([inner + template % row for row in zip(*columns)]) + pad + "]"
        else:
            value = dump_json(value, pad)
        rows.append(f'{pad}"{key}": {value}')
    return "{" + ",".join(rows) + "\n}\n"


# ---- text rendering --------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return "skipped"
    return f"{x:.6g}"


def _fmt_point(u) -> str:
    return "(" + ", ".join(f"{v:.6g}" for v in u) + ")"


def render_text(outcome: VerificationOutcome) -> str:
    lines = []
    rep = outcome.ambient_report
    lines.append(
        f"scenario {outcome.immersion.label or '(unlabeled)'}: "
        f"n={outcome.immersion.n} -> N={outcome.space.dim}, "
        f"{len(outcome.samples)} sample(s)"
    )
    lines.append(
        f"ambient validation: {'PASS' if rep.passed else 'FAIL'} "
        f"(F^2-I {_fmt(rep.max_f_squared_residual)}, "
        f"compat {_fmt(rep.max_compat_residual)}, "
        f"parallel {_fmt(rep.max_parallel_residual)})"
        + ("  [F is +-identity]" if rep.f_is_identity else "")
    )
    cls = outcome.classification
    lines.append(f"classification: {cls.classification}"
                 + (f"  (dim D = {cls.dim_d}, dim D_perp = {cls.dim_d_perp})"
                    if cls.dim_d is not None else ""))
    if cls.insufficient_samples:
        lines.append("note: fewer than 2 sample points; verdict is weakly supported")
    lines.append(f"{'u':<24}{'|phi|':>12}{'|omega|':>12}{'|omega.phi|':>14}"
                 f"{'rank':>6}{'minimal':>9}{'pseudo-umb':>12}")
    norms, flags = cls.points["norms"], cls.points["flags"]
    rows = zip(outcome.samples, norms["phi"], norms["omega"], norms["omega_phi"],
               cls.points["rank_phi"], flags["minimal"], flags["pseudo_umbilical"])
    for u, phi, omega, omega_phi, rank, minimal, pu in rows:
        lines.append(
            f"{_fmt_point(u):<24}{phi:>12.6g}{omega:>12.6g}{omega_phi:>14.6g}{rank:>6d}"
            f"{'yes' if minimal else 'no':>9}{'yes' if pu else 'no':>12}"
        )
    for key, report in (outcome.lemmas or {}).items():
        lines.append(
            f"{key}: max residual {_fmt(report.max_residual)} "
            f"-> {'PASS' if report.passed else 'FAIL'} "
            f"(tol {outcome.tolerances.identity_tol:.1e})"
        )
    for key, verdict in (outcome.theorems or {}).items():
        lines.append(
            f"{key.upper()}: identity everywhere: "
            f"{'yes' if verdict.identity_holds_everywhere else 'no'}; "
            f"branch disjunction (global): "
            f"{'yes' if verdict.disjunction_global else 'no'}; "
            f"pointwise: {'yes' if verdict.disjunction_pointwise else 'no'}; "
            f"biconditional {'CONSISTENT' if verdict.biconditional_consistent else 'INCONSISTENT'}"
        )
        if verdict.proof_points_skipped:
            lines.append(
                f"  proof residuals skipped at {verdict.proof_points_skipped} "
                f"non-pseudo-umbilical point(s)"
            )
        lines.append(f"  {'u':<22}{'identity':>12}{'obstruction':>13}"
                     f"{'proof':>12}  branches")
        columns = verdict.points
        branches = columns["branches"]
        rows = zip(outcome.samples, columns["identity"], columns["obstruction"],
                   columns["proof"], *branches.values())
        for u, identity, obstruction, proof, *values in rows:
            flags = " ".join(f"{name}={'y' if v else 'n'}" for name, v in zip(branches, values))
            lines.append(f"  {_fmt_point(u):<22}{identity:>12.6g}{obstruction:>13.6g}"
                         f"{_fmt(proof):>12}  {flags}")
    lines.append(f"overall: {'CONSISTENT' if outcome.consistent else 'FAILED'}")
    return "\n".join(lines) + "\n"


# ---- commands ---------------------------------------------------------------


def _emit(outcome: VerificationOutcome, fmt: str) -> int:
    sys.stdout.write(render_json(outcome) if fmt == "json" else render_text(outcome))
    return EXIT_OK if outcome.consistent else EXIT_FAILED


def _cmd_scenario(ns) -> int:
    """classify, check and report: each file in turn, as if alone; the exit
    code is the worst file's, invalid over failed over ok."""
    several = len(ns.scenarios) > 1
    codes = [_reported(partial(_scenario_file, ns, path), f"{path}: " if several else "")
             for path in ns.scenarios]
    return max(codes, key=(EXIT_OK, EXIT_FAILED, EXIT_INVALID).index)


def _scenario_file(ns, path: str) -> int:
    """Load, verify and render one file."""
    loaded = load_scenario(path, seed_override=ns.seed)
    tolerances = loaded.tolerances
    if ns.tol is not None:
        tolerances = replace(tolerances, identity_tol=ns.tol)
    outcome = verify(loaded.space, loaded.immersion, loaded.samples, tolerances,
                     lemmas=ns.lemmas, theorems=ns.theorems, strict=not ns.force)
    return _emit(outcome, ns.format)


def _cmd_catalog(ns) -> int:
    if ns.action == "list" or ns.action is None:
        for label in catalog_list():
            sys.stdout.write(label + "\n")
        return EXIT_OK
    if ns.action == "run":
        scn = catalog_get(ns.label)
        return _emit(verify(scn.space, scn.immersion, scn.samples), ns.format)
    export_scenario(ns.path, catalog_get(ns.label))
    sys.stdout.write(f"wrote {ns.path}\n")
    return EXIT_OK


def _tolerance(text: str) -> float:
    try:
        return Tolerances(identity_tol=_number(text)).identity_tol
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _seed(text: str) -> int:
    try:
        return _number(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


@lru_cache(maxsize=None)
def _parser() -> _ArgumentParser:
    """The argument parser, built on first use: parsing does not change it."""
    parser = _ArgumentParser(
        prog="prodgeo",
        description="Verify submanifold geometry in locally product Riemannian spaces",
    )
    sub = parser.add_subparsers(dest="command")

    def scenario_command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--force", action="store_true",
                       help="report a failed ambient validation and verify anyway")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the seed of a random sample section")
        p.add_argument("scenarios", nargs="+", metavar="file")
        return p

    scenario_command("classify", "four-way classification of a scenario").set_defaults(
        lemmas=False, theorems=False, tol=None, format="text"
    )
    p_check = scenario_command("check", "run the lemma/theorem verification suites")
    p_check.add_argument("--lemmas", action="store_true")
    p_check.add_argument("--theorems", action="store_true")
    p_check.add_argument("--all", action="store_true")
    p_report = scenario_command("report", "emit the full verification document")
    p_report.set_defaults(lemmas=True, theorems=True)
    for p in (p_check, p_report):
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="override the identity tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_catalog = sub.add_parser("catalog", help="list, run or export built-in scenarios")
    p_catalog.add_argument("action", nargs="?", choices=("list", "run", "export"))
    p_catalog.add_argument("label", nargs="?")
    p_catalog.add_argument("path", nargs="?")
    p_catalog.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _reported(run, where: str = "") -> int:
    """``run()``, or the exit code of its error, which goes to stderr;
    ``where`` names the file the error is in."""
    try:
        return run()
    except _UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return EXIT_USAGE
    except AmbientValidationFailure as err:
        sys.stderr.write(f"ambient validation: {where}{err}\n")
        return EXIT_INVALID
    except (UnknownScenario, OSError, ValueError) as err:
        if where and isinstance(err, BrokenPipeError):
            raise  # a closed stdout ends a run of several files; main reports it once
        sys.stderr.write(f"error: {where}{err}\n")
        return EXIT_INVALID


def _command(argv) -> int:
    ns = _parser().parse_args(argv)
    if ns.command is None:
        raise _UsageError("a command is required (classify/check/catalog/report)")
    if ns.command == "catalog":
        if ns.action in ("list", None) and ns.label:
            raise _UsageError("catalog list takes no scenario label")
        if ns.action == "run" and ns.path:
            raise _UsageError("catalog run takes no destination path")
        if ns.action in ("run", "export") and not ns.label:
            raise _UsageError(f"catalog {ns.action} needs a scenario label")
        if ns.action == "export" and not ns.path:
            raise _UsageError("catalog export needs a destination path")
        return _cmd_catalog(ns)
    if ns.command == "check" and (ns.all or not (ns.lemmas or ns.theorems)):
        ns.lemmas = ns.theorems = True
    return _cmd_scenario(ns)


def main(argv=None) -> int:
    return _reported(partial(_command, argv))


if __name__ == "__main__":
    sys.exit(main())
