"""Workload definitions: the documents each workload runs and how each is checked.

A document is one ``prodgeo`` CLI invocation, made in-process through
``cli.main(argv)``, on a scenario file written during set-up.  Every
document's exit code and standard output are checked; repeats of a document
must reproduce its first output byte for byte.

Why each workload is in the benchmark (measured on a 2-core x86-64 VM,
Python 3.11, numpy 2.4):

* ``grid-report`` -- ``report --format json`` on 8x8 grids of ``rect-torus``
  (flat, n=2, N=4) and ``curved-block`` (curved block metric, N=3).  64
  points per document, so batching Taylor arithmetic across points shows its
  full effect.  Measured split of document time: geometry build ~45%, lemmas
  ~30%, theorems ~18% (mostly T3), load ~7%, render <1%.
* ``catalog-check`` -- ``check --all --format json`` on the ten catalog
  scenarios, exported with their 3 points each (n=1..2, N=2..4).  Batching
  has almost nothing to batch here and per-document costs weigh more: load
  and ambient validation are ~7%, and each document starts a fresh pipeline.
  It also varies the jet seed count: 3 seeds for curves in RxR against 6 for
  surfaces in R^2xR^2.
* ``fuzz-classify`` -- ``classify`` on seeded ``random_trig_immersion``
  surfaces with 16 points each.  Long six-term trig sums and no lemma or
  theorem work: the geometry build is ~88% of the document and load plus
  ambient validation most of the rest, so a lemma or theorem optimisation is
  predicted to show no change here.

Host drift, the reason every timed unit is drift-corrected (see drift.py):
on that VM the reference kernel alternated between two speed levels about
1.6x apart, switching within a second.  Over ten seeded 20-second runs per
workload, the interquartile range of ms/point over its median was 28% raw
and 2.6% corrected on grid-report, 25% and 3.7% on catalog-check, 21% and
4.5% on fuzz-classify.  Every seed gives the same per-point jet operation
counts, so the corrected spread is measurement noise, not input variation.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from prodgeo import catalog, cli, scenario, subgeom

GRID_SIDE = 8
FUZZ_DOCS = 6
FUZZ_POINTS = 16
THEOREMS = ("t2", "t3", "t4")


@dataclass
class Doc:
    name: str
    argv: list[str]
    points: int
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None
    digest: str | None = None  # sha256 of the first checked output


@dataclass
class Workload:
    """One pass runs every document once; each document is one timed unit."""

    name: str
    docs: list[Doc]
    failures: list[str] = field(default_factory=list)


def run_doc(doc: Doc) -> tuple[int | None, str]:
    """One CLI invocation: (exit code, stdout), or (None, error) if it raised."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(doc.argv)
    except Exception as err:  # a crashing document is a failed document
        return None, f"{type(err).__name__}: {err}"
    return code, buf.getvalue()


def verify(doc: Doc, code: int | None, out: str) -> str | None:
    """Check one output: in full the first time, by digest on repeats."""
    if code is None:
        return out
    digest = hashlib.sha256(out.encode()).hexdigest()
    if doc.digest is not None:
        if digest != doc.digest:
            return "output differs from its first run"
        return None
    error = doc.check(code, out)
    if error is None:
        doc.digest = digest
    return error


# ---- checks ------------------------------------------------------------------


def _json_check(expected: catalog.Expected, points: int):
    """Compare a JSON report's verdicts with a scenario's derived expectations."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(out)
        verdicts = doc["verdicts"]
        wanted = {
            "classification": expected.classification,
            "minimal": expected.minimal,
            "pseudo_umbilical": expected.pseudo_umbilical,
            "consistent": True,
        }
        if expected.dim_d is not None:
            wanted["dim_d"] = expected.dim_d
            wanted["dim_d_perp"] = expected.dim_d_perp
        for key, value in wanted.items():
            if verdicts[key] != value:
                return f"verdict {key} = {verdicts[key]!r}, expected {value!r}"
        for lemma in ("lemma1", "lemma2"):
            if not verdicts[lemma]["passed"]:
                return f"{lemma} failed"
        for key in THEOREMS:
            got = verdicts[key]
            if got["identity_holds_everywhere"] != expected.identity_everywhere[key]:
                return f"{key} identity verdict {got['identity_holds_everywhere']!r}"
            if not got["biconditional_consistent"]:
                return f"{key} biconditional inconsistent"
        if len(doc["points"]) != points:
            return f"{len(doc['points'])} points reported, expected {points}"
        if expected.mean_curvature_sq is not None:
            for entry in doc["points"]:
                hsq = entry["norms"]["mean_curvature_sq"]
                if abs(hsq - expected.mean_curvature_sq) > 1e-9:
                    return f"|H|^2 = {hsq!r} at u = {entry['u']}"
        if expected.rank_phi_per_point is not None:
            ranks = tuple(entry["rank_phi"] for entry in doc["points"])
            if ranks != expected.rank_phi_per_point:
                return f"rank phi per point {ranks}"
        return None

    return check


def _classification_check(expected: str):
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        for line in out.splitlines():
            if line.startswith("classification:"):
                got = line.split(":", 1)[1].split("  (", 1)[0].strip()
                if got != expected:
                    return f"classification {got!r}, library says {expected!r}"
                return None
        return "no classification line"

    return check


# ---- set-up -----------------------------------------------------------------


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name + ".ini")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _grid_docs(seed: int, workdir: str) -> list[Doc]:
    rng = random.Random(seed)
    docs = []
    for label in ("rect-torus", "curved-block"):
        scn = catalog.catalog_get(label)
        # an 8x8 grid over a 5.6 x 5.6 box at a seeded offset; the derived
        # expectations of both scenarios hold at every point (neither sets
        # per-point ranks)
        axes = []
        for _ in range(2):
            start = rng.uniform(-1.0, 1.0)
            axes.append([start + 0.8 * i for i in range(GRID_SIDE)])
        samples = list(itertools.product(*axes))
        text = scenario.scenario_text(scn.space, scn.immersion, samples, label=label)
        path = _write(workdir, f"grid-{label}", text)
        docs.append(Doc(f"grid-{label}", ["report", "--format", "json", path],
                        len(samples), _json_check(scn.expected, len(samples))))
    return docs


def _catalog_docs(seed: int, workdir: str) -> list[Doc]:
    labels = list(catalog.catalog_list())
    random.Random(seed).shuffle(labels)  # the seed picks the order within a pass
    docs = []
    for label in labels:
        scn = catalog.catalog_get(label)
        path = _write(workdir, label, scenario.scenario_text(
            scn.space, scn.immersion, scn.samples, label=label))
        docs.append(Doc(label, ["check", "--all", "--format", "json", path],
                        len(scn.samples), _json_check(scn.expected, len(scn.samples))))
    return docs


def _fuzz_docs(seed: int, workdir: str) -> list[Doc]:
    rng = random.Random(seed)
    space = catalog.flat_product(2, 2)
    docs = []
    for _ in range(FUZZ_DOCS):
        imm = catalog.random_trig_immersion(rng.randrange(1 << 20), FUZZ_POINTS)
        # expected verdict from the library's own order-2 path, not the CLI's
        expected = subgeom.classify(imm, space).classification
        path = _write(workdir, imm.label, scenario.scenario_text(space, imm, imm.samples))
        docs.append(Doc(imm.label, ["classify", path], len(imm.samples),
                        _classification_check(expected)))
    return docs


_BUILDERS = {
    "grid-report": _grid_docs,
    "catalog-check": _catalog_docs,
    "fuzz-classify": _fuzz_docs,
}


def setup(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs and run one checked warm pass over every document."""
    os.makedirs(workdir, exist_ok=True)
    workload = Workload(name, _BUILDERS[name](seed, workdir))
    for doc in workload.docs:
        code, out = run_doc(doc)
        error = verify(doc, code, out)
        if error is not None:
            workload.failures.append(f"{doc.name}: {error}")
    return workload
