"""The verification pipeline behind every entry point.

:func:`verify` builds one jet geometry for all sample points of a document
and reads off it, for every point at once, the four-way classification, the
two lemma identities and the T2-T4 statements, which share one evaluation
of nabla omega and nabla C, and validates the ambient space at the images.
The class predicates are decided once, at ``classify_tol``, for the class
flags and the T2-T4 branches alike, so a point the report flags as not
pseudo-umbilical is a point whose proof residual is skipped.
The catalog runner and every CLI command are calls to it that keep their
part of the outcome; ``lemmas=False`` or ``theorems=False`` skips a part.
The outcome holds each per-point quantity once, as a column over the
points named as in a report's point entry, and the tolerances once, as
``outcome.tolerances``.  Its results are the report's verdicts:
``outcome.classification``, ``outcome.lemmas`` keyed ``"lemma1"`` and
``"lemma2"``, and ``outcome.theorems`` keyed ``"t2"`` to ``"t4"``, each a
dataclass whose fields are its verdicts under their report names, in report
order, and then its per-point column (``points`` or ``residuals``).  A
skipped part is ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .ambient import AmbientSpace, AmbientValidationReport
from .calculus import LemmaReport, _lemma1_point, _lemma2_point, lemma_tensors
from .subgeom import (
    DEFAULT_TOL,
    ClassificationResult,
    Immersion,
    _JetGeometry,
    _check_tolerance,
    _predicates,
    aggregate_classification,
)
from .theorems import TheoremVerdict, _PointData, _t2_point, _t3_point, _t4_point, _verdict

__all__ = ["THEOREMS", "Tolerances", "VerificationOutcome", "verify"]

THEOREMS = ("t2", "t3", "t4")


@dataclass(frozen=True)
class Tolerances:
    """Identity residual and classification thresholds; positive and finite.
    The fields are a scenario file's ``[tolerances]`` keys and a report's."""

    identity_tol: float = DEFAULT_TOL
    classify_tol: float = DEFAULT_TOL

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _check_tolerance(f.name, getattr(self, f.name)))


@dataclass
class VerificationOutcome:
    space: AmbientSpace
    immersion: Immersion
    samples: tuple[tuple[float, ...], ...]
    tolerances: Tolerances
    ambient_report: AmbientValidationReport
    classification: ClassificationResult
    lemmas: dict[str, LemmaReport] | None
    theorems: dict[str, TheoremVerdict] | None

    @property
    def consistent(self) -> bool:
        return (all(report.passed for report in (self.lemmas or {}).values())
                and all(v.biconditional_consistent for v in (self.theorems or {}).values()))


def _lemma_report(residuals, tol: float) -> LemmaReport:
    """Passes if every residual is at most ``tol``; the worst is the largest that is not NaN."""
    residuals = residuals.tolist()
    worst = max((r for r in residuals if not math.isnan(r)), default=math.nan)
    return LemmaReport(worst, all(r <= tol for r in residuals), residuals)


def verify(
    space: AmbientSpace,
    immersion: Immersion,
    samples: Sequence[Sequence[float]] | None = None,
    tolerances: Tolerances = Tolerances(),
    *,
    lemmas: bool = True,
    theorems: bool = True,
    strict: bool = False,
) -> VerificationOutcome:
    """Classification plus the requested identity suites, one geometry for all samples.

    ``samples`` defaults to the immersion's own.  With ``strict`` a failed
    ambient validation at their images raises
    :class:`~prodgeo.ambient.AmbientValidationFailure`, ahead of any error of
    the geometry build.  The geometry is the same with or without the
    identities, which take the derivatives of its projectors once.
    """
    if samples is None:
        samples = immersion.samples
    tol = tolerances.identity_tol
    geo = _JetGeometry(immersion, space, samples, strict=strict)
    flags = _predicates(geo, tolerances.classify_tol)  # the class flags and the T2-T4 branches
    classification = aggregate_classification(geo, tolerances.classify_tol, flags)
    reports = verdicts = None
    if lemmas or theorems:
        nabla_omega, nabla_c_xi = lemma_tensors(geo)
    if lemmas:
        reports = {"lemma1": _lemma_report(_lemma1_point(geo, nabla_omega), tol),
                   "lemma2": _lemma_report(_lemma2_point(geo, nabla_c_xi), tol)}
    if theorems:
        data = _PointData(geo, tolerances.classify_tol, flags, nabla_omega, nabla_c_xi)
        ranks = classification.points["rank_phi"]
        points = {"t2": _t2_point(data), "t3": _t3_point(data), "t4": _t4_point(data)}
        verdicts = {key: _verdict(points[key], ranks, tol) for key in THEOREMS}
    return VerificationOutcome(
        space=space,
        immersion=immersion,
        samples=tuple(geo.points),
        tolerances=tolerances,
        ambient_report=geo.ambient_report,
        classification=classification,
        lemmas=reports,
        theorems=verdicts,
    )
