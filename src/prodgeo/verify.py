"""The verification pipeline behind every entry point.

:func:`verify` builds one jet geometry for all sample points of a document
and reads off it, for every point at once, the four-way classification, the
two lemma identities and the T2-T4 statements, which share one evaluation
of nabla omega and nabla C, and validates the ambient space at the images.
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
from dataclasses import dataclass
from typing import Sequence

from .ambient import AmbientSpace, AmbientValidationReport
from .calculus import LemmaReport, _lemma1_point, _lemma2_point, lemma_tensors
from .subgeom import (
    ClassificationResult,
    Immersion,
    _JetGeometry,
    _check_tolerance,
    aggregate_classification,
)
from .theorems import TheoremVerdict, _PointData, _t2_point, _t3_point, _t4_point, _verdict

__all__ = ["THEOREMS", "Tolerances", "VerificationOutcome", "verify"]

THEOREMS = ("t2", "t3", "t4")


@dataclass(frozen=True)
class Tolerances:
    """Identity residual and classification thresholds; positive and finite."""

    identity_tol: float = 1e-8
    classify_tol: float = 1e-8

    def __post_init__(self):
        for name in ("identity_tol", "classify_tol"):
            object.__setattr__(self, name, _check_tolerance(name, getattr(self, name)))


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
    classification = aggregate_classification(geo, tolerances.classify_tol)
    reports = verdicts = None
    if lemmas or theorems:
        nabla_omega, nabla_c_xi = lemma_tensors(geo)
    if lemmas:
        reports = {"lemma1": _lemma_report(_lemma1_point(geo, nabla_omega), tol),
                   "lemma2": _lemma_report(_lemma2_point(geo, nabla_c_xi), tol)}
    if theorems:
        data = _PointData(geo, tol, nabla_omega, nabla_c_xi)
        ranks = data.flags["rank_phi"].tolist()
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
