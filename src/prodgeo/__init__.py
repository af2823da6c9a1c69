"""Verification engine for submanifolds of locally product Riemannian manifolds.

Given a parametric immersion into a chart with a metric and an almost
product structure, the package computes the per-point first and
second-order invariants (frames, second fundamental form, shape operators,
mean curvature, the tangential/normal split of the structure tensor),
classifies the submanifold as invariant, anti-invariant, semi-invariant or
generic, and numerically verifies the identity suites relating the
covariant derivatives of the structure projections to the second
fundamental form, including the characterization statements for
pseudo-umbilical submanifolds.  :func:`verify` is the one computation: it
runs all of it with one geometry build for all sample points, and its
outcome holds the classification, the lemma reports and the T2-T4 verdicts.
:func:`point_geometry` reads the frames and invariants at one point.

All derivatives are exact (truncated Taylor jets).  The package ships the
pipeline only: the finite-difference oracle that cross-checks the jets and
the negative controls live in the test-suite.
"""

from .ambient import (
    AmbientSpace,
    AmbientValidationFailure,
    AmbientValidationReport,
    BlockVariableLeak,
    SingularMetric,
    product_of,
    validate_ambient,
)
from .calculus import LemmaReport
from .catalog import Scenario, UnknownScenario, catalog_get, catalog_list
from .expr import ExprAst, ParseError, UnknownVariable, evaluate, parse, pretty
from .jets import InsufficientJetOrder, Jet, seed_point
from .scenario import (
    DimensionMismatch,
    LoadedScenario,
    ScenarioError,
    export_scenario,
    load_scenario,
)
from .subgeom import (
    ClassificationResult,
    DegenerateImmersion,
    Immersion,
    PointGeometry,
    classify,
    point_geometry,
)
from .theorems import TheoremVerdict
from .verify import Tolerances, VerificationOutcome, verify

__version__ = "0.1.0"
