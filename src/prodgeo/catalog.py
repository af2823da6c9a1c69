"""Built-in scenario library with independently derived expectations.

Every expected value carries a derivation sketch in the scenario notes, so
the regression suite checks the engine against closed forms that were not
produced by the engine itself.  The library also provides a seeded
generator of random trigonometric-polynomial immersions used for fuzzing
the identity suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .ambient import AmbientSpace, product_of
from .rng import SplitMix64
from .subgeom import DegenerateImmersion, Immersion, _JetGeometry

__all__ = [
    "UnknownScenario",
    "Expected",
    "SpotCheck",
    "Scenario",
    "catalog_list",
    "catalog_get",
    "flat_product",
    "random_trig_immersion",
]


class UnknownScenario(KeyError):
    def __init__(self, label: str):
        super().__init__(label)
        self.label = label

    def __str__(self):
        return f"unknown scenario {self.label!r}; see catalog_list()"


@dataclass(frozen=True)
class Expected:
    classification: str
    minimal: bool
    pseudo_umbilical: bool
    identity_everywhere: Mapping[str, bool]
    mean_curvature_sq: float | None = None
    dim_d: int | None = None
    dim_d_perp: int | None = None
    rank_phi_per_point: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SpotCheck:
    """One closed-form value at a named sample point."""

    quantity: str  # t2_identity | t2_obstruction | t3_obstruction | t4_obstruction | pu_gap
    point_index: int
    value: float
    tol: float
    note: str


@dataclass(frozen=True)
class Scenario:
    label: str
    space: AmbientSpace
    immersion: Immersion
    expected: Expected
    spots: tuple[SpotCheck, ...] = ()
    notes: str = ""

    @property
    def samples(self):
        return self.immersion.samples


def flat_product(p: int, q: int) -> AmbientSpace:
    return product_of("flat", p, "flat", q)


_PI = math.pi
_INV_SQRT2 = repr(1.0 / math.sqrt(2.0))
_COS30 = repr(math.cos(_PI / 6))
_SIN30 = repr(math.sin(_PI / 6))


def _plane_invariant() -> Scenario:
    imm = Immersion(
        2, ("u1", "u2", "0"),
        samples=((0.3, -0.4), (1.0, 2.0), (-1.2, 0.5)),
        label="plane-invariant",
    )
    return Scenario(
        label="plane-invariant",
        space=flat_product(2, 1),
        immersion=imm,
        expected=Expected(
            classification="invariant",
            minimal=True,
            pseudo_umbilical=True,
            identity_everywhere={"t2": True, "t3": True, "t4": True},
            mean_curvature_sq=0.0,
            dim_d=2,
            dim_d_perp=0,
        ),
        notes="Totally geodesic coordinate plane inside the positive block: "
        "h = 0, so H = 0 and every identity holds through the minimal branch; "
        "F fixes the tangent plane, so omega = 0.",
    )


def _diagonal_line() -> Scenario:
    imm = Immersion(
        1, ("u1", "u1"),
        samples=((-0.7,), (0.2,), (1.5,)),
        label="diagonal-line",
    )
    return Scenario(
        label="diagonal-line",
        space=flat_product(1, 1),
        immersion=imm,
        expected=Expected(
            classification="anti-invariant",
            minimal=True,
            pseudo_umbilical=True,
            identity_everywhere={"t2": True, "t3": True, "t4": True},
            mean_curvature_sq=0.0,
            dim_d=0,
            dim_d_perp=1,
        ),
        notes="Straight line, so minimal; F(1,1) = (1,-1) is orthogonal to the "
        "tangent, so phi = 0.",
    )


def _circle() -> Scenario:
    imm = Immersion(
        1, ("cos(u1)", "sin(u1)"),
        samples=((0.0,), (_PI / 8,), (_PI / 4,)),
        label="circle",
    )
    c4 = math.cos(_PI / 4)
    return Scenario(
        label="circle",
        space=flat_product(1, 1),
        immersion=imm,
        expected=Expected(
            classification="generic",
            minimal=False,
            pseudo_umbilical=True,
            identity_everywhere={"t2": False, "t3": False, "t4": False},
            mean_curvature_sq=1.0,
            rank_phi_per_point=(1, 1, 0),
        ),
        spots=(
            SpotCheck("t3_obstruction", 1, c4, 1e-6,
                      "|H|^2 |g(e, phi e)| = |cos 2u| = cos(pi/4) at u = pi/8"),
            SpotCheck("t4_obstruction", 1, c4 * c4 * math.sin(_PI / 4), 1e-6,
                      "|H|^2 |g(omega phi e, CH)| = cos^2(2u) sin(2u) at u = pi/8"),
            SpotCheck("t2_obstruction", 2, 1.0, 1e-6,
                      "|H|^2 |omega e| = |sin 2u| = 1 at u = pi/4"),
        ),
        notes="Unit circle: H = -nu with |H| = 1, and the frame satisfies "
        "phi e = -cos(2u) e, omega e = -sin(2u) nu; rank phi drops from 1 to 0 "
        "at u = pi/4, so the rank is not constant and the verdict is generic.",
    )


def _square_torus_aligned() -> Scenario:
    imm = Immersion(
        2, ("cos(u1)", "sin(u1)", "cos(u2)", "sin(u2)"),
        samples=((0.5, 1.1), (2.0, 0.3), (4.0, 5.0)),
        label="square-torus-aligned",
    )
    return Scenario(
        label="square-torus-aligned",
        space=flat_product(2, 2),
        immersion=imm,
        expected=Expected(
            classification="invariant",
            minimal=False,
            pseudo_umbilical=True,
            identity_everywhere={"t2": True, "t3": False, "t4": True},
            mean_curvature_sq=0.5,
            dim_d=2,
            dim_d_perp=0,
        ),
        notes="Product of two unit circles, one per factor: h(e_u,e_u) = "
        "(-cos u, -sin u, 0, 0), h(e_v,e_v) = (0, 0, -cos v, -sin v), so "
        "|H|^2 = 1/2 and A_H = (1/2) Id (pseudo-umbilical); each circle stays "
        "in its own block, so omega = 0.",
    )


def _square_torus_rotated() -> Scenario:
    imm = Immersion(
        2,
        (
            "cos(u1)",
            f"{_COS30}*sin(u1) - {_SIN30}*cos(u2)",
            f"{_SIN30}*sin(u1) + {_COS30}*cos(u2)",
            "sin(u2)",
        ),
        samples=((0.4, 0.9), (1.3, 0.2), (2.1, 1.7)),
        label="square-torus-rotated",
    )
    return Scenario(
        label="square-torus-rotated",
        space=flat_product(2, 2),
        immersion=imm,
        expected=Expected(
            classification="generic",
            minimal=False,
            pseudo_umbilical=True,
            identity_everywhere={"t2": False, "t3": False, "t4": False},
            mean_curvature_sq=0.5,
        ),
        notes="Square torus post-composed with the ambient rotation by pi/6 in "
        "the (x2,x3)-plane: an isometry, so h and |H|^2 = 1/2 and the "
        "pseudo-umbilical property survive, but the tangent planes are no "
        "longer F-aligned, so omega != 0 and the characterization identities "
        "pick up O(1) obstructions at generic samples.",
    )


def _rect_torus() -> Scenario:
    imm = Immersion(
        2, ("cos(u1)", "sin(u1)", "2*cos(u2)", "2*sin(u2)"),
        samples=((0.5, 1.1), (2.0, 0.3), (4.0, 5.0)),
        label="rect-torus",
    )
    return Scenario(
        label="rect-torus",
        space=flat_product(2, 2),
        immersion=imm,
        expected=Expected(
            classification="invariant",
            minimal=False,
            pseudo_umbilical=False,
            identity_everywhere={"t2": True, "t3": False, "t4": True},
            mean_curvature_sq=5.0 / 16.0,
            dim_d=2,
            dim_d_perp=0,
        ),
        spots=(
            SpotCheck("pu_gap", 0, 3.0 / 16.0, 1e-9,
                      "g(h(e_u,e_u),H) = 1/2 vs |H|^2 = 5/16; gap 3/16 = 0.1875"),
        ),
        notes="Radii 1 and 2: H = (-cos u/2, -sin u/2, -cos v/4, -sin v/4), "
        "|H|^2 = 5/16 while g(h(e_u,e_u),H) = 1/2, so not pseudo-umbilical; "
        "proof residuals are skipped at every point.",
    )


def _semi_invariant_plane() -> Scenario:
    imm = Immersion(
        2, ("u1", f"{_INV_SQRT2}*u2", f"{_INV_SQRT2}*u2", "0"),
        samples=((0.0, 0.0), (1.0, -0.5), (-2.0, 3.0)),
        label="semi-invariant-plane",
    )
    return Scenario(
        label="semi-invariant-plane",
        space=flat_product(2, 2),
        immersion=imm,
        expected=Expected(
            classification="proper semi-invariant",
            minimal=True,
            pseudo_umbilical=True,
            identity_everywhere={"t2": True, "t3": True, "t4": True},
            mean_curvature_sq=0.0,
            dim_d=1,
            dim_d_perp=1,
        ),
        notes="Flat plane spanned by e1 = (1,0,0,0) (F-invariant) and "
        "e2 = (0,1,1,0)/sqrt(2), whose image F e2 = (0,1,-1,0)/sqrt(2) is "
        "normal: omega phi = 0 with rank phi = 1 everywhere, and neither "
        "phi nor omega vanishes.",
    )


def _anti_invariant_curve() -> Scenario:
    imm = Immersion(
        1, ("cos(u1)", "sin(u1)", "cos(u1)", "sin(u1)"),
        samples=((0.3,), (1.0,), (2.2,)),
        label="anti-invariant-curve",
    )
    return Scenario(
        label="anti-invariant-curve",
        space=flat_product(2, 2),
        immersion=imm,
        expected=Expected(
            classification="anti-invariant",
            minimal=False,
            pseudo_umbilical=True,
            identity_everywhere={"t2": False, "t3": True, "t4": True},
            mean_curvature_sq=0.5,
            dim_d=0,
            dim_d_perp=1,
        ),
        notes="Diagonal circle: F flips the second copy, so F(tangent) is "
        "orthogonal to the tangent (phi = 0); H = -(cos t, sin t, cos t, "
        "sin t)/2 gives |H|^2 = 1/2, and any curve is pseudo-umbilical.",
    )


def _sphere() -> Scenario:
    imm = Immersion(
        2, ("sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)"),
        samples=((_PI / 4, 0.0), (0.7, 0.3), (1.1, 2.0)),
        label="sphere",
    )
    return Scenario(
        label="sphere",
        space=flat_product(2, 1),
        immersion=imm,
        expected=Expected(
            classification="generic",
            minimal=False,
            pseudo_umbilical=True,
            identity_everywhere={"t2": False, "t3": False, "t4": False},
            mean_curvature_sq=1.0,
        ),
        spots=(
            SpotCheck("t2_identity", 0, 1.0, 1e-6,
                      "at (sqrt2/2, 0, sqrt2/2) the colatitude frame vector maps "
                      "to the normal: |H|^2 |omega e_1| = |sin(2 u1)| = 1"),
        ),
        notes="Unit sphere in colatitude/longitude coordinates, totally "
        "umbilical with H = -nu, so pseudo-umbilical with |H|^2 = 1; "
        "omega e_1 = sin(2 u1) nu and phi = diag(cos 2u1, 1), so the "
        "obstructions are nonzero at generic points.",
    )


def _curved_block() -> Scenario:
    space = product_of([["1", "0"], ["0", "sin(x1)^2"]], 2, "flat", 1)
    imm = Immersion(
        2, (repr(_PI / 4), "u1", "u2"),
        samples=((0.2, 0.5), (1.0, -0.3), (-0.6, 1.2)),
        label="curved-block",
    )
    return Scenario(
        label="curved-block",
        space=space,
        immersion=imm,
        expected=Expected(
            classification="invariant",
            minimal=False,
            pseudo_umbilical=False,
            identity_everywhere={"t2": True, "t3": False, "t4": True},
            mean_curvature_sq=0.25,
            dim_d=2,
            dim_d_perp=0,
        ),
        notes="Latitude cylinder x1 = pi/4 inside (sphere block) x (line): "
        "the only curvature comes from the ambient Christoffel "
        "Gamma^1_22 = -sin x1 cos x1, giving h(e_u,e_u) = -cot(pi/4) xi and "
        "|H|^2 = cot^2(pi/4)/4 = 1/4; A_H has eigenvalues (1/2, 0) against "
        "|H|^2 = 1/4, so not pseudo-umbilical.  Exercises nonzero ambient "
        "Christoffels in every downstream formula.",
    )


_BUILDERS = {
    "plane-invariant": _plane_invariant,
    "diagonal-line": _diagonal_line,
    "circle": _circle,
    "square-torus-aligned": _square_torus_aligned,
    "square-torus-rotated": _square_torus_rotated,
    "rect-torus": _rect_torus,
    "semi-invariant-plane": _semi_invariant_plane,
    "anti-invariant-curve": _anti_invariant_curve,
    "sphere": _sphere,
    "curved-block": _curved_block,
}

_CACHE: dict[str, Scenario] = {}


def catalog_list() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def catalog_get(label: str) -> Scenario:
    try:
        builder = _BUILDERS[label]
    except KeyError:
        raise UnknownScenario(label) from None
    if label not in _CACHE:
        _CACHE[label] = builder()
    return _CACHE[label]


# ---- random immersions for fuzzing ----------------------------------------

_TRIG_BASIS = ("sin(u1)", "cos(u1)", "sin(u2)", "cos(u2)", "sin(u1)*cos(u2)")


def random_trig_immersion(seed: int, num_samples: int = 2) -> Immersion:
    """Seeded random trigonometric-polynomial immersion into flat R^2 x R^2.

    Deterministic in the seed; retries (still deterministically) until the
    Jacobian has full rank at every drawn sample point.
    """
    space = flat_product(2, 2)
    for attempt in range(64):
        rng = SplitMix64((seed << 8) + attempt)
        components = []
        for _ in range(4):
            terms = [repr(rng.uniform(-1.0, 1.0))]
            terms += [
                f"{rng.uniform(-1.0, 1.0)!r}*{basis}" for basis in _TRIG_BASIS
            ]
            components.append(" + ".join(terms))
        samples = tuple(
            (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            for _ in range(num_samples)
        )
        imm = Immersion(2, tuple(components), samples=samples, label=f"fuzz-{seed}")
        try:
            if samples:  # one batched build checks every sample point
                _JetGeometry(imm, space, samples)
        except DegenerateImmersion:
            continue
        return imm
    raise RuntimeError(f"no valid random immersion found for seed {seed}")
