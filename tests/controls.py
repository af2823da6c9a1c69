"""Negative controls (imported as ``controls``): spaces that are not locally
product, and a valid one whose structure is not +-I.
"""

import math

from prodgeo.ambient import AmbientSpace
from prodgeo.subgeom import Immersion


def rotation_structure_space() -> AmbientSpace:
    """Flat plane with F = rotation by 90 degrees: fails F^2 = I."""
    return AmbientSpace(2, [["1", "0"], ["0", "1"]], [["0", "-1"], ["1", "0"]])


def position_reflection_space() -> AmbientSpace:
    """Reflection with position-dependent angle: F^2 = I but nabla F != 0."""
    return AmbientSpace(
        2,
        [["1", "0"], ["0", "1"]],
        [["cos(x1)", "sin(x1)"], ["sin(x1)", "-cos(x1)"]],
    )


def constant_reflection_space(theta: float = 0.7) -> AmbientSpace:
    """Constant reflection: a valid locally product structure with F != +-I."""
    c, s = repr(math.cos(theta)), repr(math.sin(theta))
    return AmbientSpace(2, [["1", "0"], ["0", "1"]], [[c, s], [s, f"-{c}"]])


def corrupted_lemma_case() -> tuple[AmbientSpace, Immersion]:
    """Circle immersed where nabla F != 0: both lemma identities break by O(1)."""
    imm = Immersion(
        1, ("cos(u1)", "sin(u1)"),
        samples=((0.5,), (1.2,), (2.0,)),
        label="circle-in-corrupted-ambient",
    )
    return position_reflection_space(), imm
