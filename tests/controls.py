"""Negative controls (imported as ``controls``): spaces that are not locally
product, and valid ones whose structure is not +-I.
"""

import math

from prodgeo.ambient import AmbientSpace
from prodgeo.scenario import loads_scenario
from prodgeo.subgeom import Immersion

from corpus import CORPUS

# flat R^2 x R^2 pulled back along the block-mixing chart
# x_old = (x1, x2 + x3^2, x3, x4 + sin x1): F varies and is parallel, so the
# commutator [Gamma_a, F] of the connection with F enters both lemmas
BLOCK_MIXING_CHART = (CORPUS / "block-mixing-chart.ini").read_text(encoding="utf-8")
# the same surface composed with x_old, in the standard chart of R^2 x R^2
BLOCK_MIXING_STANDARD = (CORPUS / "block-mixing-standard.ini").read_text(encoding="utf-8")


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


def block_mixing_case() -> tuple[AmbientSpace, Immersion]:
    """The surface of :data:`BLOCK_MIXING_CHART` in its chart, with its samples."""
    loaded = loads_scenario(BLOCK_MIXING_CHART)
    imm = loaded.immersion
    return loaded.space, Immersion(imm.n, imm.components, loaded.samples, label=loaded.label)
