"""Inputs shared by several test modules (imported as ``grids``)."""

import itertools
import random

from prodgeo.catalog import catalog_get
from prodgeo.subgeom import Immersion


def seed_one_grids():
    """(space, immersion) for the 8x8 grids of rect-torus and curved-block
    that the benchmark's grid-report workload writes for seed 1: per
    scenario, two seeded offsets in [-1, 1) from one random stream, then 8
    samples 0.8 apart along each parameter."""
    rng = random.Random(1)
    grids = []
    for label in ("rect-torus", "curved-block"):
        scn = catalog_get(label)
        axes = []
        for _ in range(2):
            start = rng.uniform(-1.0, 1.0)
            axes.append([start + 0.8 * i for i in range(8)])
        samples = tuple(itertools.product(*axes))
        immersion = Immersion(scn.immersion.n, scn.immersion.components, samples,
                              label=f"grid-{label}")
        grids.append((scn.space, immersion))
    return grids

