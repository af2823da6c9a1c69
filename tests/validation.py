"""Ambient validation at chosen chart points (imported as ``validation``).

The geometry build validates a space at the images of its sample points;
the tests that check a space without an immersion evaluate it at the points
themselves, the way the build does along an immersion.
"""

import numpy as np

from prodgeo import ambient


def validate_at(space, samples):
    """The :class:`~prodgeo.ambient.AmbientValidationReport` at the chart points ``samples``.

    Through ``ambient._evaluate_at``, which no constant space caches, so
    every call evaluates the tables, factors the metric and computes the
    connection at these points (a test may count each)."""
    x = np.reshape(np.asarray(samples, dtype=float), (len(samples), space.dim))
    return ambient._evaluate_at(space, x)[-1]
