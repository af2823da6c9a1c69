"""Ambient validation at chosen chart points (imported as ``validation``).

The geometry build validates a space at the images of its sample points;
the tests that check a space without an immersion evaluate its tables at
the points themselves, the way the build does along an immersion.
"""

import numpy as np

from prodgeo.ambient import validate_ambient


def validate_at(space, samples):
    """The :class:`~prodgeo.ambient.AmbientValidationReport` at the chart points ``samples``."""
    x = np.reshape(np.asarray(samples, dtype=float), (len(samples), space.dim))
    # overflow and NaN are what the report measures, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        g, f, dg = space.tables(("metric", "structure", "metric_diff"), x)
    return validate_ambient(space, x, g, f, dg)
