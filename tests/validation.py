"""Ambient validation at chosen chart points (imported as ``validation``).

The geometry build validates a space at the images of its sample points;
the tests that check a space without an immersion evaluate its tables at
the points themselves, and the Christoffel symbols from them, the way the
build does along an immersion.
"""

import numpy as np

from prodgeo import ambient
from prodgeo.ambient import leading_minors, positive_definite


def validate_at(space, samples):
    """The :class:`~prodgeo.ambient.AmbientValidationReport` at the chart points ``samples``."""
    x = np.reshape(np.asarray(samples, dtype=float), (len(samples), space.dim))
    # overflow and NaN are what the report measures, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        g, f, dg, df = space.tables(("metric", "structure", "metric_diff", "structure_diff"), x)
        # one minors sweep, thresholded at 0 here and by the report at its
        # own tolerance; the connection on the identity where the metric is
        # not positive definite, through the module, so that a test may
        # count the connections computed
        minors = leading_minors(g)
        gamma = None
        if not space.flat:
            definite = positive_definite(minors, tol=0.0)[..., None, None]
            gamma = ambient.levi_civita(np.linalg.inv(np.where(definite, g, np.eye(space.dim))), dg)
    return ambient.validate_ambient(g, f, df, gamma, minors)
