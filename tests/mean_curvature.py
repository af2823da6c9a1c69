"""The mean curvature field with its first derivatives (imported as ``mean_curvature``).

The library takes (nabla C) H as one more normal column of its operator
product and builds no H jet; the tests that differentiate H itself build
it here, independently of the geometry's frames.  The immersion is seeded
at order 3, so that its second derivatives carry order 1; h_ab is the
normal part of d_b T_a + Gamma(T_a, T_b), the tangent part of a vector v
being T_a G^ab g(T_b, v), and H = (1/n) G^ab h_ab.  The inverses are written out
at order 1: M^-1 = M0^-1 - M0^-1 dM M0^-1.
"""

import numpy as np

from prodgeo import jets
from prodgeo.ambient import levi_civita
from prodgeo.subgeom import param_vars


def inverse(m):
    """The inverse of an order-1 jet matrix, ``(..., k, k)``."""
    assert m.order == 1
    m0inv = np.linalg.inv(m.coeffs[..., 0])
    dm = np.moveaxis(m.coeffs[..., 1:], -1, -3)  # one matrix per seed direction
    dinv = -m0inv[..., None, :, :] @ dm @ m0inv[..., None, :, :]
    return jets.Jet(m.alg, np.concatenate([m0inv[..., None], np.moveaxis(dinv, -3, -1)], axis=-1))


def mean_curvature_field(immersion, space, u):
    """H at the points ``u``, shape ``(P, n)``, as an order-1 jet of shape ``(P, N)``."""
    n = immersion.n
    f = immersion._plan(dict(zip(param_vars(n), jets.seed_point(u, 3))))[0]
    T = jets.array([jets.partial(f, a) for a in range(n)]).swapaxes(-1, -2)  # (P, n, N)
    dT = jets.array([jets.partial(T, b) for b in range(n)]).swapaxes(-1, -2)  # [a, b]: d_b T_a
    T = T.truncate(1)
    g, dg = space.tables(("metric", "metric_diff"), f.truncate(1))
    if not space.flat:
        gamma = levi_civita(inverse(g), dg)
        gamma_t = jets.einsum("...ijk,...bk->...bij", gamma, T)
        dT = dT + jets.einsum("...aj,...bij->...abi", T, gamma_t)
    lowered = jets.einsum("...ij,...aj->...ai", g, T)  # g(T_a, .)
    Ginv = inverse(jets.einsum("...ai,...bi->...ab", T, lowered))
    along = jets.einsum("...abi,...ci->...abc", dT, lowered)
    tangent = jets.einsum("...abd,...di->...abi", jets.einsum("...abc,...cd->...abd", along, Ginv), T)
    return jets.einsum("...ab,...abi->...i", Ginv, dT - tangent) * (1.0 / n)
