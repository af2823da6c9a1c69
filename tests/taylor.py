"""Jet operations the test references need (imported as ``taylor``).

The library's jets carry only what its geometry build reads: products,
powers, elementary functions, value, gradient and Hessian.  The references
differentiate, index, stack and contract jet fields as well, and evaluate
expression tables entry by entry, not through the plans they check; each
operation here acts on a :class:`prodgeo.jets.Jet`'s algebra ``alg`` and its
coefficient array ``coeffs``, whose last axis holds the Taylor coefficients
(the entry for the multi-index ``alpha`` is ``(d^alpha f) / alpha!``).
"""

import math

import numpy as np

from prodgeo import expr as ex
from prodgeo.ambient import ambient_vars
from prodgeo.jets import InsufficientJetOrder, Jet, _algebra, _constant


def partial(j, var):
    """The partial derivative along one seed direction; drops one order."""
    if j.order < 1:
        raise InsufficientJetOrder("cannot differentiate an order-0 jet")
    if not 0 <= var < j.nvars:
        raise ValueError(f"direction {var} invalid for {j.nvars} seed directions")
    low = _algebra(j.nvars, j.order - 1)
    lifted = np.array(low.exps) + np.eye(j.nvars, dtype=int)[var]
    src = np.array([j.alg.index[tuple(e)] for e in lifted])
    return Jet(low, j.coeffs.take(src, axis=-1) * lifted[:, var].astype(float))


def _align(a, b):
    """Two jets over the same seed directions in one algebra: the one of
    higher order truncated to the lower."""
    if a.alg is b.alg:
        return a, b
    if a.nvars != b.nvars:
        raise ValueError("jets carry different seed sets")
    m = min(a.order, b.order)
    return a.truncate(m), b.truncate(m)


def einsum(spec, a, b):
    """``np.einsum(spec, a, b)`` over the leading axes of jets and float arrays.

    ``spec`` names the leading axes only and gives the output explicitly.
    Two jets contract through the multiplication table of their algebra; a
    jet against a float array is ``np.einsum`` on the coefficient array, the
    coefficient axis riding along as one more output axis.
    """
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    if isinstance(a, Jet) and isinstance(b, Jet):
        a, b = _align(a, b)
        ia, ib, scatter = a.alg.mul_table()
        pairs = np.einsum(f"{sa}Z,{sb}Z->{out}Z", a.coeffs.take(ia, axis=-1), b.coeffs.take(ib, axis=-1))
        return Jet(a.alg, pairs @ scatter)
    if isinstance(a, Jet):
        return Jet(a.alg, np.einsum(f"{sa}Z,{sb}->{out}Z", a.coeffs, b))
    if isinstance(b, Jet):
        return Jet(b.alg, np.einsum(f"{sa},{sb}Z->{out}Z", a, b.coeffs))
    return np.einsum(spec, a, b)


def entry(j, *index):
    """The entry at ``index`` of a jet's leading axes, or of a float array;
    with an ``...`` the index ends at the last leading axis (``entry(g, ...,
    i, j)`` is the same entry at every point)."""
    if not isinstance(j, Jet):
        return j[index]
    if any(i is Ellipsis for i in index):
        index += (slice(None),)
    return Jet(j.alg, j.coeffs[index])


def swapaxes(j, a, b):
    """Swap two leading axes of a jet or float array; negative axes count
    from the last leading axis."""
    if not isinstance(j, Jet):
        return np.swapaxes(j, a, b)
    a, b = (x - 1 if x < 0 else x for x in (a, b))
    return Jet(j.alg, j.coeffs.swapaxes(a, b))


def derivative(j, exponents):
    """The partial derivative of multi-index ``exponents``: a float for a
    scalar jet, an array for an array jet."""
    key = tuple(exponents)
    if key not in j.alg.index:
        raise InsufficientJetOrder(f"multi-index {key} is not carried at order {j.order}")
    c = j.coeffs[..., j.alg.index[key]]
    c = float(c) if c.ndim == 0 else c.copy()
    return c * math.prod(math.factorial(e) for e in exponents)


def _nesting(entries):
    """The shape of a regular nested list and its leaves in row-major order."""
    if not isinstance(entries, (list, tuple)):
        return (), [entries]
    parts = [_nesting(e) for e in entries]
    if len({shape for shape, _ in parts}) > 1:
        raise ValueError("nested entries are not regular")
    inner = parts[0][0] if parts else ()
    return (len(parts),) + inner, [leaf for _, leaves in parts for leaf in leaves]


def stack(shape, leaves):
    """The flat ``leaves`` (jets, numbers and float arrays, row-major) as one
    table of trailing ``shape``, broadcast to their common leading shape:
    every leaf is broadcast (a number lifted to a constant jet) and the
    results stacked.  The table carries the lowest order among the jets;
    without any jet it is a float array."""
    lead = np.broadcast_shapes(*(e.shape if isinstance(e, Jet) else np.shape(e) for e in leaves))
    found = [e for e in leaves if isinstance(e, Jet)]
    if not found:
        stacked = [np.broadcast_to(np.asarray(e, dtype=float), lead) for e in leaves]
        return np.stack(stacked, axis=-1).reshape(lead + shape)
    alg = _algebra(found[0].nvars, min(j.order for j in found))
    stacked = [
        np.broadcast_to(
            e.coeffs[..., : alg.size] if isinstance(e, Jet) else _constant(alg, e).coeffs,
            lead + (alg.size,),
        )
        for e in leaves
    ]
    return Jet(alg, np.stack(stacked, axis=-2).reshape(lead + shape + (alg.size,)))


def array(entries):
    """The leaves of a nested list, stacked to its shape."""
    return stack(*_nesting(entries))


def _evaluated(table, env):
    """A nested tuple of nodes as the nested list of their values."""
    if isinstance(table, tuple):
        return [_evaluated(e, env) for e in table]
    return ex.evaluate(table, env)


def tables_at(space, names, x):
    """The named tables of ``space`` at the jet points ``x`` of shape
    ``(..., dim)``, each entry evaluated on its own; a table constant along
    ``x`` is a read-only float view broadcast over the points."""
    env = {v: entry(x, ..., i) for i, v in enumerate(ambient_vars(space.dim))}
    tables = [array(_evaluated(getattr(space, name), env)) for name in names]
    return [t if isinstance(t, Jet) else np.broadcast_to(t, x.shape[:-1] + t.shape) for t in tables]
