"""Shared random-instance generators and independent oracles."""

import numpy as np
import pytest

from monolip import ConeOrder, FiniteMetricPoset, chain_instance, is_pointed
from monolip import check_radiality, poset_from_points, orthant


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_pointed_cone(rng, dim=None, n_gen=None):
    """Random pointed cone with 2-8 generators in dims 2-6."""
    d = int(dim if dim is not None else rng.integers(2, 7))
    k = int(n_gen if n_gen is not None else rng.integers(2, 9))
    while True:
        g = rng.normal(size=(k, d))
        axis = rng.normal(size=d)
        axis /= np.linalg.norm(axis)
        # Shift every generator strictly into the halfspace {<x, axis> > 0},
        # which forces pointedness.
        g = g + (np.abs(g @ axis) + 0.2)[:, None] * axis
        cone = ConeOrder(dim=d, generators=g)
        if is_pointed(cone):
            return cone


def facet_normals(generators, tol=1e-10):
    """Inward unit facet normals of a pointed cone that spans R^2 or R^3.

    The candidates are the perpendiculars of the generators (R^2) or the
    cross products of generator pairs (R^3), with both signs; a candidate
    is a facet normal iff every generator lies on its nonnegative side.
    """
    G = np.asarray(generators, dtype=float)
    G = G / np.linalg.norm(G, axis=1)[:, None]
    if G.shape[1] == 2:
        cands = G[:, ::-1] * np.array([-1.0, 1.0])
    else:
        i, j = np.triu_indices(len(G), 1)
        cands = np.cross(G[i], G[j])
    norms = np.linalg.norm(cands, axis=1)
    cands = cands[norms > tol] / norms[norms > tol, None]
    cands = np.vstack([cands, -cands])
    return cands[np.all(G @ cands.T >= -tol, axis=0)]


def random_metric_poset(rng, max_points=20):
    """Random points in the plane with the coordinatewise order (may or
    may not be radial)."""
    n = int(rng.integers(3, max_points + 1))
    pts = rng.uniform(-5.0, 5.0, size=(n, 2))
    return poset_from_points(np.round(pts, 3), orthant(2))


def random_radial_poset(rng, max_points=12):
    """Chains and rejection-sampled radial coordinatewise posets."""
    if rng.random() < 0.5:
        n = int(rng.integers(2, max_points + 1))
        return chain_instance(np.round(rng.uniform(-8.0, 8.0, size=n), 3))
    for _ in range(200):
        n = int(rng.integers(3, 7))
        spread = float(rng.uniform(1.0, 6.0))
        pts = np.round(rng.uniform(-spread, spread, size=(n, 2)), 3)
        poset = poset_from_points(pts, orthant(2))
        if check_radiality(poset) is None:
            return poset
    # Trivial orders are always radial; guaranteed fallback.
    n = int(rng.integers(3, 7))
    pts = np.round(rng.uniform(-3.0, 3.0, size=(n, 2)), 3)
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    return FiniteMetricPoset(
        labels=tuple(str(i) for i in range(n)),
        dist=dist,
        order=frozenset((i, i) for i in range(n)),
    )


def monotone_line_map(rng, positions, m, scale=0.99):
    """Monotone 1-Lipschitz map on sorted line positions into the
    coordinatewise-ordered R^m: increments dt * v with v >= 0, |v|_2 < 1."""
    xs = np.sort(np.asarray(positions, dtype=float))
    v = rng.uniform(0.0, 1.0, size=m)
    norm = np.linalg.norm(v)
    if norm > 0:
        v = v / norm * scale * rng.uniform(0.3, 1.0)
    vals = np.zeros((len(xs), m))
    for i in range(1, len(xs)):
        step = (xs[i] - xs[i - 1]) * v
        if rng.random() < 0.3:
            v = rng.uniform(0.0, 1.0, size=m)
            n2 = np.linalg.norm(v)
            if n2 > 0:
                v = v / n2 * scale * rng.uniform(0.3, 1.0)
        vals[i] = vals[i - 1] + step
    return xs, vals


def naive_radiality_witnesses(poset, tol=1e-9):
    """Independent three-loop scan straight from the definitions."""
    n, d = poset.n, poset.dist
    geq = poset.geq
    out = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # RD1: x >=* y and y > z must force d(x,z) >= d(x,y)
                if (
                    not geq(y, x)
                    and y != z
                    and geq(y, z)
                    and not geq(z, y)
                    and d[x, z] < d[x, y] - tol
                ):
                    out.append(("RD1", (x, y, z), d[x, z], d[x, y]))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # RD2: x > y and y >=* z must force d(x,z) >= d(y,z)
                if (
                    x != y
                    and geq(x, y)
                    and not geq(y, x)
                    and not geq(z, y)
                    and d[x, z] < d[y, z] - tol
                ):
                    out.append(("RD2", (x, y, z), d[x, z], d[y, z]))
    return out
