"""The triple scans of ``validate``, ``max_ratio_witness`` and
``check_radiality`` on posets of 20 to 70 points, against full-tensor numpy
references.

The witness enumeration runs in blocks that grow from one row to the
SCAN_BLOCK budget (13 rows at n = 70), so it crosses block boundaries at
every size drawn here.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import monolip as ml
from monolip import poset as poset_mod

from conftest import random_pointed_cone

SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(20, 70)
KINDS = st.sampled_from(
    [
        "integer-points",
        "cone",
        "independent-metric",
        "asymmetric",
        "non-metric",
        "negative",
        "relation",
    ]
)
SCANS = settings(max_examples=30, deadline=None)
# non-metric inputs list tens of thousands of triangle violations
VALIDATE = settings(max_examples=15, deadline=None)


def _instance(rng, kind, n):
    """(dist, order matrix) of one of the instance kinds, about n points."""
    if kind == "integer-points":  # equal distances and ratios are common
        pts = np.unique(rng.integers(-5, 6, size=(n, 2)).astype(float), axis=0)
        p = ml.poset_from_points(pts, ml.orthant(2))
        return p.dist, p.order_matrix
    if kind == "cone":  # not an orthant
        cone = random_pointed_cone(rng, dim=int(rng.integers(2, 4)))
        p = ml.poset_from_points(rng.uniform(-4.0, 4.0, size=(n, cone.dim)), cone)
        return p.dist, p.order_matrix
    pts = np.round(rng.uniform(-5.0, 5.0, size=(n, 2)), 1)
    g = (pts[:, None, :] >= pts[None, :, :]).all(axis=2)
    if kind == "independent-metric":  # a metric unrelated to the order
        upper = np.triu(np.round(rng.uniform(1.0, 3.0, size=(n, n)), 1), 1)
        return upper + upper.T, g
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    if kind == "asymmetric":
        return d * rng.uniform(0.7, 1.3, size=(n, n)), g
    if kind == "non-metric":  # triangle violations, zeros and negatives
        d = np.round(d + rng.normal(scale=1.5, size=(n, n)), 0)
        return d, g
    if kind == "negative":  # the best ratio has the least rhs at each (x, z)
        return -np.round(rng.uniform(0.5, 3.0, size=(n, n)), 1), g
    # a random relation: missing reflexive pairs, cycles, no transitivity
    return np.round(d, 1), rng.random((n, n)) < 0.05


def _poset(dist, g):
    labels = tuple(str(i) for i in range(len(dist)))
    return ml.FiniteMetricPoset(labels=labels, dist=dist, order=g)


def reference_violations(d, g, tol=1e-9):
    """(kind, indices) of every axiom violation in ``validate`` order, from
    full (n, n) and (n, n, n) tensors."""
    n = len(d)
    out = [("zero-diagonal", (i,)) for i in np.flatnonzero(np.abs(np.diag(d)) > tol)]
    for i, j in zip(*np.triu_indices(n, 1)):
        if abs(d[i, j] - d[j, i]) > tol:
            out.append(("symmetry", (i, j)))
        if d[i, j] <= tol:
            out.append(("identity of indiscernibles", (i, j)))
        if d[i, j] < -tol or d[j, i] < -tol:
            out.append(("nonnegativity", (i, j)))
    # [i, j, k]: d(i, j) > d(i, k) + d(k, j) + tol
    triangle = d[:, :, None] > d[:, None, :] + d.T[None, :, :] + tol
    out += [("triangle inequality", tuple(t)) for t in np.argwhere(triangle)]
    out += [("reflexivity", (i,)) for i in np.flatnonzero(~np.diag(g))]
    out += [("antisymmetry", tuple(t)) for t in np.argwhere(np.triu(g & g.T, 1))]
    # [i, k, j]: i >= k >= j
    closure = (g[:, :, None] & g[None, :, :]).any(axis=1)
    out += [("transitivity", tuple(t)) for t in np.argwhere(closure & ~g)]
    return [(kind, tuple(int(i) for i in idx)) for kind, idx in out]


def reference_witnesses(d, g, tol=1e-9):
    """(kind, triple, lhs, rhs) of every radiality witness in (kind, x, y, z)
    order, from full (n, n, n) tensors."""
    strict = g & ~np.eye(len(d), dtype=bool)
    lhs = d[:, None, :]  # [x, y, z] -> d(x, z)
    scans = (
        # RD1: x >=* y > z, rhs d(x, y)
        ("RD1", ~g.T[:, :, None] & strict[None, :, :], d[:, :, None]),
        # RD2: x > y >=* z, rhs d(y, z)
        ("RD2", strict[:, :, None] & ~g.T[None, :, :], d[None, :, :]),
    )
    hits = []
    for kind, order_ok, rhs in scans:
        rhs = np.broadcast_to(rhs, order_ok.shape)
        for x, y, z in np.argwhere(order_ok & (lhs < rhs - tol)):
            hits.append((kind, (int(x), int(y), int(z)), float(d[x, z]), float(rhs[x, y, z])))
    return hits


def reference_max_ratio(hits):
    """The first witness of largest ratio rhs / lhs; None if there is none
    or the largest ratio is -inf."""
    if not hits:
        return None
    with np.errstate(divide="ignore"):
        ratios = np.array([h[3] for h in hits]) / np.array([h[2] for h in hits])
    k = int(np.argmax(ratios))
    return hits[k] if ratios[k] > -np.inf else None


def _key(w):
    return None if w is None else (w.kind, w.triple, w.lhs, w.rhs)


@VALIDATE
@given(seed=SEEDS, n=SIZES, kind=KINDS)
@example(seed=0, n=70, kind="non-metric")
def test_validate_matches_full_tensor_reference(seed, n, kind):
    d, g = _instance(np.random.default_rng(seed), kind, n)
    report = ml.validate(_poset(d, g))
    assert [(v.kind, v.indices) for v in report.violations] == reference_violations(d, g)


@SCANS
@given(seed=SEEDS, n=SIZES, kind=KINDS)
@example(seed=0, n=30, kind="negative")
@example(seed=0, n=70, kind="integer-points")
def test_max_ratio_witness_matches_full_tensor_reference(seed, n, kind):
    d, g = _instance(np.random.default_rng(seed), kind, n)
    p = _poset(d, g)
    hits = reference_witnesses(d, g)
    assert _key(poset_mod.max_ratio_witness(p)) == reference_max_ratio(hits)
    assert _key(ml.check_radiality(p)) == (hits[0] if hits else None)

