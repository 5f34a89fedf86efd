"""Reference answers computed without the package's solver code.

Every function here works straight from the definitions, with numpy only,
so that a wrong answer from a timed call cannot also appear in its
reference. The scalar minimal Lipschitz constant uses the shortest-path
form of the difference constraints; the radiality scan evaluates both
inequalities on the whole n x n x n triple tensor.
"""

import numpy as np


def geq_matrix(points, tol=1e-12):
    """G[i, j] iff points[i] >= points[j] coordinatewise."""
    diff = points[:, None, :] - points[None, :, :]
    return np.all(diff >= -tol, axis=2)


def l2_dist(points):
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def axioms_ok(dist, geq, tol=1e-9):
    """Metric and partial-order axioms, checked on whole matrices."""
    n = dist.shape[0]
    off = ~np.eye(n, dtype=bool)
    gi = geq.astype(np.int64)
    return bool(
        np.all(np.abs(np.diag(dist)) <= tol)
        and np.all(np.abs(dist - dist.T) <= tol)
        and np.all(dist[off] > tol)
        and np.all(dist[:, None, :] <= dist[:, :, None] + dist[None, :, :] + tol)
        and np.all(np.diag(geq))
        and not np.any(geq & geq.T & off)
        and not np.any(((gi @ gi) > 0) & ~geq)
    )


def order_path_lengths(dist, geq):
    """D*(a, b): shortest path where each pair costs d and each a >= b costs 0.

    Then b can exceed a by at most K * D*(a, b) in any order-preserving
    K-Lipschitz scalar map, and that bound is attained (McShane).
    """
    D = np.where(geq, 0.0, dist)
    np.fill_diagonal(D, 0.0)
    for k in range(D.shape[0]):
        D = np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :])
    return D


def scalar_kmin(dist, geq, subset, f):
    """Minimal K >= 1 of an order-preserving K-Lipschitz scalar extension."""
    s = np.asarray(subset)
    D = order_path_lengths(dist, geq)[np.ix_(s, s)]
    f = np.asarray(f, dtype=float).reshape(-1)
    rise = f[None, :] - f[:, None]  # rise[a, b] = f(b) - f(a)
    mask = D > 0
    worst = float(np.max(rise[mask] / D[mask])) if mask.any() else 0.0
    return max(1.0, worst)


def admissible_scalar_map(dist, geq, subset, raw):
    """Largest order-preserving 1-Lipschitz map on ``subset`` below ``raw``."""
    s = np.asarray(subset)
    D = order_path_lengths(dist[np.ix_(s, s)], geq[np.ix_(s, s)])
    return np.min(np.asarray(raw, dtype=float)[:, None] + D, axis=0)


def radiality_witnesses(dist, geq, tol=1e-9):
    """All RD1 and RD2 violations as (kind, triples array, ratios array).

    RD1: x >=* y > z with d(x, z) < d(x, y); ratio d(x, y) / d(x, z).
    RD2: x > y >=* z with d(x, z) < d(y, z); ratio d(y, z) / d(x, z).
    Triples come in lexicographic (x, y, z) order.
    """
    n = dist.shape[0]
    off = ~np.eye(n, dtype=bool)
    strict = geq & ~geq.T & off
    bullet = ~geq.T  # bullet[x, y]: not y >= x
    d = dist
    rd1 = bullet[:, :, None] & strict[None, :, :] & (d[:, None, :] < d[:, :, None] - tol)
    rd2 = strict[:, :, None] & bullet[None, :, :] & (d[:, None, :] < d[None, :, :] - tol)
    out = []
    for kind, mask, num in (
        ("RD1", rd1, np.broadcast_to(d[:, :, None], rd1.shape)),
        ("RD2", rd2, np.broadcast_to(d[None, :, :], rd2.shape)),
    ):
        idx = np.argwhere(mask)
        ratios = num[mask] / d[idx[:, 0], idx[:, 2]]
        out.append((kind, idx, ratios))
    return out


def first_witness_and_bound(dist, geq, tol=1e-9):
    """(first witness as (kind, triple) or None, best ratio or 1.0)."""
    first, best = None, 1.0
    for kind, idx, ratios in radiality_witnesses(dist, geq, tol):
        if first is None and len(idx):
            first = (kind, tuple(int(v) for v in idx[0]))
        if len(ratios):
            best = max(best, float(ratios.max()))
    return first, best


def best_witness(dist, geq, tol=1e-9):
    """(kind, triple, ratio) of the witness with the largest ratio, or None."""
    best = None
    for kind, idx, ratios in radiality_witnesses(dist, geq, tol):
        if len(ratios):
            k = int(np.argmax(ratios))
            if best is None or ratios[k] > best[2]:
                best = (kind, tuple(int(v) for v in idx[k]), float(ratios[k]))
    return best


def cone_normals(generators):
    """Facet normals of a pointed 3-D cone given by generators."""
    g = np.asarray(generators, dtype=float)
    normals = []
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            nrm = np.cross(g[i], g[j])
            side = g @ nrm
            if np.all(side >= -1e-12):
                normals.append(nrm / np.linalg.norm(nrm))
            elif np.all(side <= 1e-12):
                normals.append(-nrm / np.linalg.norm(nrm))
    return np.array(normals)


def extension_residual(values, dist, geq, subset, f, K, normals=None):
    """Worst violation of K-Lipschitz (L2), order and anchor conditions.

    ``normals`` are the target cone's halfspace normals (None: scalar).
    """
    v = np.asarray(values, dtype=float).reshape(dist.shape[0], -1)
    gaps = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)
    lip = float(np.max(gaps - K * dist))
    i, j = np.nonzero(geq & ~np.eye(len(v), dtype=bool))
    diff = v[i] - v[j]
    if normals is None:
        normals = np.ones((1, v.shape[1]))
    order = float(np.max(-(diff @ np.asarray(normals).T), initial=0.0))
    anchor = float(np.max(np.abs(v[list(subset)] - np.asarray(f).reshape(len(subset), -1))))
    return max(lip, order, anchor)


def _rooted(vertices, edges, root):
    """Parent and distance from ``root`` of every vertex of a weighted tree."""
    adj = {v: [] for v in vertices}
    for u, v, length in edges:
        adj[u].append((v, length))
        adj[v].append((u, length))
    parent, depth = {root: None}, {root: 0.0}
    stack = [root]
    while stack:
        u = stack.pop()
        for v, length in adj[u]:
            if v not in parent:
                parent[v], depth[v] = u, depth[u] + length
                stack.append(v)
    return parent, depth


def _path_to_root(parent, v):
    out = []
    while v is not None:
        out.append(v)
        v = parent[v]
    return out


def tree_ancestors(vertices, edges, end):
    """For each vertex, the set of vertices on its path to the ray's end.

    a >= b in the tree order iff a lies on the geodesic from b towards the
    end of the ray, that is iff a is an ancestor of b with the tree rooted
    at the ray's last vertex.
    """
    parent, _ = _rooted(vertices, edges, end)
    return {v: set(_path_to_root(parent, v)) for v in vertices}


def tree_busemann(vertices, edges, root, end, point):
    """B(p) = d(p, m_p) - t_p for a vertex p, by explicit path walking."""
    parent, depth = _rooted(vertices, edges, root)
    ray = set(_path_to_root(parent, end))
    merge = next(v for v in _path_to_root(parent, point) if v in ray)
    return (depth[point] - depth[merge]) - depth[merge]
