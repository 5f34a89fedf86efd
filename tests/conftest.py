"""Shared random-instance generators and independent oracles."""

import numpy as np
import pytest
from hypothesis import settings

from monolip import ConeOrder, ExtensionProblem, FiniteMetricPoset, chain_instance, is_pointed
from monolip import check_radiality, poset_from_points, orthant, scalar_cone

# Each failing example prints a blob that @reproduce_failure replays on any
# checkout; counts and seeds stay as in Hypothesis's default profile.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


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


def naive_radially_convex(poset, tol=1e-9):
    """d(x, z) >= max(d(x, y), d(y, z)) for every x > y > z, as three loops."""
    n, d, geq = poset.n, poset.dist, poset.geq
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x != y and y != z and geq(x, y) and geq(y, z):
                    if d[x, z] < max(d[x, y], d[y, z]) - tol:
                        return False
    return True


def induced_scalar_problem(poset, witness):
    """The three-point scalar problem whose modulus equals the witness's
    certified bound: f = rhs on the top anchor, 0 on the bottom one."""
    sub = _subposet(poset, list(witness.triple))
    hi, lo = witness.anchors
    f = np.array([[float(poset.dist[hi, lo])], [0.0]])
    return ExtensionProblem(domain=sub, subset=witness.anchor_slots, target=scalar_cone(), f=f)


def _subposet(poset, indices):
    sub = np.ix_(indices, indices)
    labels = tuple(poset.labels[i] for i in indices)
    return FiniteMetricPoset(labels=labels, dist=poset.dist[sub], order=poset.order_matrix[sub])


def round_cap_problem():
    """An L2 problem whose first cutting-plane round brackets its least K,
    0.8 sqrt 2 = 1.1314, in [1.1314, 1.6], so that at K = 1.001 K_min one
    round leaves it Unknown: 8 planar points under the orthant, four
    anchors, each column of f fitted 0.5-Lipschitz."""
    from monolip.extension import fit_monotone_lipschitz

    points = [[-0.5, 1.2], [-0.3, -1.8], [2.6, -1.9], [2.2, -1.9],
              [-2.1, -0.1], [1.0, -0.3], [0.0, 0.7], [-0.1, 2.7]]
    raw = np.array([[0.2, 0.4], [-0.1, 1.2], [-2.8, 3.2], [1.0, 1.4]])
    cone = orthant(2, "l2")
    domain = poset_from_points(points, cone)
    subset = (0, 1, 2, 3)
    f = np.column_stack(
        [fit_monotone_lipschitz(domain, subset, raw[:, c], lipschitz=0.5) for c in range(2)]
    )
    return ExtensionProblem(domain=domain, subset=subset, target=cone, f=f)


class TreePathOracle:
    """Distance, Busemann value and order of points of an ``RTree``, found
    by walking explicit paths rather than by the tree's own formulas.

    Every query point (a vertex id, ``("edge", u, v, offset)`` or
    ``("ray", t)``) becomes a node of a subdivided copy of the tree, and the
    ray's tail is cut off at a node ``far`` beyond every query point. Then
    d(p, q) is the length of the walk from p to q, B(p) = d(p, far) - T for
    the ray parameter T of ``far``, and p >= q iff p lies on the walk from q
    to ``far``.
    """

    def __init__(self, tree, points, tol=1e-12):
        adj = {v: [] for v in tree.vertices}
        for u, v, length in tree.edges:
            adj[u].append((v, length))
            adj[v].append((u, length))
        _, parent = self._walk(adj, tree.root)
        ray = [tree.end]
        while ray[-1] != tree.root:
            ray.append(parent[ray[-1]])
        ray.reverse()
        # cuts[(u, v, length)] lists (offset from u, point index); tail cuts
        # are keyed by None with the distance past the end
        cuts = {}
        self.node = []
        for i, p in enumerate(points):
            if not isinstance(p, tuple):
                self.node.append(p)
                continue
            if p[0] == "edge":
                _, a, b, off = p
                edge = next(e for e in tree.edges if {e[0], e[1]} == {a, b})
                cuts.setdefault(edge, []).append((off if a == edge[0] else edge[2] - off, i))
            else:
                rest = p[1]
                for a, b in zip(ray, ray[1:]):
                    edge = next(e for e in tree.edges if {e[0], e[1]} == {a, b})
                    if rest <= edge[2]:
                        cuts.setdefault(edge, []).append(
                            (rest if a == edge[0] else edge[2] - rest, i)
                        )
                        break
                    rest -= edge[2]
                else:
                    cuts.setdefault(None, []).append((rest, i))
            self.node.append(None)
        tail = max([0.0] + [s for s, _ in cuts.get(None, [])]) + 1.0
        cuts.setdefault(None, []).append((tail, "far"))
        for edge, marks in cuts.items():
            u, v, length = edge if edge is not None else (tree.end, "far", tail)
            chain, at = [u], [0.0]
            for off, i in sorted(marks, key=lambda m: m[0]):
                if off <= tol:
                    node = u
                elif off >= length - tol:
                    node = v
                elif off - at[-1] <= tol:
                    node = chain[-1]
                else:
                    node = ("cut", i)
                    chain.append(node)
                    at.append(off)
                if i != "far":
                    self.node[i] = node
            chain.append(v)
            at.append(length)
            if edge is not None:
                adj[u].remove((v, length))
                adj[v].remove((u, length))
            for x, y, lx, ly in zip(chain, chain[1:], at, at[1:]):
                adj.setdefault(x, []).append((y, ly - lx))
                adj.setdefault(y, []).append((x, ly - lx))
        self.adj, self._from = adj, {}
        self.to_far, self.toward_far = self._walk(adj, "far")
        self.far_param = self.to_far[tree.root]

    @staticmethod
    def _walk(adj, source):
        """Distance from ``source`` and the next node toward it, for every node."""
        dist, step = {source: 0.0}, {source: None}
        stack = [source]
        while stack:
            x = stack.pop()
            for y, length in adj[x]:
                if y not in dist:
                    dist[y], step[y] = dist[x] + length, x
                    stack.append(y)
        return dist, step

    def distance(self, i, j):
        if i not in self._from:
            self._from[i] = self._walk(self.adj, self.node[i])[0]
        return self._from[i][self.node[j]]

    def busemann(self, i):
        return self.to_far[self.node[i]] - self.far_param

    def above(self, i, j):
        """Whether point i lies on the walk from point j to ``far``."""
        x = self.node[j]
        while x is not None and x != self.node[i]:
            x = self.toward_far[x]
        return x is not None
