"""Metric trees with a designated geodesic ray.

A tree is a finite weighted combinatorial tree plus a root (the ray
basepoint) and an ``end`` vertex; the root-to-end path, with the portion
beyond ``end`` treated as unbounded, is the ray. Points are vertices, edge
points, or points on the unbounded tail:

* a vertex id,
* ``("edge", u, v, offset)`` at distance ``offset`` from ``u`` along the
  edge between adjacent vertices ``u`` and ``v``,
* ``("ray", t)`` at ray parameter ``t >= 0``.

The Busemann function has the exact closed form d(a, m_a) - t_a, where
t_a is the hitting time of the geodesic from a onto the ray and m_a the
merge point; both come from two distance evaluations, no limits needed.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .cones import DEFAULT_TOL
from .errors import StructureError

_POINT_EQ_TOL = 1e-12


class RTree:
    """Finite weighted tree carrying the ray described above."""

    def __init__(self, vertices, edges, root, end):
        self.vertices = list(vertices)
        self.edges = [(u, v, float(length)) for u, v, length in edges]
        self.root = root
        self.end = end
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise StructureError("duplicate vertex ids")
        if root not in self._index or end not in self._index:
            raise StructureError("root and end must be vertices")
        if root == end:
            raise StructureError("root and end must differ")
        self._adj = {v: [] for v in self.vertices}
        for u, v, length in self.edges:
            if u not in self._index or v not in self._index:
                raise StructureError(f"edge ({u}, {v}) references unknown vertex")
            if not 0.0 < length < np.inf:  # NaN fails both comparisons
                raise StructureError(f"edge ({u}, {v}) must have positive finite length")
            self._adj[u].append((v, length))
            self._adj[v].append((u, length))
        self._edge_set = {frozenset((u, v)): length for u, v, length in self.edges}
        if len(self._edge_set) != len(self.edges):
            raise StructureError("duplicate edges")
        self._check_tree()
        self._parent, self._depth_len = self._bfs_tree(root)
        path = [end]
        while path[-1] != root:
            path.append(self._parent[path[-1]])
        path.reverse()
        self.ray_vertices = path
        self._ray_param = {v: self._depth_len[v] for v in path}
        self.ray_length = self._depth_len[end]
        self._dist_rows = [None] * len(self.vertices)
        self._hitting_cache = {}

    def _check_tree(self):
        if len(self.edges) != len(self.vertices) - 1:
            raise StructureError("edges not acyclic")
        seen = {self.root}
        queue = deque([self.root])
        while queue:
            u = queue.popleft()
            for v, _ in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != len(self.vertices):
            raise StructureError("tree is not connected")

    def _bfs_tree(self, start):
        parent = {start: None}
        dist = {start: 0.0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, length in self._adj[u]:
                if v not in parent:
                    parent[v] = u
                    dist[v] = dist[u] + length
                    queue.append(v)
        return parent, dist

    # -- vertex-level metric -------------------------------------------------

    def vertex_distance(self, u, v):
        return self._dist_row(self._index[u])[self._index[v]]

    def _dist_row(self, i):
        """Distances from vertex number i to every vertex, in ``_index`` order."""
        row = self._dist_rows[i]
        if row is None:
            _, dist = self._bfs_tree(self.vertices[i])
            row = self._dist_rows[i] = [dist[v] for v in self.vertices]
        return row

    def edge_length(self, u, v):
        key = frozenset((u, v))
        if key not in self._edge_set:
            raise StructureError(f"({u}, {v}) is not an edge")
        return self._edge_set[key]

    # -- point handling ------------------------------------------------------

    def canon(self, p):
        """Canonical point form: ("V", v) | ("E", u, v, off) | ("B", t)."""
        if isinstance(p, tuple) and p and p[0] in ("V", "E", "B"):
            return p
        if not isinstance(p, tuple):
            if p not in self._index:
                raise StructureError(f"unknown vertex {p!r}")
            return ("V", p)
        if p[0] == "edge":
            _, u, v, off = p
            length = self.edge_length(u, v)
            off = float(off)
            if off < -_POINT_EQ_TOL or off > length + _POINT_EQ_TOL:
                raise StructureError(f"offset {off} outside edge ({u}, {v})")
            if off <= _POINT_EQ_TOL:
                return ("V", u)
            if off >= length - _POINT_EQ_TOL:
                return ("V", v)
            return ("E", u, v, off)
        if p[0] == "ray":
            return self.ray_point(float(p[1]))
        raise StructureError(f"unrecognized point {p!r}")

    def ray_point(self, t):
        """The point sigma(t) on the ray."""
        t = float(t)
        if t < -_POINT_EQ_TOL:
            raise StructureError("ray parameter must be nonnegative")
        t = max(t, 0.0)
        if t > self.ray_length + _POINT_EQ_TOL:
            return ("B", t)
        prev = self.root
        for v in self.ray_vertices[1:]:
            tv = self._ray_param[v]
            if t <= tv + _POINT_EQ_TOL:
                return self.canon(("edge", prev, v, t - self._ray_param[prev]))
            prev = v
        return ("V", self.end)

    def _on_ray_param(self, p):
        """Ray parameter of a canonical point, or None if it is off the ray."""
        if p[0] == "B":
            return p[1]
        if p[0] == "V":
            return self._ray_param.get(p[1])
        _, u, v, off = p
        tu = self._ray_param.get(u)
        tv = self._ray_param.get(v)
        if tu is None or tv is None:
            return None
        return tu + off * (1.0 if tv > tu else -1.0)

    def _anchors(self, p):
        """(vertex number, weight) pairs through which every path from p passes."""
        if p[0] == "V":
            return ((self._index[p[1]], 0.0),)
        if p[0] == "B":
            return ((self._index[self.end], p[1] - self.ray_length),)
        _, u, v, off = p
        return ((self._index[u], off), (self._index[v], self.edge_length(u, v) - off))

    def distance(self, a, b):
        return self._distance(self.canon(a), self.canon(b))

    def _distance(self, a, b):
        """``distance`` between canonical points."""
        if a[0] == "B" and b[0] == "B":
            return abs(a[1] - b[1])
        if a[0] == "E" and b[0] == "E" and frozenset(a[1:3]) == frozenset(b[1:3]):
            offa = a[3] if a[1] == b[1] else self.edge_length(*a[1:3]) - a[3]
            return abs(offa - b[3])
        at_a, at_b = self._anchors(a), self._anchors(b)
        if len(at_a) == len(at_b) == 1:  # vertices and tail points
            (ia, wa), (ib, wb) = at_a[0], at_b[0]
            return wa + self._dist_row(ia)[ib] + wb
        return min(wa + self._dist_row(ia)[ib] + wb for ia, wa in at_a for ib, wb in at_b)

    def same_point(self, a, b, tol=_POINT_EQ_TOL):
        return self.distance(a, b) <= tol

    # -- ray geometry ----------------------------------------------------------

    def hitting(self, a):
        """(t_a, m_a, d(a, m_a)): where the geodesic from a merges with the ray.

        Computed once per vertex and kept, like the vertex distances."""
        return self._hitting(self.canon(a))

    def _hitting(self, p):
        """``hitting`` of a canonical point."""
        if p[0] == "V" and p[1] in self._hitting_cache:
            return self._hitting_cache[p[1]]
        t = self._on_ray_param(p)
        if t is not None:
            hit = (t, p, 0.0)
        else:
            dr = self._distance(p, ("V", self.root))
            big_t = self.ray_length + 1.0 + dr
            gap = self._distance(p, ("B", big_t))
            t_a = 0.5 * (dr + big_t - gap)
            hit = (t_a, self.ray_point(t_a), dr - t_a)
        if p[0] == "V":
            self._hitting_cache[p[1]] = hit
        return hit

    def busemann(self, a):
        """Closed form B(a) = d(a, m_a) - t_a."""
        t_a, _, d_am = self.hitting(a)
        return d_am - t_a

    def ray_gap(self, a, t):
        """d(a, sigma(t)) - t for the limit-definition oracle."""
        return self.distance(a, self.ray_point(t)) - float(t)

    def ray_param(self, a, tol=DEFAULT_TOL):
        """Parameter t with a = sigma(t), or None if a is off the ray.

        Tree points are matched by the fixed ``_POINT_EQ_TOL`` of ``canon``;
        ``tol`` is ignored and kept only for the signature the other spaces
        share (``spaces.ray_order`` passes it).
        """
        return self._on_ray_param(self.canon(a))

    # -- the hereditary partial order -------------------------------------------

    def order_path(self, a, b, tol=DEFAULT_TOL):
        """a >= b iff a lies on [b, sigma(t)] for some t (path additivity)."""
        a = self.canon(a)
        b = self.canon(b)
        t_a, _, _ = self._hitting(a)
        t_b, _, _ = self._hitting(b)
        far = ("B", max(t_a, t_b) + 1.0)
        lhs = self._distance(b, a) + self._distance(a, far)
        rhs = self._distance(b, far)
        return abs(lhs - rhs) <= tol

    def order_busemann(self, a, b, tol=DEFAULT_TOL):
        """a >= b iff B(b) - B(a) = d(a, b)."""
        return abs((self.busemann(b) - self.busemann(a)) - self.distance(a, b)) <= tol

    def order(self, a, b, tol=DEFAULT_TOL):
        return self.order_path(a, b, tol)

    # -- geodesics ---------------------------------------------------------------

    def _vertex_path(self, u, v):
        """Vertex sequence of the tree path from u to v."""
        # climb both vertices to the root, then splice at the meet point
        pu = []
        x = u
        while x is not None:
            pu.append(x)
            x = self._parent[x]
        pv = []
        x = v
        while x is not None:
            pv.append(x)
            x = self._parent[x]
        anc = set(pu)
        meet = next(x for x in pv if x in anc)
        left = pu[: pu.index(meet) + 1]
        right = pv[: pv.index(meet)]
        return left + right[::-1]

    def point_on_geodesic(self, a, b, s):
        """The point at arc length ``s`` from ``a`` along [a, b]."""
        a = self.canon(a)
        b = self.canon(b)
        total = self._distance(a, b)
        s = float(s)
        if s < -_POINT_EQ_TOL or s > total + _POINT_EQ_TOL:
            raise StructureError("arc length outside the geodesic")
        s = min(max(s, 0.0), total)
        if a[0] == "B" and b[0] == "B":
            return self.ray_point(a[1] + s if b[1] > a[1] else a[1] - s)
        if a[0] == "E" and b[0] == "E" and frozenset(a[1:3]) == frozenset(b[1:3]):
            _, u, v, off = a
            off_b = b[3] if b[1] == u else self.edge_length(u, v) - b[3]
            return self.canon(("edge", u, v, off + s if off_b > off else off - s))
        # Otherwise the geodesic leaves a through one anchor and enters b
        # through another, with the tree path between them.
        (ia, wa), (ib, _) = min(
            ((at_a, at_b) for at_a in self._anchors(a) for at_b in self._anchors(b)),
            key=lambda pair: pair[0][1] + self._dist_row(pair[0][0])[pair[1][0]] + pair[1][1],
        )
        if s <= wa:
            return self._toward(a, ia, s)
        cum = wa
        path = self._vertex_path(self.vertices[ia], self.vertices[ib])
        for u, v in zip(path, path[1:]):
            nxt = cum + self.edge_length(u, v)
            if s <= nxt + _POINT_EQ_TOL:
                return self.canon(("edge", u, v, s - cum))
            cum = nxt
        return self._toward(b, ib, total - s)

    def _toward(self, p, i, r):
        """The point at distance r from canonical p toward its anchor vertex
        number i (r at most the anchor's weight)."""
        if p[0] == "V":
            return p
        if p[0] == "B":
            return self.ray_point(p[1] - r)
        _, u, v, off = p
        return self.canon(("edge", u, v, off - r if self._index[u] == i else off + r))


def tripod(stem=2.0, branch=3.0, ray_tail=5.0):
    """Root -- branch point p -- end on the ray, plus a leaf hanging off p."""
    return RTree(
        vertices=["root", "p", "end", "leaf"],
        edges=[("root", "p", stem), ("p", "end", ray_tail), ("p", "leaf", branch)],
        root="root",
        end="end",
    )


def random_tree(n_vertices, rng, min_len=0.5, max_len=2.0):
    """Random recursive tree with uniform edge lengths; the ray runs from
    vertex 0 to the vertex farthest from it."""
    if n_vertices < 2:
        raise StructureError("need at least two vertices")
    rng = np.random.default_rng(rng)
    edges = []
    for i in range(1, n_vertices):
        parent = int(rng.integers(0, i))
        length = float(rng.uniform(min_len, max_len))
        edges.append((parent, i, length))
    tree = RTree(vertices=list(range(n_vertices)), edges=edges, root=0, end=1)
    far = max(range(1, n_vertices), key=lambda v: (tree.vertex_distance(0, v), -v))
    if far != 1:
        tree = RTree(vertices=list(range(n_vertices)), edges=edges, root=0, end=far)
    return tree

