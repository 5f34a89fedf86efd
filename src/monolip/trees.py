"""Metric trees with a designated geodesic ray.

A tree is a finite weighted combinatorial tree plus a root (the ray
basepoint) and an ``end`` vertex; the root-to-end path, continued beyond
``end`` by an unbounded tail, is the ray. Points are given as

* a vertex id,
* ``("edge", u, v, offset)`` at distance ``offset`` from ``u`` along the
  edge between adjacent vertices ``u`` and ``v``,
* ``("ray", t)`` at ray parameter ``t >= 0``.

``canon`` turns each into its one ``Point(vertex, height)``: the point at
distance ``height`` above ``vertex`` on the edge toward its parent, the tree
being rooted at the ray's basepoint. At ``end`` a negative height is that far
out on the tail. With D the depth (the distance from the root), a point has
depth D(vertex) - height, and every question has a closed form in D and the
meet m of two points, the deepest point on both of their paths to the root:

* d(a, b) = (D(a) - D(m)) + (D(b) - D(m));
* the geodesic from a merges with the ray at m_a, its meet with the tail,
  at the hitting time t_a = D(m_a), and B(a) = d(a, m_a) - t_a;
* [a, b] climbs from a to m and then descends to b.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .cones import DEFAULT_TOL
from .errors import StructureError

_POINT_EQ_TOL = 1e-12


class Point(NamedTuple):
    """A canonical tree point: ``height`` above ``vertex`` toward its parent."""

    vertex: object
    height: float


class RTree:
    """Finite weighted tree carrying the ray described above."""

    def __init__(self, vertices, edges, root, end):
        self.vertices = list(vertices)
        self.edges = [(u, v, float(length)) for u, v, length in edges]
        self.root = root
        self.end = end
        adj = {v: [] for v in self.vertices}
        if len(adj) != len(self.vertices):
            raise StructureError("duplicate vertex ids")
        if root not in adj or end not in adj:
            raise StructureError("root and end must be vertices")
        if root == end:
            raise StructureError("root and end must differ")
        for u, v, length in self.edges:
            if u not in adj or v not in adj:
                raise StructureError(f"edge ({u}, {v}) references unknown vertex")
            if not 0.0 < length < np.inf:  # NaN fails both comparisons
                raise StructureError(f"edge ({u}, {v}) must have positive finite length")
            adj[u].append((v, length))
            adj[v].append((u, length))
        if len({frozenset((u, v)) for u, v, _ in self.edges}) != len(self.edges):
            raise StructureError("duplicate edges")
        if len(self.edges) != len(self.vertices) - 1:
            raise StructureError("edges not acyclic")
        # One walk from the root, parents first: each vertex's parent, hop
        # level, depth and the length of the edge above it.
        self._parent, self._level = {root: None}, {root: 0}
        self._depth, self._above = {root: 0.0}, {root: np.inf}
        walk = [root]
        for u in walk:
            for v, length in adj[u]:
                if v not in self._parent:
                    self._parent[v], self._level[v] = u, self._level[u] + 1
                    self._depth[v], self._above[v] = self._depth[u] + length, length
                    walk.append(v)
        if len(walk) != len(self.vertices):
            raise StructureError("tree is not connected")
        path = [end]
        while path[-1] != root:
            path.append(self._parent[path[-1]])
        self.ray_vertices = path[::-1]
        self.ray_length = self._depth[end]
        self._ray_depths = [self._depth[v] for v in self.ray_vertices]
        # the deepest ray vertex on each vertex's path to the root
        on_ray = set(path)
        self._merge = {}
        for v in walk:
            self._merge[v] = v if v in on_ray else self._merge[self._parent[v]]

    def _child(self, u, v):
        """The lower end of the edge between u and v."""
        if u != self.root and self._parent.get(u) == v:
            return u
        if v != self.root and self._parent.get(v) == u:
            return v
        raise StructureError(f"({u}, {v}) is not an edge")

    def edge_length(self, u, v):
        return self._above[self._child(u, v)]

    # -- point handling ------------------------------------------------------

    def canon(self, p):
        """The ``Point`` form of a vertex id, edge point or ray point."""
        if isinstance(p, Point):
            return p
        if not isinstance(p, tuple):
            if p not in self._depth:
                raise StructureError(f"unknown vertex {p!r}")
            return Point(p, 0.0)
        if p[0] == "edge":
            _, u, v, off = p
            child = self._child(u, v)
            length = self._above[child]
            off = float(off)
            if off < -_POINT_EQ_TOL or off > length + _POINT_EQ_TOL:
                raise StructureError(f"offset {off} outside edge ({u}, {v})")
            return self._snap(child, off if child == u else length - off)
        if p[0] == "ray":
            return self.ray_point(p[1])
        raise StructureError(f"unrecognized point {p!r}")

    def _snap(self, v, h):
        """Point(v, h), moved to the vertex at either end of the edge above v
        when within ``_POINT_EQ_TOL`` of it."""
        if abs(h) <= _POINT_EQ_TOL:
            return Point(v, 0.0)
        if h >= self._above[v] - _POINT_EQ_TOL:
            return Point(self._parent[v], 0.0)
        return Point(v, h)

    def ray_point(self, t):
        """The point sigma(t) on the ray."""
        t = float(t)
        if t < -_POINT_EQ_TOL:
            raise StructureError("ray parameter must be nonnegative")
        t = max(t, 0.0)
        if t > self.ray_length + _POINT_EQ_TOL:
            return Point(self.end, self.ray_length - t)
        v = self.ray_vertices[bisect_left(self._ray_depths, t - _POINT_EQ_TOL, 1)]
        return self._snap(v, self._depth[v] - t)

    def _legs(self, a, b):
        """(d(a, m), d(b, m)) for canonical a and b and their meet m."""
        (u, hu), (w, hw), level, parent = a, b, self._level, self._parent
        x, y = u, w
        while level[x] > level[y]:
            x = parent[x]
        while level[y] > level[x]:
            y = parent[y]
        while x != y:
            x, y = parent[x], parent[y]
        # m is x unless a or b lies on the edge above x or on the tail
        top, depth = max(hu if u == x else 0.0, hw if w == x else 0.0), self._depth
        return (depth[u] - depth[x]) + (top - hu), (depth[w] - depth[x]) + (top - hw)

    def distance(self, a, b):
        return self._distance(self.canon(a), self.canon(b))

    def _distance(self, a, b):
        """``distance`` between canonical points."""
        return sum(self._legs(a, b))

    def same_point(self, a, b, tol=_POINT_EQ_TOL):
        return self.distance(a, b) <= tol

    # -- ray geometry ----------------------------------------------------------

    def hitting(self, a):
        """(t_a, m_a, d(a, m_a)): where the geodesic from a merges with the ray."""
        p = self.canon(a)
        r = self._merge[p.vertex]
        if r == p.vertex:  # p is on the ray
            return self._depth[r] - p.height, p, 0.0
        return self._depth[r], Point(r, 0.0), (self._depth[p.vertex] - self._depth[r]) - p.height

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
        t_a, _, d_am = self.hitting(a)
        return t_a if d_am == 0.0 else None  # exactly 0.0 only on the ray

    # -- the hereditary partial order -------------------------------------------

    def order_path(self, a, b, tol=DEFAULT_TOL):
        """a >= b iff a lies on [b, sigma(t)] for some t (path additivity)."""
        a = self.canon(a)
        b = self.canon(b)
        t = max(self.hitting(a)[0], self.hitting(b)[0], self.ray_length) + 1.0
        far = Point(self.end, self.ray_length - t)
        lhs = self._distance(b, a) + self._distance(a, far)
        rhs = self._distance(b, far)
        return abs(lhs - rhs) <= tol

    def order_busemann(self, a, b, tol=DEFAULT_TOL):
        """a >= b iff B(b) - B(a) = d(a, b)."""
        return abs((self.busemann(b) - self.busemann(a)) - self.distance(a, b)) <= tol

    def order(self, a, b, tol=DEFAULT_TOL):
        return self.order_path(a, b, tol)

    # -- geodesics ---------------------------------------------------------------

    def point_on_geodesic(self, a, b, s):
        """The point at arc length ``s`` from ``a`` along [a, b]."""
        a = self.canon(a)
        b = self.canon(b)
        leg_a, leg_b = self._legs(a, b)
        total = leg_a + leg_b
        s = float(s)
        if s < -_POINT_EQ_TOL or s > total + _POINT_EQ_TOL:
            raise StructureError("arc length outside the geodesic")
        s = min(max(s, 0.0), total)
        return self._climb(a, s) if s <= leg_a else self._climb(b, total - s)

    def _climb(self, p, r):
        """The point at distance r above canonical p on its path to the root."""
        x, goal = p.vertex, self._depth[p.vertex] - p.height - r
        while x != self.root and self._depth[self._parent[x]] >= goal:
            x = self._parent[x]
        return self._snap(x, self._depth[x] - goal)


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
    vertex 0 to the vertex farthest from it (the least such id)."""
    if n_vertices < 2:
        raise StructureError("need at least two vertices")
    rng = np.random.default_rng(rng)
    edges = []
    depth = [0.0] * n_vertices
    for i in range(1, n_vertices):
        parent = int(rng.integers(0, i))
        length = float(rng.uniform(min_len, max_len))
        edges.append((parent, i, length))
        depth[i] = depth[parent] + length
    end = max(range(1, n_vertices), key=lambda v: (depth[v], -v))
    return RTree(vertices=list(range(n_vertices)), edges=edges, root=0, end=end)
