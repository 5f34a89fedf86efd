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

from .errors import StructureError

DEFAULT_TOL = 1e-9

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
        self._dist_cache = {}
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
        if u not in self._dist_cache:
            _, dist = self._bfs_tree(u)
            self._dist_cache[u] = dist
        return self._dist_cache[u][v]

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

    def on_ray_param(self, p, tol=DEFAULT_TOL):
        """Ray parameter of a point, or None if it is off the ray."""
        p = self.canon(p)
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
        """(vertex, weight) pairs through which every path from p passes."""
        if p[0] == "V":
            return [(p[1], 0.0)]
        if p[0] == "B":
            return [(self.end, p[1] - self.ray_length)]
        _, u, v, off = p
        return [(u, off), (v, self.edge_length(u, v) - off)]

    def distance(self, a, b):
        a = self.canon(a)
        b = self.canon(b)
        if a[0] == "B" and b[0] == "B":
            return abs(a[1] - b[1])
        if a[0] == "E" and b[0] == "E" and frozenset(a[1:3]) == frozenset(b[1:3]):
            offa = a[3] if a[1] == b[1] else self.edge_length(*a[1:3]) - a[3]
            return abs(offa - b[3])
        return min(
            wa + self.vertex_distance(va, vb) + wb
            for va, wa in self._anchors(a)
            for vb, wb in self._anchors(b)
        )

    def same_point(self, a, b, tol=_POINT_EQ_TOL):
        return self.distance(a, b) <= tol

    # -- ray geometry ----------------------------------------------------------

    def hitting(self, a):
        """(t_a, m_a, d(a, m_a)): where the geodesic from a merges with the ray.

        Computed once per vertex and kept, like the vertex distances."""
        p = self.canon(a)
        if p[0] == "V":
            if p[1] not in self._hitting_cache:
                self._hitting_cache[p[1]] = self._hitting(p)
            return self._hitting_cache[p[1]]
        return self._hitting(p)

    def _hitting(self, p):
        t = self.on_ray_param(p)
        if t is not None:
            return t, p, 0.0
        dr = self.distance(p, ("V", self.root))
        big_t = self.ray_length + 1.0 + dr
        gap = self.distance(p, ("B", big_t))
        t_a = 0.5 * (dr + big_t - gap)
        return t_a, self.ray_point(t_a), dr - t_a

    def busemann(self, a):
        """Closed form B(a) = d(a, m_a) - t_a."""
        t_a, _, d_am = self.hitting(a)
        return d_am - t_a

    def ray_gap(self, a, t):
        """d(a, sigma(t)) - t for the limit-definition oracle."""
        return self.distance(a, self.ray_point(t)) - float(t)

    def ray_param(self, a, tol=DEFAULT_TOL):
        # Uniform interface with the other spaces (generic ray order).
        return self.on_ray_param(a, tol)

    # -- the hereditary partial order -------------------------------------------

    def order_path(self, a, b, tol=DEFAULT_TOL):
        """a >= b iff a lies on [b, sigma(t)] for some t (path additivity)."""
        a = self.canon(a)
        b = self.canon(b)
        t_a, _, _ = self.hitting(a)
        t_b, _, _ = self.hitting(b)
        big_t = max(t_a, t_b) + 1.0
        lhs = self.distance(b, a) + self.distance(a, ("B", big_t))
        rhs = self.distance(b, ("B", big_t))
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

    def geodesic_points(self, a, b):
        """Canonical points and cumulative distances along [a, b]."""
        a = self.canon(a)
        b = self.canon(b)
        total = self.distance(a, b)
        if total <= _POINT_EQ_TOL:
            return [(a, 0.0)]
        exit_a, w_a = min(
            ((va, wa) for va, wa in self._anchors(a)),
            key=lambda vw: vw[1] + min(
                self.vertex_distance(vw[0], vb) + wb for vb, wb in self._anchors(b)
            ),
        )
        enter_b, w_b = min(
            ((vb, wb) for vb, wb in self._anchors(b)),
            key=lambda vw: w_a + self.vertex_distance(exit_a, vw[0]) + vw[1],
        )
        # Same-edge and tail special cases have no intermediate vertices.
        if a[0] == "E" and b[0] == "E" and frozenset(a[1:3]) == frozenset(b[1:3]):
            return [(a, 0.0), (b, total)]
        if a[0] == "B" and b[0] == "B":
            return [(a, 0.0), (b, total)]
        out = [(a, 0.0)]
        cum = w_a
        path = self._vertex_path(exit_a, enter_b)
        for i, v in enumerate(path):
            if not self.same_point(out[-1][0], ("V", v)):
                out.append((("V", v), cum))
            if i + 1 < len(path):
                cum += self.edge_length(v, path[i + 1])
        if not self.same_point(out[-1][0], b):
            out.append((b, total))
        return out

    def point_on_geodesic(self, a, b, s):
        """The point at arc length ``s`` from ``a`` along [a, b]."""
        pts = self.geodesic_points(a, b)
        total = pts[-1][1]
        s = float(s)
        if s < -_POINT_EQ_TOL or s > total + _POINT_EQ_TOL:
            raise StructureError("arc length outside the geodesic")
        s = min(max(s, 0.0), total)
        for (p, cp), (q, cq) in zip(pts, pts[1:]):
            if s <= cq + _POINT_EQ_TOL:
                return self._interp(p, q, s - cp)
        return pts[-1][0]

    def _interp(self, p, q, s):
        """Point at distance s from p toward q; p and q share an edge, a
        tail segment, or are a vertex and an incident edge point."""
        if s <= _POINT_EQ_TOL:
            return p
        seg = self.distance(p, q)
        if s >= seg - _POINT_EQ_TOL:
            return q
        if p[0] == "B" or q[0] == "B":
            tp = self.on_ray_param(p)
            tq = self.on_ray_param(q)
            return self.ray_point(tp + (s if tq > tp else -s))
        if p[0] == "V" and q[0] == "V":
            return self.canon(("edge", p[1], q[1], s))
        if p[0] == "V":
            u = p[1]
            v = q[2] if q[1] == u else q[1]
            return self.canon(("edge", u, v, s))
        u, v, off = p[1], p[2], p[3]
        if q[0] == "V":
            off_q = 0.0 if q[1] == u else self.edge_length(u, v)
        else:
            off_q = q[3] if q[1] == u else self.edge_length(u, v) - q[3]
        return self.canon(("edge", u, v, off + (s if off_q > off else -s)))


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


def rtree_hitting(tree, a):
    """(t_a, m_a) for the geodesic from a onto the ray."""
    t_a, m_a, _ = tree.hitting(a)
    return t_a, m_a


def rtree_busemann(tree, a):
    return tree.busemann(a)


def rtree_order(tree, a, b, tol=DEFAULT_TOL):
    return tree.order(a, b, tol)
