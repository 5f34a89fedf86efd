"""Metric trees with a designated ray: hitting points, Busemann values,
and the two equivalent order predicates."""

import numpy as np
import pytest

import monolip as ml
from monolip import trees

from conftest import TreePathOracle


@pytest.fixture
def tri():
    # root --2-- p --(ray)--> end, with a leaf hanging 3 below p
    return ml.tripod(stem=2.0, branch=3.0, ray_tail=5.0)


# ---------------------------------------------------------------------------
# hitting point
# ---------------------------------------------------------------------------


def test_hitting_on_ray(tri):
    t, m, _ = tri.hitting(("ray", 5.0))
    assert t == pytest.approx(5.0, abs=1e-12)
    assert tri.same_point(m, tri.canon(("ray", 5.0)))


def test_hitting_root(tri):
    t, m, _ = tri.hitting(tri.root)
    assert t == pytest.approx(0.0, abs=1e-12)
    assert tri.same_point(m, tri.canon(tri.root))


def test_hitting_tripod_leaf(tri):
    t, m, _ = tri.hitting("leaf")
    assert t == pytest.approx(2.0, abs=1e-12)
    assert tri.same_point(m, tri.canon("p"))


# ---------------------------------------------------------------------------
# Busemann values
# ---------------------------------------------------------------------------


def test_busemann_tripod_leaf(tri):
    assert tri.busemann("leaf") == pytest.approx(1.0, abs=1e-12)


def test_busemann_on_ray(tri):
    for t in (0.0, 1.0, 4.5):
        assert tri.busemann(("ray", t)) == pytest.approx(-t, abs=1e-12)


def test_busemann_root(tri):
    assert tri.busemann(tri.root) == pytest.approx(0.0, abs=1e-12)


def test_busemann_limit_exact_beyond_hitting(tri, rng):
    for point in ("leaf", "p", tri.root, ("edge", "p", "leaf", 1.3)):
        a = tri.canon(point)
        t_a, _, _ = tri.hitting(a)
        closed = tri.busemann(a)
        for horizon in (t_a + 0.5, 10.0, 1e4):
            if horizon <= t_a:
                continue
            assert tri.ray_gap(a, horizon) == pytest.approx(closed, abs=1e-9)


# ---------------------------------------------------------------------------
# order predicates
# ---------------------------------------------------------------------------


def test_order_along_path_toward_ray(tri):
    # p lies on the path from the leaf toward the ray
    assert tri.order("p", "leaf")
    assert not tri.order("leaf", "p")
    assert tri.order(("ray", 4.0), "leaf")


def test_order_reflexive(tri):
    assert tri.order("leaf", "leaf")
    assert tri.order(("ray", 2.5), ("ray", 2.5))


def test_two_leaves_incomparable():
    t = trees.RTree(
        vertices=["r", "p", "q", "e", "l1", "l2"],
        edges=[("r", "p", 1.0), ("p", "q", 1.0), ("q", "e", 1.0),
               ("p", "l1", 2.0), ("q", "l2", 2.0)],
        root="r",
        end="e",
    )
    assert not t.order("l1", "l2")
    assert not t.order("l2", "l1")


def test_path_and_busemann_orders_agree(rng):
    for _ in range(20):
        t = ml.random_tree(int(rng.integers(3, 25)), rng)
        for a in t.vertices:
            for b in t.vertices:
                assert t.order_path(a, b) == t.order_busemann(a, b)


def test_geodesic_heredity(rng):
    for _ in range(10):
        t = ml.random_tree(int(rng.integers(4, 20)), rng)
        for a in t.vertices:
            for b in t.vertices:
                if a == b or not t.order_path(a, b):
                    continue
                dab = t.distance(t.canon(a), t.canon(b))
                for s in rng.uniform(0.0, 1.0, size=5) * dab:
                    c = t.point_on_geodesic(t.canon(a), t.canon(b), s)
                    assert t.order_path(a, c) and t.order_path(c, b)


def _random_point(t, rng, kind):
    if kind == "vertex":
        return t.vertices[int(rng.integers(len(t.vertices)))]
    if kind == "edge":
        u, v, length = t.edges[int(rng.integers(len(t.edges)))]
        return ("edge", u, v, float(rng.uniform(0.0, length)))
    return ("ray", float(rng.uniform(0.0, t.ray_length + 3.0)))


def test_point_on_geodesic_splits_the_distance_for_every_endpoint_kind(rng):
    kinds = ("vertex", "edge", "ray")
    comparable = 0
    for _ in range(40):
        t = ml.random_tree(int(rng.integers(2, 31)), rng)
        for kind_a in kinds:
            for kind_b in kinds:
                for _ in range(3):
                    a = t.canon(_random_point(t, rng, kind_a))
                    b = t.canon(_random_point(t, rng, kind_b))
                    dab = t.distance(a, b)
                    tol = 1e-9 * (1.0 + dab)
                    # vertex pairs are covered by test_geodesic_heredity
                    hereditary = a.height != 0.0 or b.height != 0.0
                    hereditary = hereditary and t.order_path(a, b)
                    comparable += hereditary
                    for s in (0.0, dab, *rng.uniform(0.0, dab, size=4)):
                        c = t.point_on_geodesic(a, b, s)
                        assert abs(t.distance(a, c) - s) <= tol
                        assert abs(t.distance(c, b) - (dab - s)) <= tol
                        if hereditary:
                            assert t.order_path(a, c) and t.order_path(c, b)
    assert comparable > 100


def test_busemann_one_lipschitz_on_tree(rng):
    for _ in range(10):
        t = ml.random_tree(15, rng)
        pts = [t.canon(v) for v in t.vertices] + [
            t.canon(("ray", float(u))) for u in rng.uniform(0, 10, size=5)
        ]
        for a in pts:
            for b in pts:
                gap = abs(t.busemann(a) - t.busemann(b))
                assert gap <= t.distance(a, b) + 1e-9


def test_distance_is_metric_on_random_trees(rng):
    for _ in range(5):
        t = ml.random_tree(12, rng)
        pts = [t.canon(v) for v in t.vertices]
        n = len(pts)
        d = np.array([[t.distance(pts[i], pts[j]) for j in range(n)] for i in range(n)])
        assert np.allclose(d, d.T, atol=1e-12)
        assert np.all(np.diag(d) == 0)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_an_edge_point_has_one_form_from_either_end():
    # edges listed from either end; dyadic lengths and offsets make
    # length - offset exact, so the two forms name the same point exactly
    t = trees.RTree(
        vertices=["r", "p", "q", "e", "l"],
        edges=[("r", "p", 2.0), ("q", "p", 1.5), ("e", "q", 3.0), ("p", "l", 0.75)],
        root="r",
        end="e",
    )
    for u, v, length in t.edges:
        for off in (0.0, 0.25, length / 2, length - 0.25, length):
            a = t.canon(("edge", u, v, off))
            b = t.canon(("edge", v, u, length - off))
            assert a == b
            assert t.distance(a, b) == 0.0


def _oracle_points(t, rng, n_vertices, n_edges, n_rays):
    """Vertex ids, edge points named from both ends, and ray points inside
    and past the end of the ray."""
    pts = [t.vertices[int(i)] for i in rng.choice(len(t.vertices), n_vertices, replace=False)]
    for k in rng.choice(len(t.edges), n_edges, replace=False):
        u, v, length = t.edges[int(k)]
        off = float(rng.uniform(0.0, length))
        pts += [("edge", u, v, off), ("edge", v, u, length - off)]
    pts += [("ray", float(s)) for s in rng.uniform(0.0, t.ray_length + 3.0, size=n_rays)]
    return pts


def _assert_matches_path_oracle(t, pts):
    oracle = TreePathOracle(t, pts)
    for i, p in enumerate(pts):
        assert t.busemann(p) == pytest.approx(oracle.busemann(i), abs=1e-9)
        for j, q in enumerate(pts):
            d = oracle.distance(i, j)
            assert abs(t.distance(p, q) - d) <= 1e-9 * (1.0 + d)
            above = oracle.above(i, j)
            assert t.order_path(p, q) == above
            assert t.order_busemann(p, q) == above


def test_distance_busemann_and_order_match_a_path_walking_oracle(rng):
    for _ in range(30):
        t = ml.random_tree(int(rng.integers(2, 40)), rng)
        n_edges = min(len(t.edges), 4)
        _assert_matches_path_oracle(t, _oracle_points(t, rng, min(len(t.vertices), 6), n_edges, 4))


def test_a_2000_vertex_path_matches_the_path_walking_oracle(rng):
    # a path rooted at one end whose ray stops halfway: the far half hangs
    # below the ray's end, and every meet is a long climb
    n = 2000
    lengths = rng.uniform(0.5, 2.0, size=n - 1)
    t = trees.RTree(
        vertices=list(range(n)),
        edges=[(i, i + 1, float(lengths[i])) for i in range(n - 1)],
        root=0,
        end=n // 2,
    )
    _assert_matches_path_oracle(t, _oracle_points(t, rng, 8, 6, 4))
