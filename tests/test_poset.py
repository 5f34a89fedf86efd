"""Metric-poset validation, the bullet relation, and radiality checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import monolip as ml
from monolip import files, poset as poset_mod
from monolip.errors import SizeCapError, StructureError

from conftest import naive_radiality_witnesses, random_metric_poset


def _poset(dist, order, labels=None):
    dist = np.asarray(dist, dtype=float)
    labels = labels or tuple(str(i) for i in range(dist.shape[0]))
    return ml.FiniteMetricPoset(labels=labels, dist=dist, order=frozenset(order))


WITNESS_POINTS = [(1.0, -2.0), (0.0, 0.0), (0.0, -1.0)]


def witness_poset():
    return ml.poset_from_points(WITNESS_POINTS, ml.orthant(2))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_one_point_trivial_order():
    p = _poset([[0.0]], {(0, 0)})
    assert ml.validate(p).ok


def test_validate_zero_distance_distinct_points():
    p = _poset([[0, 0], [0, 0]], {(0, 0), (1, 1)})
    kinds = {v.kind for v in ml.validate(p).violations}
    assert "identity of indiscernibles" in kinds


def test_validate_missing_transitive_pair():
    order = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}  # missing (0, 2)
    p = _poset([[0, 1, 2], [1, 0, 1], [2, 1, 0]], order)
    report = ml.validate(p)
    assert any(
        v.kind == "transitivity" and tuple(v.indices) == (0, 2)
        for v in report.violations
    )


def test_validate_triangle_and_symmetry_and_antisymmetry():
    p = _poset(
        [[0, 1, 10], [1, 0, 1], [10, 1, 0]],
        {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)},
    )
    kinds = {v.kind for v in ml.validate(p).violations}
    assert "triangle inequality" in kinds
    assert "antisymmetry" in kinds


def test_structural_errors_raise():
    with pytest.raises(StructureError):
        _poset([[0, 1]], {(0, 0)})  # non-square
    with pytest.raises(StructureError):
        _poset([[0, 1], [1, 0]], {(0, 5)})  # out-of-range pair


# ---------------------------------------------------------------------------
# bullet relation
# ---------------------------------------------------------------------------


def test_bullet_reflexive_pair_is_false():
    p = witness_poset()
    assert not ml.bullet(p, 0, 0)


def test_bullet_incomparable_both_ways():
    p = witness_poset()  # (1,-2) and (0,0) are incomparable coordinatewise
    assert ml.bullet(p, 0, 1) and ml.bullet(p, 1, 0)


def test_bullet_strict_dominance():
    p = witness_poset()  # (0,0) > (0,-1)
    assert ml.bullet(p, 1, 2) and not ml.bullet(p, 2, 1)


# ---------------------------------------------------------------------------
# radiality
# ---------------------------------------------------------------------------


def test_trivial_order_is_radial(rng):
    n = 8
    pts = rng.normal(size=(n, 3))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    p = _poset(dist, {(i, i) for i in range(n)})
    assert ml.check_radiality(p) is None


def test_witness_instance_rd1():
    w = ml.check_radiality(witness_poset())
    assert w is not None and w.kind == "RD1"
    assert w.triple == (0, 1, 2)
    assert w.lhs == pytest.approx(math.sqrt(2), abs=1e-12)
    assert w.rhs == pytest.approx(math.sqrt(5), abs=1e-12)
    assert w.ratio == pytest.approx(math.sqrt(2.5), abs=1e-12)


def test_linear_order_chain_is_radial():
    assert ml.check_radiality(ml.chain_instance([0.0, 1.0, 3.0])) is None


def test_witness_is_lexicographically_first():
    p = witness_poset()
    first = ml.check_radiality(p)
    all_witnesses = list(ml.iter_radiality_witnesses(p))
    key = lambda w: (w.kind, w.triple)
    assert first == min(all_witnesses, key=key)


def test_triple_cap_refuses():
    p = ml.chain_instance(np.arange(11.0))
    with pytest.raises(SizeCapError):
        ml.check_radiality(p, triple_cap=1000)


def test_radiality_implies_radial_convexity(rng):
    for _ in range(20):
        p = random_metric_poset(rng, max_points=10)
        rep = ml.radiality_report(p)
        if rep.radial:
            assert rep.radially_convex


def test_linear_order_radial_iff_radially_convex(rng):
    """On totally ordered subsets of the real line with arbitrary
    symmetric distances, the two notions coincide."""
    for _ in range(30):
        n = int(rng.integers(3, 7))
        pos = np.sort(rng.uniform(0, 10, size=n))
        if rng.random() < 0.5:
            dist = np.abs(pos[:, None] - pos[None, :])  # radially convex
        else:
            dist = rng.uniform(1.0, 2.0, size=(n, n))
            dist = (dist + dist.T) / 2
            np.fill_diagonal(dist, 0.0)
        order = {(i, j) for i in range(n) for j in range(n) if pos[i] >= pos[j]}
        p = _poset(dist, order)
        rep = ml.radiality_report(p)
        assert rep.radial == rep.radially_convex


def test_check_radiality_matches_naive_oracle(rng):
    for _ in range(50):
        p = random_metric_poset(rng, max_points=12)
        naive = naive_radiality_witnesses(p)
        ours = [
            (w.kind, w.triple, w.lhs, w.rhs) for w in ml.iter_radiality_witnesses(p)
        ]
        assert sorted(naive) == sorted(ours)
        assert (ml.check_radiality(p) is None) == (not naive)


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def test_grid_1d_is_chain():
    p = ml.grid_instance(1, 3, 1.0, ml.orthant(1))
    assert p.n == 3
    assert ml.validate(p).ok
    comparable = {(i, j) for i, j in p.order if i != j}
    assert comparable == {(1, 0), (2, 0), (2, 1)}


def test_grid_2x2_coordinatewise_order_pairs():
    p = ml.grid_instance(2, 2, 1.0, ml.orthant(2))
    labels = {tuple(float(c) for c in lab.split(",")): i for i, lab in enumerate(p.labels)}
    pairs = {
        ((1, 1), (0, 0)),
        ((1, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((1, 1), (1, 0)),
        ((1, 1), (0, 1)),
    }
    expected = {(labels[a], labels[b]) for a, b in pairs}
    got = {(i, j) for i, j in p.order if i != j}
    assert got == expected


def test_point_labels_match_per_coordinate_format():
    rows = [
        [-0.0, 1e-5, 3.0],
        [1e16, 5e-324, -2.0],
        [2.2250738585072014e-308 / 3.0, 1.0 / 3.0, 123456789.0],
        [-1e-300, 7.0, 1e21],
    ]
    for m in (1, 2, 3):
        pts = np.array([r[:m] for r in rows])
        p = ml.poset_from_points(pts, ml.orthant(m))
        assert p.labels == tuple(",".join(format(c, "g") for c in row) for row in pts)


def test_grid_trivial_cone_gives_trivial_order():
    p = ml.grid_instance(2, 2, 1.0, ml.trivial_cone(2))
    assert {(i, j) for i, j in p.order} == {(i, i) for i in range(4)}


def test_grid_order_is_a_partial_order(rng):
    from conftest import random_pointed_cone

    cone = random_pointed_cone(rng, dim=2, n_gen=3)
    p = ml.grid_instance(2, 3, 1.0, cone)
    assert ml.validate(p).ok


def test_grid_size_cap():
    with pytest.raises(SizeCapError):
        ml.grid_instance(3, 20, 1.0, ml.orthant(3), size_cap=100)


# ---------------------------------------------------------------------------
# the stored order: one boolean matrix, pairs derived on first read
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chain=st.booleans())
def test_matrix_and_pair_inputs_give_the_same_poset(seed, chain):
    rng = np.random.default_rng(seed)
    if chain:
        p = ml.chain_instance(np.round(rng.uniform(-8.0, 8.0, size=int(rng.integers(1, 15))), 1))
    else:
        p = random_metric_poset(rng, max_points=12)
    n = p.n
    expected = {(i, j) for i in range(n) for j in range(n) if p.order_matrix[i, j]}
    from_matrix = ml.FiniteMetricPoset(p.labels, p.dist, p.order_matrix)
    from_pairs = ml.FiniteMetricPoset(p.labels, p.dist, sorted(p.order))
    for q in (from_matrix, from_pairs):
        assert isinstance(q.order, frozenset) and q.order == expected
        assert all(type(i) is int and type(j) is int for i, j in q.order)
        np.testing.assert_array_equal(q.order_matrix, p.order_matrix)
        assert not q.order_matrix.flags.writeable
        for i in range(-1, n + 1):
            for j in range(-1, n + 1):
                assert q.geq(i, j) is ((i, j) in expected)
                assert q.bullet(i, j) is ((j, i) not in expected)
    assert ml.validate(from_matrix) == ml.validate(from_pairs)
    assert ml.check_radiality(from_matrix) == ml.check_radiality(from_pairs)
    assert poset_mod.max_ratio_witness(from_matrix) == poset_mod.max_ratio_witness(from_pairs)
    text = json.dumps(files.poset_to_dict(from_matrix))
    assert text == json.dumps(files.poset_to_dict(from_pairs))
    assert json.loads(text)["order"] == sorted([i, j] for i, j in expected)
    back = files.poset_from_dict(json.loads(text))
    assert back.order == expected
    np.testing.assert_array_equal(back.order_matrix, p.order_matrix)


def test_order_pairs_are_built_only_when_read():
    p = witness_poset()
    ml.validate(p)
    ml.check_radiality(p)
    problem = ml.ExtensionProblem(
        domain=p, subset=(0, 1), target=ml.scalar_cone(), f=[[math.sqrt(5.0)], [0.0]]
    )
    ml.scalar_extend(problem)
    assert "order" not in vars(p)
    assert p.order == {(0, 0), (1, 1), (2, 2), (1, 2)}
    assert "order" in vars(p)


def test_order_matrix_input_is_checked_and_copied():
    g = np.eye(2, dtype=bool)
    p = ml.FiniteMetricPoset(("a", "b"), [[0, 1], [1, 0]], g)
    g[0, 1] = True
    assert not p.geq(0, 1)
    with pytest.raises(StructureError, match="n x n"):
        ml.FiniteMetricPoset(("a", "b"), [[0, 1], [1, 0]], np.eye(3, dtype=bool))
    with pytest.raises(StructureError, match=r"\(i, j\) pairs"):
        _poset([[0, 1], [1, 0]], {(0, 0, 1)})
