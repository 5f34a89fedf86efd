"""Pointed-cone geometry: membership, duality, projection, Moreau
decomposition, and monotone directions."""

import numpy as np
import pytest

import monolip as ml
from monolip import cones
from monolip.errors import NoDirectionError

from conftest import facet_normals, random_pointed_cone


def ray_cone():
    return ml.ConeOrder(dim=2, generators=np.array([[1.0, 1.0]]))


def wedge_cone():
    return ml.ConeOrder(dim=2, generators=np.array([[1.0, 0.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# membership and duality
# ---------------------------------------------------------------------------


def test_contains_orthant():
    c = ml.orthant(2)
    assert ml.contains(c, [1.0, 2.0])
    assert not ml.contains(c, [-1.0, 0.0])


def test_contains_wedge():
    assert ml.contains(wedge_cone(), [2.0, 1.0])  # (2,1) = 1*(1,0) + 1*(1,1)
    assert not ml.contains(wedge_cone(), [0.0, 1.0])


def test_dual_contains():
    assert ml.dual_contains(ml.orthant(2), [1.0, 1.0])
    assert not ml.dual_contains(wedge_cone(), [0.0, -1.0])
    assert ml.dual_contains(wedge_cone(), [1.0, -1.0])


def test_halfspace_membership_matches_generated(rng):
    gen = wedge_cone()
    half = ml.ConeOrder(dim=2, halfspaces=facet_normals(gen.generators))
    for _ in range(200):
        v = rng.normal(size=2) * 3
        assert ml.contains(gen, v) == ml.contains(half, v)
        assert ml.dual_contains(gen, v) == ml.dual_contains(half, v)


def _membership_cases(rng):
    """(cone, rows, tol) on halfspace, generated and orthant cones in m = 1-4.

    With tol = 1/2 some rows lie exactly on the slack boundary: -e_c for
    the orthant (N v = -1, slack 1/2 (1 + 1) = 1), and -e_c / 2 for the
    cone with normals 1.5 e_c (N v = -0.75, slack 1/2 (1 + 1/2) = 0.75).
    """
    for m in range(1, 5):
        yield cones.orthant(m), rng.normal(size=(200, m)), 1e-9
        halfspaces = ml.ConeOrder(dim=m, halfspaces=rng.normal(size=(m + 1, m)))
        yield halfspaces, rng.normal(size=(200, m)), 1e-9
        yield cones.orthant(m), np.vstack([rng.normal(size=(50, m)), -np.eye(m)]), 0.5
        scaled = ml.ConeOrder(dim=m, halfspaces=1.5 * np.eye(m))
        yield scaled, np.vstack([rng.normal(size=(50, m)), -0.5 * np.eye(m)]), 0.5
    for m in (2, 3):
        gens = random_pointed_cone(rng, dim=m, n_gen=m + 1).generators
        generated = ml.ConeOrder(dim=m, generators=gens, halfspaces=facet_normals(gens))
        yield generated, rng.normal(size=(200, m)), 1e-9


def test_contains_many_matches_the_row_wise_reference(rng):
    boundary = 0
    for cone, V, tol in _membership_cases(rng):
        slack = tol * (1.0 + np.sqrt(np.vecdot(V, V)))
        want = np.all(V @ cone.halfspaces.T >= -slack[:, None], axis=1)
        assert np.array_equal(cones.contains_many(cone, V, tol), want)
        on_edge = np.any(V @ cone.halfspaces.T == -slack[:, None], axis=1)
        assert want[on_edge].all()
        boundary += int(on_edge.sum())
    assert boundary == 2 * sum(range(1, 5))
    # a cone given only by generators tests the distance to its projection
    for m in range(1, 5):
        cone = random_pointed_cone(rng, dim=m, n_gen=m + 1) if m > 1 else ml.ConeOrder(
            dim=1, generators=[[2.0]]
        )
        V = rng.normal(size=(100, m))
        slack = 1e-9 * (1.0 + np.sqrt(np.vecdot(V, V)))
        gap = V - cones.project_many(cone, V)
        want = np.sqrt(np.vecdot(gap, gap)) <= slack
        assert np.array_equal(cones.contains_many(cone, V), want)


def test_one_column_l2_norms_match_vecdot_bit_for_bit(rng):
    # squares that underflow included; both forms warn alike on overflow
    x = rng.normal(size=2000) * 10.0 ** rng.integers(-200, 150, size=2000)
    x = np.concatenate([x, [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -3.0, 7.5]])
    for V in (x[:, None], x[:1000].reshape(10, 100, 1)):
        got = cones.norm_many(V, "l2")
        want = np.sqrt(np.vecdot(V, V))
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not np.signbit(got).any()


def test_cone_keeps_its_own_copy_of_the_arrays():
    eye = np.eye(2)
    cone = ml.ConeOrder(dim=2, generators=eye, halfspaces=eye)
    assert ml.contains(cone, [1.0, 1.0])
    eye[:] = -np.eye(2)
    assert ml.contains(cone, [1.0, 1.0])
    assert not ml.contains(cone, [-1.0, 0.0])
    np.testing.assert_array_equal(ml.project_cone(cone, [1.0, -2.0]), [1.0, 0.0])
    np.testing.assert_array_equal(cone.halfspaces, np.eye(2))


def test_cone_arrays_are_read_only():
    cone = ml.orthant(2)
    with pytest.raises(ValueError):
        cone.halfspaces[0, 0] = -1.0
    with pytest.raises(ValueError):
        cone.generators[:] = 0.0
    assert ml.contains(cone, [1.0, 1.0])


def test_named_cones_are_shared():
    assert ml.orthant(2) is ml.orthant(2)
    assert ml.orthant(2) is ml.orthant(2, norm="l2")
    assert ml.orthant(2) is not ml.orthant(2, norm="l1")
    assert ml.scalar_cone() is ml.scalar_cone() is ml.orthant(1)
    assert ml.trivial_cone(3) is ml.trivial_cone(3)


# ---------------------------------------------------------------------------
# projection and Moreau decomposition
# ---------------------------------------------------------------------------


def test_project_orthant_clamps():
    np.testing.assert_allclose(
        ml.project_cone(ml.orthant(2), [1.0, -2.0]), [1.0, 0.0], atol=1e-12
    )


def test_project_idempotent_on_members(rng):
    c = random_pointed_cone(rng, dim=3, n_gen=4)
    v = np.abs(rng.normal(size=4)) @ c.generators
    np.testing.assert_allclose(ml.project_cone(c, v), v, atol=1e-8)


def test_project_single_ray():
    np.testing.assert_allclose(
        ml.project_cone(ray_cone(), [1.0, 0.0]), [0.5, 0.5], atol=1e-12
    )


def test_moreau_examples():
    split = ml.moreau_split(ml.orthant(2), [1.0, -2.0])
    np.testing.assert_allclose(split.part_cone, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(split.part_polar, [0.0, -2.0], atol=1e-12)

    split = ml.moreau_split(ray_cone(), [1.0, 0.0])
    np.testing.assert_allclose(split.part_cone, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(split.part_polar, [0.5, -0.5], atol=1e-12)
    assert abs(np.dot(split.part_cone, split.part_polar)) < 1e-12


def test_moreau_identities_random(rng):
    for _ in range(1000):
        c = random_pointed_cone(rng)
        a = rng.normal(size=c.dim) * 5
        split = ml.moreau_split(c, a)
        scale = 1.0 + np.linalg.norm(a)
        assert np.linalg.norm(a - split.part_cone - split.part_polar) <= 1e-8 * scale
        assert abs(np.dot(split.part_cone, split.part_polar)) <= 1e-8 * scale**2
        # part_polar lies in the polar cone: <part_polar, g> <= 0
        assert np.max(c.generators @ split.part_polar) <= 1e-8 * scale


def test_projection_is_1_lipschitz(rng):
    for _ in range(200):
        c = random_pointed_cone(rng)
        a, b = rng.normal(size=c.dim) * 4, rng.normal(size=c.dim) * 4
        pa, pb = ml.project_cone(c, a), ml.project_cone(c, b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-8


def test_projection_halfspace_form(rng):
    gen = wedge_cone()
    half = ml.ConeOrder(dim=2, halfspaces=facet_normals(gen.generators))
    for _ in range(100):
        a = rng.normal(size=2) * 3
        np.testing.assert_allclose(
            ml.project_cone(gen, a), ml.project_cone(half, a), atol=1e-7
        )


# ---------------------------------------------------------------------------
# pointedness
# ---------------------------------------------------------------------------


def test_is_pointed_examples():
    assert ml.is_pointed(ml.orthant(2))
    full_plane = ml.ConeOrder(
        dim=2, generators=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    )
    assert not ml.is_pointed(full_plane)
    halfplane = ml.ConeOrder(dim=2, halfspaces=np.array([[1.0, 0.0]]))
    assert not ml.is_pointed(halfplane)


# ---------------------------------------------------------------------------
# monotone direction
# ---------------------------------------------------------------------------


def test_monotone_direction_orthant():
    e = ml.monotone_direction(ml.orthant(2))
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-12
    assert ml.contains(ml.orthant(2), e) and ml.dual_contains(ml.orthant(2), e)


def test_monotone_direction_trivial_cone():
    with pytest.raises(NoDirectionError):
        ml.monotone_direction(ml.trivial_cone(2))


def test_monotone_direction_wedge():
    c = wedge_cone()
    e = ml.monotone_direction(c)
    assert ml.contains(c, e, 1e-8) and ml.dual_contains(c, e, 1e-8)


@pytest.mark.parametrize(
    "cone, expect",
    [
        (ml.ConeOrder(dim=2, generators=[[1, 0], [-1, 0], [0, 1], [0, -1]]), None),
        (ml.ConeOrder(dim=3, generators=[[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]]), None),
        (ml.ConeOrder(dim=2, halfspaces=[[0.0, 1.0], [0.0, -1.0]]), None),
        (ml.ConeOrder(dim=2, halfspaces=[[0.0, 1.0]]), [0.0, 1.0]),
    ],
    ids=["plane", "line-in-R3", "line-by-halfspaces", "half-plane"],
)
def test_monotone_direction_on_subspaces_and_a_half_plane(cone, expect):
    # A subspace C has C ∩ C* = {0}; the half-plane {y >= 0} is not pointed
    # but is not a subspace.
    if expect is None:
        with pytest.raises(NoDirectionError):
            ml.monotone_direction(cone)
    else:
        np.testing.assert_allclose(ml.monotone_direction(cone), expect, atol=1e-12)


def test_monotone_direction_random_cones(rng):
    pointed = [random_pointed_cone(rng) for _ in range(100)]
    high = [
        random_pointed_cone(rng, dim=d, n_gen=int(rng.integers(2, 2 * d)))
        for d in np.repeat(np.arange(9, 13), 3)
    ]
    # {x : Gx >= 0} for pointed cone(G): the dual cone, given by halfspaces only
    halfspace_only = [
        ml.ConeOrder(dim=c.dim, halfspaces=c.generators)
        for c in (random_pointed_cone(rng) for _ in range(50))
    ]
    for c in pointed + high + halfspace_only:
        e = ml.monotone_direction(c)
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-12
        assert ml.contains(c, e, 1e-7) and ml.dual_contains(c, e, 1e-7)


# ---------------------------------------------------------------------------
# induced dominance order
# ---------------------------------------------------------------------------


def test_dominance_is_a_partial_order(rng):
    for _ in range(50):
        c = random_pointed_cone(rng, dim=3)
        pts = rng.normal(size=(3, 3)) * 2
        for p in pts:
            assert cones.dominates(c, p, p)
        for i in range(3):
            for j in range(3):
                if i != j and cones.dominates(c, pts[i], pts[j], tol=1e-10):
                    # antisymmetry on generic (non-equal) points
                    assert not cones.dominates(c, pts[j], pts[i], tol=1e-10)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if cones.dominates(c, pts[i], pts[j], 1e-10) and cones.dominates(
                        c, pts[j], pts[k], 1e-10
                    ):
                        assert cones.dominates(c, pts[i], pts[k], 1e-7)
