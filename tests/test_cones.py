"""Pointed-cone geometry: membership, duality, projection, Moreau
decomposition, and monotone directions."""

import numpy as np
import pytest

import monolip as ml
from monolip import cones
from monolip.errors import NoDirectionError

from conftest import random_pointed_cone


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
    half = ml.ConeOrder(dim=2, halfspaces=cones.halfspace_form(gen))
    for _ in range(200):
        v = rng.normal(size=2) * 3
        assert ml.contains(gen, v) == ml.contains(half, v)
        assert ml.dual_contains(gen, v) == ml.dual_contains(half, v)


@pytest.mark.parametrize(
    "gens",
    [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 1.0]]],
    ids=["e1-e2-in-R3", "ray-in-R2"],
)
def test_halfspace_form_refuses_cones_that_do_not_span(gens):
    # Facet enumeration finds only +-e3 (or +-g_perp) here, which cut out a
    # plane (or a line) instead of the cone.
    assert cones.halfspace_form(ml.ConeOrder(dim=len(gens[0]), generators=gens)) is None


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
    half = ml.ConeOrder(dim=2, halfspaces=cones.halfspace_form(gen))
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


def test_monotone_direction_random_cones(rng):
    for _ in range(100):
        c = random_pointed_cone(rng)
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
