"""Target spaces: Hilbert rays, hyperbolic half-space, and the limit
oracle for Busemann functions."""

import math

import numpy as np
import pytest

import monolip as ml
from monolip import spaces
from monolip.errors import HypothesisError, NumericInstabilityError, StructureError

from conftest import random_pointed_cone


def vertical_ray():
    return ml.HilbertRay(dim=2, e=np.array([0.0, 1.0]), cone=ml.orthant(2))


# ---------------------------------------------------------------------------
# Hilbert rays
# ---------------------------------------------------------------------------


def test_hilbert_busemann_closed_form():
    r = vertical_ray()
    assert r.busemann([3.0, 4.0]) == pytest.approx(-4.0, abs=1e-15)
    assert r.busemann([7.0, 0.0]) == pytest.approx(0.0, abs=1e-15)


def test_hilbert_limit_basepoint_zero_at_every_horizon():
    r = vertical_ray()
    lim = ml.busemann_limit(r, np.zeros(2))
    assert lim.value == pytest.approx(0.0, abs=1e-12)
    assert all(abs(p) <= 1e-12 for p in lim.partials)


def test_hilbert_limit_on_ray_is_exact():
    r = vertical_ray()
    a = r.ray_point(5.0)
    lim = ml.busemann_limit(r, a)
    # exact -t for every horizon T >= t
    assert all(p == pytest.approx(-5.0, abs=1e-9) for p in lim.partials)


def test_hilbert_limit_near_closed_form():
    r = vertical_ray()
    a = np.array([3.0, 4.0])
    lim = ml.busemann_limit(r, a, t_schedule=[10.0, 100.0, 10_000.0])
    assert lim.value == pytest.approx(-4.0, abs=1e-2)


def test_hilbert_limit_agreement_random(rng):
    for _ in range(50):
        cone = random_pointed_cone(rng, dim=3, n_gen=4)
        ray = spaces.hilbert_ray_from_cone(cone)
        a = rng.normal(size=3)
        a *= rng.uniform(0, 10) / max(np.linalg.norm(a), 1e-9)
        lim = ml.busemann_limit(ray, a)
        closed = ray.busemann(a)
        assert abs(lim.value - closed) <= 1e-4
        # error bound 10 * (1 + |a|^2) / T at each horizon
        for t, p in zip(spaces.DEFAULT_T_SCHEDULE, lim.partials):
            assert abs(p - closed) <= 10.0 * (1.0 + np.linalg.norm(a) ** 2) / t


def test_hilbert_ray_requires_monotone_direction():
    with pytest.raises(HypothesisError):
        ml.HilbertRay(dim=2, e=np.array([0.0, -1.0]), cone=ml.orthant(2))


# ---------------------------------------------------------------------------
# hyperbolic half-space
# ---------------------------------------------------------------------------


def test_hn_distance_examples():
    h = ml.HalfSpaceHn(2)
    assert h.distance([0.0, 1.0], [0.0, math.e]) == pytest.approx(1.0, abs=1e-12)
    assert h.distance([0.3, 2.0], [0.3, 2.0]) == 0.0
    assert h.distance([-1.0, 1.0], [1.0, 1.0]) == pytest.approx(
        math.acosh(3.0), abs=1e-12
    )


def test_hn_distance_triangle_inequality(rng):
    h = ml.HalfSpaceHn(3)
    for _ in range(200):
        pts = np.column_stack(
            [rng.normal(size=(3, 2)) * 2, rng.uniform(0.1, 10.0, size=3)]
        )
        d = lambda i, j: h.distance(pts[i], pts[j])
        assert d(0, 2) <= d(0, 1) + d(1, 2) + 1e-9


def test_hn_distance_of_far_apart_points_is_finite():
    # on one vertical line the distance is the log of the height ratio
    h = ml.HalfSpaceHn(2)
    assert h.distance([0.0, 1e300], [0.0, 1.0]) == pytest.approx(300 * math.log(10), rel=1e-14)
    assert h.distance([0.0, 1e-300], [0.0, 1e300]) == pytest.approx(600 * math.log(10), rel=1e-14)
    assert math.isfinite(h.distance([1e308, 1e-300], [-1e308, 1e-300]))


def test_hn_distance_of_close_points_does_not_cancel():
    # arccosh(1 + 5e-17) rounds to arccosh(1) = 0; 2 asinh(5e-9) does not
    h = ml.HalfSpaceHn(2)
    assert h.distance([1e-8, 1.0], [0.0, 1.0]) == pytest.approx(1e-8, rel=1e-12)
    assert not ml.ray_order(h, [1e-8, 1.0], [0.0, 1.0])


def test_hn_distance_agrees_with_the_arccosh_form(rng):
    h = ml.HalfSpaceHn(3)
    for _ in range(500):
        a, b = (np.append(rng.uniform(-3.0, 3.0, 2), rng.uniform(0.1, 5.0)) for _ in range(2))
        ref = math.acosh(1.0 + float(np.sum((a - b) ** 2)) / (2.0 * a[-1] * b[-1]))
        assert h.distance(a, b) == pytest.approx(ref, rel=1e-12)


def test_hn_rejects_nonpositive_height():
    h = ml.HalfSpaceHn(2)
    with pytest.raises(StructureError):
        h.distance([0.0, 0.0], [0.0, 1.0])


def test_hn_busemann_examples():
    h = ml.HalfSpaceHn(3)
    assert h.busemann([0.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    for t in (0.0, 1.5, 7.0):
        assert h.busemann(h.ray_point(t)) == pytest.approx(-t, abs=1e-12)


def test_hn_order_examples():
    h = ml.HalfSpaceHn(2)
    assert h.order([0.0, 2.0], [0.0, 1.0])
    assert not h.order([1.0, 2.0], [0.0, 1.0])
    assert not h.order([0.0, 1.0], [0.0, 2.0])


def test_hn_limit_agreement(rng):
    h = ml.HalfSpaceHn(3)
    schedule = [10.0, 100.0, 1000.0, 10_000.0]
    for _ in range(50):
        a = np.append(rng.normal(size=2) * 3, rng.uniform(0.1, 10.0))
        lim = ml.busemann_limit(h, a, t_schedule=schedule)
        assert abs(lim.value - h.busemann(a)) <= 1e-4


@pytest.mark.parametrize("point", [[0.0, 1e300], [1e300, 1e-300], [3e307, 1.7e308], [0.0, 1e-300]])
def test_hn_limit_at_extreme_coordinates_is_finite(point):
    # the gap is taken in logs with a scaled norm, so ||a||^2 never overflows
    h = ml.HalfSpaceHn(2)
    lim = ml.busemann_limit(h, point)
    assert all(math.isfinite(v) for v in lim.partials)
    if point[0] == 0.0:  # on the ray's vertical line the limit is exact
        assert lim.value == pytest.approx(h.busemann(point), rel=1e-12)


def test_busemann_limit_refuses_a_partial_that_is_not_finite():
    class Overflowing:
        def ray_gap(self, a, t):
            return math.inf if t > 100.0 else 0.0

    with pytest.raises(NumericInstabilityError, match="not finite"):
        ml.busemann_limit(Overflowing(), None)


# ---------------------------------------------------------------------------
# ray order (points comparable only along the designated ray)
# ---------------------------------------------------------------------------


def test_ray_order_on_ray():
    r = vertical_ray()
    assert ml.ray_order(r, r.ray_point(2.0), r.ray_point(1.0))
    assert not ml.ray_order(r, r.ray_point(1.0), r.ray_point(2.0))


def test_ray_order_off_ray_only_self_comparable():
    r = vertical_ray()
    off = np.array([1.0, 1.0])
    assert not ml.ray_order(r, off, r.ray_point(1.0))
    assert not ml.ray_order(r, r.ray_point(1.0), off)
    assert ml.ray_order(r, off, off)


# ---------------------------------------------------------------------------
# order-theoretic properties shared by all spaces
# ---------------------------------------------------------------------------


def _random_space_points(rng, space):
    if isinstance(space, ml.HilbertRay):
        pts = [rng.normal(size=space.dim) * 3 for _ in range(40)]
    else:
        pts = [
            np.append(rng.normal(size=space.n - 1) * 2, rng.uniform(0.1, 10.0))
            for _ in range(40)
        ]
    return pts


@pytest.mark.parametrize("which", ["hilbert", "halfspace"])
def test_busemann_is_order_decreasing_and_ray_monotone(rng, which):
    if which == "hilbert":
        space = vertical_ray()
        comparable = []
        for _ in range(10_000):
            b = rng.normal(size=2) * 3
            a = b + np.abs(rng.normal(size=2))  # a >= b coordinatewise
            comparable.append((a, b))
    else:
        space = ml.HalfSpaceHn(2)
        comparable = []
        for _ in range(10_000):
            x = rng.normal() * 2
            h1, h2 = sorted(rng.uniform(0.1, 10.0, size=2))
            comparable.append((np.array([x, h2]), np.array([x, h1])))
    for a, b in comparable:
        assert space.busemann(a) <= space.busemann(b) + 1e-9
    for _ in range(100):
        s, t = sorted(rng.uniform(0.0, 20.0, size=2))
        assert space.order(space.ray_point(t), space.ray_point(s))


@pytest.mark.parametrize("which", ["hilbert", "halfspace"])
def test_busemann_is_1_lipschitz(rng, which):
    space = vertical_ray() if which == "hilbert" else ml.HalfSpaceHn(2)
    pts = _random_space_points(rng, space)
    for _ in range(300):
        a, b = pts[rng.integers(len(pts))], pts[rng.integers(len(pts))]
        gap = abs(space.busemann(a) - space.busemann(b))
        assert gap <= space.distance(a, b) + 1e-9
