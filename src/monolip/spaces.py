"""Target spaces carrying an order-preserving geodesic ray and a monotone
Busemann function: Hilbert rays and the hyperbolic upper half-space, plus
the generic ray order and a limit-definition Busemann oracle.

The hyperbolic space is realized in the upper half-space model, where the
ray t -> (0, ..., 0, e^t) is a unit-speed geodesic and the Busemann
function is exactly -log(height); see README for why this model was chosen
over the hyperboloid presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones
from .cones import DEFAULT_TOL
from .errors import HypothesisError, NumericInstabilityError, StructureError

DEFAULT_T_SCHEDULE = tuple(10.0**k for k in range(1, 7))


@dataclass(frozen=True)
class BusemannValue:
    """A Busemann evaluation plus the horizon it was stopped at.

    ``horizon`` is the largest ray parameter used by a limit evaluation, or
    +inf for closed forms. ``partials`` exposes the convergence trace.
    """

    value: float
    horizon: float
    partials: tuple = ()


@dataclass(frozen=True, eq=False)
class HilbertRay:
    """R^dim ordered by a cone, with the geodesic ray t -> t*e.

    Requires e to be a unit vector lying in both the cone and its dual, so
    the ray is order-preserving and its Busemann function order-decreasing.
    """

    dim: int
    e: np.ndarray
    cone: cones.ConeOrder

    def __post_init__(self):
        e = np.asarray(self.e, dtype=float)
        if e.shape != (self.dim,):
            raise StructureError("direction must match the dimension")
        if abs(np.linalg.norm(e) - 1.0) > 1e-9:
            raise StructureError("direction must be a unit vector")
        if self.cone.dim != self.dim:
            raise StructureError("cone dimension mismatch")
        if not (cones.contains(self.cone, e, 1e-8) and cones.dual_contains(self.cone, e, 1e-8)):
            raise HypothesisError("direction must lie in the cone and its dual")
        object.__setattr__(self, "e", e)

    def check_point(self, a):
        a = np.asarray(a, dtype=float)
        if a.shape != (self.dim,):
            raise StructureError(f"point must have dimension {self.dim}")
        return a

    def distance(self, a, b):
        return float(np.linalg.norm(self.check_point(a) - self.check_point(b)))

    def ray_point(self, t):
        return float(t) * self.e

    def ray_gap(self, a, t):
        """d(a, sigma(t)) - t, evaluated in cancellation-free form."""
        a = self.check_point(a)
        if t == 0.0:
            return float(np.linalg.norm(a))
        # ||a - te|| - t = (||a||^2 - 2t<a,e>) / (||a - te|| + t)
        num = float(a @ a) - 2.0 * t * float(a @ self.e)
        den = float(np.linalg.norm(a - t * self.e)) + t
        return num / den

    def busemann(self, a):
        """Closed form B(a) = -<a, e>."""
        return -float(self.check_point(a) @ self.e)

    def order(self, a, b, tol=DEFAULT_TOL):
        return cones.contains(self.cone, self.check_point(a) - self.check_point(b), tol)

    def ray_param(self, a, tol=DEFAULT_TOL):
        """Parameter t with a = sigma(t), or None if a is off the ray."""
        a = self.check_point(a)
        t = float(a @ self.e)
        if t < -tol:
            return None
        if np.linalg.norm(a - t * self.e) > tol * (1.0 + abs(t)):
            return None
        return max(t, 0.0)


def hilbert_ray_from_cone(cone):
    """Hilbert ray along a monotone direction extracted from the cone."""
    e = cones.monotone_direction(cone)
    return HilbertRay(dim=cone.dim, e=e, cone=cone)


@dataclass(frozen=True)
class HalfSpaceHn:
    """Hyperbolic n-space in the upper half-space model.

    Points are vectors (x_1, ..., x_{n-1}, h) with height h > 0. The
    designated ray is t -> (0, ..., 0, e^t); two points are ordered iff
    they share horizontal coordinates and differ only in height.
    """

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise StructureError("hyperbolic dimension must be >= 2")

    def check_point(self, a):
        a = np.asarray(a, dtype=float)
        if a.shape != (self.n,):
            raise StructureError(f"point must have dimension {self.n}")
        if a[-1] <= 0.0:
            raise StructureError("height must be positive")
        return a

    def distance(self, a, b):
        """2 asinh(q), q = ||a - b|| / (2 sqrt(a_h b_h)): the value of
        arccosh(1 + 2 q^2) without its cancellation for close points.

        log q is taken from the halved difference, exact for normal floats
        and finite for any finite points, with its norm scaled by its
        largest entry as in ``ray_gap``; for q > 1, asinh(q) = log q +
        log1p(sqrt(1 + q^-2)). So no intermediate overflows.
        """
        a = self.check_point(a)
        b = self.check_point(b)
        half = a / 2.0 - b / 2.0
        scale = float(np.max(np.abs(half)))
        if scale == 0.0:
            return 0.0
        log_q = (
            math.log(scale)
            + 0.5 * math.log(float(np.sum((half / scale) ** 2)))
            - 0.5 * (math.log(float(a[-1])) + math.log(float(b[-1])))
        )
        if log_q <= 0.0:
            return 2.0 * math.asinh(math.exp(log_q))
        return 2.0 * (log_q + math.log1p(math.sqrt(1.0 + math.exp(-2.0 * log_q))))

    def ray_point(self, t):
        if t > 700.0:
            raise OverflowError("ray point height overflows; use ray_gap instead")
        p = np.zeros(self.n)
        p[-1] = math.exp(float(t))
        return p

    def ray_gap(self, a, t):
        """d(a, sigma(t)) - t without forming e^t, in logs.

        With w = ||a||^2, h the height and u = (w e^{-2t} + 1) / (2h), the
        gap is log(u + sqrt(u^2 - e^{-2t})) = log u + log1p(sqrt(1 - r)),
        r = e^{-2t} / u^2 <= 1. log w is taken with the norm scaled by
        max |a_i|, so no intermediate overflows for any finite point and
        any t >= 0.
        """
        a = self.check_point(a)
        t = float(t)
        scale = float(np.max(np.abs(a)))
        log_w = 2.0 * math.log(scale) + math.log(float(np.sum((a / scale) ** 2)))
        log_u = float(np.logaddexp(log_w - 2.0 * t, 0.0)) - math.log(2.0) - math.log(float(a[-1]))
        r = math.exp(-2.0 * (t + log_u))
        return log_u + math.log1p(math.sqrt(max(1.0 - r, 0.0)))

    def busemann(self, a):
        """Closed form B(a) = -log(height)."""
        return -math.log(float(self.check_point(a)[-1]))

    def order(self, a, b, tol=DEFAULT_TOL):
        a = self.check_point(a)
        b = self.check_point(b)
        return bool(np.all(np.abs(a[:-1] - b[:-1]) <= tol) and a[-1] >= b[-1] - tol)

    def ray_param(self, a, tol=DEFAULT_TOL):
        a = self.check_point(a)
        if np.any(np.abs(a[:-1]) > tol):
            return None
        t = math.log(float(a[-1]))
        return t if t >= -tol else None


def ray_order(space, a, b, tol=DEFAULT_TOL):
    """Order comparing only points on the designated ray by parameter;
    off-ray points are comparable only to themselves.

    On an ``RTree`` the on-ray test ignores ``tol``: ``RTree.ray_param``
    matches tree points by the fixed ``trees._POINT_EQ_TOL``. ``tol`` still
    loosens the distance test and the comparison of parameters there.
    """
    if space.distance(a, b) <= tol:
        return True
    pa = space.ray_param(a, tol)
    pb = space.ray_param(b, tol)
    return pa is not None and pb is not None and pa >= pb - tol


def busemann_limit(space, a, t_schedule=None, tol=DEFAULT_TOL):
    """Limit-definition Busemann evaluation d(a, sigma(T)) - T.

    Walks the increasing schedule, recording partial values, which must be
    non-increasing within tolerance (convexity of the Busemann function);
    returns the value at the largest T together with the full trace.
    """
    schedule = tuple(float(t) for t in (t_schedule or DEFAULT_T_SCHEDULE))
    if any(s >= t for s, t in zip(schedule, schedule[1:])):
        raise StructureError("t_schedule must be strictly increasing")
    partials = []
    for t in schedule:
        partials.append(float(space.ray_gap(a, t)))
        if not math.isfinite(partials[-1]):
            raise NumericInstabilityError(f"Busemann partial value at T={t} is not finite")
    for prev, cur in zip(partials, partials[1:]):
        if cur > prev + max(tol, 1e-12 * (1.0 + abs(prev))):
            raise NumericInstabilityError(
                f"Busemann partial values increased along the schedule: {partials}"
            )
    return BusemannValue(value=partials[-1], horizon=schedule[-1], partials=tuple(partials))
