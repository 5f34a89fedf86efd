"""Pointed convex cones in R^m: membership, projection, Moreau splits,
and a monotone direction in C ∩ C* from two projections, no facet form.

A cone is described by generators (conic hull of finitely many vectors),
by halfspaces (intersection of homogeneous halfspaces), or both. The inner
product is always the standard Euclidean one; the ``norm`` tag is carried
for the benefit of Lipschitz constraints elsewhere and never affects the
geometry here.

Membership and projection run on (k, m) arrays of row vectors
(``contains_many``, ``project_many``); ``contains`` and ``project_cone``
are their one-row forms.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoDirectionError, NumericInstabilityError, StructureError

NORMS = ("l1", "l2", "linf")

#: Default absolute tolerance of the order and metric checks; the other
#: modules import it from here.
DEFAULT_TOL = 1e-9


def norm_many(V, tag):
    """Norms of the rows of ``V`` (any (..., m) array) under a norm tag."""
    V = np.asarray(V, dtype=float)
    if tag == "l1":
        return np.sum(np.abs(V), axis=-1)
    if tag == "l2":
        if V.shape[-1] == 1:
            # a one-term dot product is the rounded square itself, so this
            # is vecdot's result without its per-row calls
            return np.sqrt(np.square(V[..., 0]))
        # vecdot takes the same dot product as np.linalg.norm of a single
        # vector, so batched and one-row norms agree bit for bit.
        return np.sqrt(np.vecdot(V, V))
    if tag == "linf":
        return np.max(np.abs(V), axis=-1, initial=0.0)
    raise StructureError(f"unknown norm tag {tag!r}")


def norm_value(v, tag):
    """Norm of ``v`` under one of the supported tags."""
    return float(norm_many(v, tag))


@dataclass(frozen=True, eq=False)
class ConeOrder:
    """A pointed convex cone plus the norm tag of its ambient space.

    At least one of ``generators`` / ``halfspaces`` must be given. An empty
    generator list describes the trivial cone {0} (the trivial order). The
    cone keeps read-only copies of both arrays, so writes to the caller's
    arrays do not reach it, and its derived kind stays true.
    """

    dim: int
    generators: np.ndarray | None = None
    halfspaces: np.ndarray | None = None
    norm: str = "l2"

    def __post_init__(self):
        if self.dim < 1:
            raise StructureError("cone dimension must be positive")
        if self.norm not in NORMS:
            raise StructureError(f"norm must be one of {NORMS}")
        if self.generators is None and self.halfspaces is None:
            raise StructureError("need generators or halfspaces")
        for name in ("generators", "halfspaces"):
            arr = getattr(self, name)
            if arr is None:
                continue
            # a copy: the cone must not follow later writes to the caller's array
            arr = np.array(arr, dtype=float, ndmin=2)
            if arr.size == 0:
                arr = arr.reshape(0, self.dim)
            if arr.shape[1] != self.dim:
                raise StructureError(f"{name} rows must have length {self.dim}")
            if not np.isfinite(arr).all():
                raise StructureError(f"{name} entries must be finite")
            if name == "halfspaces" and arr.shape[0] and np.any(
                np.linalg.norm(arr, axis=1) == 0.0
            ):
                raise StructureError("zero halfspace normal")
            if name == "generators":
                arr = arr[np.linalg.norm(arr, axis=1) > 0.0]
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def _kind(self):
        # Worked out on first use: for a halfspace-only cone it runs NNLS.
        return _kernel_kind(self)

    @functools.cached_property
    def _line_signs(self):
        # [1 in C, -1 in C] for a cone in R^1, as the scalar route asks
        signs = contains_many(self, [[1.0], [-1.0]])
        signs.setflags(write=False)
        return signs

    @property
    def is_trivial(self):
        return self._kind == "trivial"


def _kernel_kind(cone):
    """The projection route of the batched kernel for this cone.

    "trivial" is the cone {0}: no generators, or halfspace normals that
    positively span R^m. "orthant" is a cone every given form of which is
    positive multiples of the standard basis (projection clamps). "ray" is
    any other cone given by one nonzero generator (projection in closed
    form). The rest are "generated" or "halfspace" (both NNLS, see
    ``project_many``).
    """
    if cone.generators is not None:
        if cone.generators.shape[0] == 0:
            return "trivial"
    elif _positively_spans(cone.halfspaces):
        return "trivial"
    forms = [a for a in (cone.generators, cone.halfspaces) if a is not None]
    if all(_is_scaled_basis(a) for a in forms):
        return "orthant"
    if cone.generators is not None and cone.generators.shape[0] == 1:
        return "ray"
    return "generated" if cone.generators is not None else "halfspace"


def _positively_spans(normals):
    """True iff every vector of R^m is a conic combination of the rows.

    Then {x : Nx >= 0} = {0}. It suffices that each of +-e_i is one.
    """
    eye = np.eye(normals.shape[1])
    return all(_nnls_fit(normals, v)[1] <= DEFAULT_TOL for v in np.vstack([eye, -eye]))


def _is_scaled_basis(rows):
    """True iff the rows are positive multiples of e_1..e_m, each once."""
    nonzero = rows != 0.0
    return (
        rows.shape[0] == rows.shape[1]
        and bool(np.all(rows >= 0.0))
        and bool(np.all(nonzero.sum(axis=0) == 1))
        and bool(np.all(nonzero.sum(axis=1) == 1))
    )


# The named cones below return one shared, read-only instance per
# (dim, norm), so their kind and other derived constants are worked out once.


def orthant(dim, norm="l2"):
    """The nonnegative orthant in R^dim (coordinatewise order)."""
    if dim < 1:  # np.eye would raise ValueError on a negative size
        raise StructureError("cone dimension must be positive")
    return _orthant(dim, norm)


@functools.cache
def _orthant(dim, norm):
    eye = np.eye(dim)
    return ConeOrder(dim=dim, generators=eye, halfspaces=eye, norm=norm)


def trivial_cone(dim, norm="l2"):
    """The cone {0}, inducing the trivial order."""
    if dim < 1:  # np.zeros would raise ValueError on a negative size
        raise StructureError("cone dimension must be positive")
    return _trivial_cone(dim, norm)


@functools.cache
def _trivial_cone(dim, norm):
    return ConeOrder(dim=dim, generators=np.zeros((0, dim)), norm=norm)


def scalar_cone(norm="l2"):
    """The nonnegative ray in R^1: the usual order on the reals."""
    return _orthant(1, norm)


def _nnls_fit(generators, v):
    """Best conic-combination approximation of v; returns (point, residual)."""
    from scipy.optimize import lsq_linear, nnls

    v = np.asarray(v, dtype=float)
    if generators.shape[0] == 0:
        return np.zeros_like(v), float(np.linalg.norm(v))
    basis = generators.T
    coeffs, _ = nnls(basis, v)
    point = basis @ coeffs
    gap = v - point
    # The active-set NNLS occasionally misconverges (and then reports a
    # wrong residual), so verify the projection's KKT conditions —
    # <v - p, g> <= 0 for every generator and <v - p, p> = 0 — and fall
    # back to bounded least squares when they fail.
    scale = 1.0 + np.linalg.norm(v)
    slack = 1e-9 * scale * (1.0 + np.linalg.norm(generators, axis=1))
    if np.any(generators @ gap > slack) or abs(gap @ point) > 1e-9 * scale**2:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            alt = lsq_linear(basis, v, bounds=(0.0, np.inf), tol=1e-14)
        candidate = basis @ alt.x
        if np.linalg.norm(v - candidate) <= np.linalg.norm(gap):
            point, gap = candidate, v - candidate
    return point, float(np.linalg.norm(gap))


def _rows(cone, V):
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != cone.dim:
        raise StructureError(f"vectors must be rows of dimension {cone.dim}")
    return V


def _one_row(cone, v):
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.dim,):
        raise StructureError(f"vector must have dimension {cone.dim}")
    return v[None, :]


def contains_many(cone, V, tol=DEFAULT_TOL):
    """Cone membership of each row of the (k, m) array ``V``.

    A cone with a halfspace form N tests the worst violation,
    min(N v) >= -tol (1 + |v|). Otherwise v is a member iff its distance
    to its projection is at most tol (1 + |v|).

    The halfspace test reduces along the long axis: N V^T holds one row of
    k values per normal, and the few rows are ANDed elementwise, rather
    than each of the k rows of V N^T being reduced over its few entries.
    """
    V = _rows(cone, V)
    return _contains_rows(cone, V, norm_many(V, "l2"), tol)


def _contains_rows(cone, V, lengths, tol):
    """``contains_many`` on checked rows whose L2 norms ``lengths`` the
    caller already holds."""
    slack = tol * (1.0 + lengths)
    if cone.halfspaces is not None:
        return (cone.halfspaces @ V.T >= -slack).all(axis=0)
    return norm_many(V - project_many(cone, V), "l2") <= slack


def contains(cone, v, tol=DEFAULT_TOL):
    """Cone membership test; ``dominates(x, y)`` is ``contains(x - y)``."""
    return bool(contains_many(cone, _one_row(cone, v), tol)[0])


def dominates(cone, x, y, tol=DEFAULT_TOL):
    """x >= y in the vector order induced by the cone."""
    return contains(cone, np.asarray(x, dtype=float) - np.asarray(y, dtype=float), tol)


def dual_contains(cone, v, tol=DEFAULT_TOL):
    """Membership in the dual cone C* = {v : <v, c> >= 0 for all c in C}.

    For a generated cone this is a sign check against the generators. For a
    halfspace cone C = {x : Nx >= 0} we use C* = cone(rows of N) directly.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (cone.dim,):
        raise StructureError(f"vector must have dimension {cone.dim}")
    if cone.generators is not None:
        if cone.generators.shape[0] == 0:
            return True  # dual of {0} is everything
        gnorm = np.linalg.norm(cone.generators, axis=1)
        slack = tol * (1.0 + np.linalg.norm(v)) * (1.0 + gnorm)
        return bool(np.all(cone.generators @ v >= -slack))
    _, resid = _nnls_fit(cone.halfspaces, v)
    return resid <= tol * (1.0 + np.linalg.norm(v))


def project_many(cone, V):
    """Euclidean metric projection of each row of the (k, m) array ``V``.

    The trivial cone maps to 0 and the orthant (or scalar ray) clamps. A
    ray cone(g) maps v to max(<v, g>, 0) g / <g, g>. Other cones go row by
    row through nonnegative least squares: on the generators, or, for a
    halfspace cone C = {x : Nx >= 0}, by Moreau as P_C(v) = v - P_cone(-N)(v),
    since cone(-N) is the polar of C.
    """
    V = _rows(cone, V)
    if cone._kind == "trivial":
        return np.zeros_like(V)
    if cone._kind == "orthant":
        return np.maximum(V, 0.0)
    if cone._kind == "ray":
        # vecdot takes each row's dot product on its own, so a row projects
        # bit for bit the same in any batch.
        g = cone.generators[0]
        return np.maximum(np.vecdot(V, g), 0.0)[:, None] * (g / (g @ g))[None, :]
    if cone._kind == "generated":
        rows = [_nnls_fit(cone.generators, v)[0] for v in V]
    else:
        rows = [v - _nnls_fit(-cone.halfspaces, v)[0] for v in V]
    return np.array(rows).reshape(V.shape)


def project_cone(cone, a):
    """Euclidean metric projection of ``a`` onto the cone."""
    return project_many(cone, _one_row(cone, a))[0]


@dataclass(frozen=True, eq=False)
class MoreauSplit:
    """Orthogonal decomposition a = part_cone + part_polar."""

    part_cone: np.ndarray
    part_polar: np.ndarray


def moreau_split(cone, a):
    """Moreau decomposition of ``a`` against the cone and its polar."""
    a = np.asarray(a, dtype=float)
    p = project_cone(cone, a)
    return MoreauSplit(part_cone=p, part_polar=a - p)


def is_pointed(cone, tol=DEFAULT_TOL):
    """True iff C ∩ -C = {0}.

    Generated form: the cone contains a line iff the negative of some
    generator with positive weight in a vanishing conic combination lies in
    the cone, so checking -g against C for every generator g suffices.
    Halfspace form: pointed iff the normals span the ambient space.
    """
    if cone.generators is not None:
        for g in cone.generators:
            if np.linalg.norm(g) <= tol:
                continue
            if contains(cone, -g, tol):
                return False
        return True
    if cone.halfspaces.shape[0] == 0:
        return cone.dim == 0
    return int(np.linalg.matrix_rank(cone.halfspaces, tol=1e-10)) == cone.dim


def monotone_direction(cone, tol=DEFAULT_TOL):
    """A unit vector e in C ∩ C*, from two projections (Moreau's decomposition).

    Candidates a lie in C*: a = g + P_C(-g) = P_C*(g) for each unit generator
    g, or each unit halfspace normal. Then b = P_C(a) lies in C ∩ C*. A g off
    the lineality space of C has <a, g> = |g|^2 - |P_C(-g)|^2 > 0, so b != 0;
    so does a normal not orthogonal to C. The first b with |b| > tol gives
    e = b / |b|. ``NoDirectionError`` is raised exactly when C is {0} or a
    subspace, where C ∩ C* = {0}; ``NumericInstabilityError`` if e fails its
    membership checks at 10 tol.
    """
    if cone.generators is not None:
        candidates = (g + project_cone(cone, -g) for g in _unit_rows(cone.generators))
    else:
        candidates = _unit_rows(cone.halfspaces)
    for a in candidates:
        b = project_cone(cone, a)
        nb = np.linalg.norm(b)
        if nb <= tol:
            continue
        e = b / nb
        if not (contains(cone, e, 10 * tol) and dual_contains(cone, e, 10 * tol)):
            raise NumericInstabilityError(f"monotone direction {e} fails its cone check")
        return e
    raise NoDirectionError("a cone that is {0} or a subspace has no monotone direction")


def _unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1)[:, None]
