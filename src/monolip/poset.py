"""Finite partially ordered metric spaces.

Holds the domain object of every extension problem: a list of labelled
points, a distance matrix, and a partial order stored as a boolean matrix
(index pairs are accepted and converted). Provides axiom validation, the
strict-or-incomparable relation, radiality checking with witness
extraction, and a lattice instance generator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .errors import SizeCapError, StructureError

DEFAULT_TOL = 1e-9

#: Refuse triple enumerations beyond this many triples unless overridden.
DEFAULT_TRIPLE_CAP = 10**6

#: Largest block of the radiality witness enumeration, in triples. Larger
#: blocks save little time and leave larger temporaries behind in the heap.
SCAN_BLOCK = 1 << 16


@dataclass(frozen=True, init=False)
class FiniteMetricPoset:
    """Points with a distance matrix and a partial order.

    The order is stored once, as the read-only boolean ``order_matrix``
    (G[i, j] iff point i >= point j; ``validate`` checks the reflexive
    pairs). The constructor takes ``order`` as that (n, n) boolean array or
    as index pairs (i, j); the pair set ``order`` is derived on first read.
    """

    labels: tuple
    dist: np.ndarray
    order_matrix: np.ndarray = field(repr=False)

    def __init__(self, labels, dist, order):
        object.__setattr__(self, "labels", tuple(labels))
        d = np.asarray(dist, dtype=float)
        n = self.n
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise StructureError("distance matrix must be square")
        if d.shape[0] != n:
            raise StructureError("distance matrix size must match labels")
        if not np.isfinite(d).all():
            raise StructureError("distances must be finite")
        if isinstance(order, np.ndarray) and order.dtype == bool:
            if order.shape != (n, n):
                raise StructureError("order matrix must be n x n")
            g = order.copy()
        else:
            for pair in order:
                # booleans, floats and strings are not indices
                if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in pair):
                    raise StructureError(f"order entries must be integer pairs, got {pair!r}")
            flat = np.fromiter(itertools.chain.from_iterable(order), dtype=np.int64)
            if flat.size != 2 * len(order):
                raise StructureError("order entries must be (i, j) pairs")
            rows, cols = flat.reshape(-1, 2).T
            outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
            if outside.any():
                k = int(np.argmax(outside))
                raise StructureError(f"order pair ({rows[k]}, {cols[k]}) out of range")
            g = np.zeros((n, n), dtype=bool)
            g[rows, cols] = True
        g.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "order_matrix", g)

    @functools.cached_property
    def order(self):
        """The order as a frozenset of index pairs (i, j) with i >= j."""
        return frozenset(map(tuple, np.argwhere(self.order_matrix).tolist()))

    @property
    def n(self):
        return len(self.labels)

    def geq(self, i, j):
        return bool(0 <= i < self.n and 0 <= j < self.n and self.order_matrix[i, j])

    def bullet(self, i, j):
        """i >=* j: strict dominance or incomparability (not j >= i)."""
        return not self.geq(j, i)


def bullet(poset, x, y):
    return poset.bullet(x, y)


@dataclass(frozen=True)
class Violation:
    kind: str
    indices: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return len(self.violations) == 0


def validate(poset, tol=DEFAULT_TOL):
    """Check every metric and partial-order axiom; report all violations."""
    d = poset.dist
    n = poset.n
    out = []
    for i in np.flatnonzero(np.abs(np.diag(d)) > tol).tolist():
        out.append(Violation("zero-diagonal", (i,), f"d({i},{i}) = {d[i, i]}"))
    iu, ju = np.triu_indices(n, 1)
    upper, lower = d[iu, ju], d[ju, iu]
    asym = np.abs(upper - lower) > tol
    ident = upper <= tol
    neg = (upper < -tol) | (lower < -tol)
    for p in np.flatnonzero(asym | ident | neg).tolist():
        i, j = int(iu[p]), int(ju[p])
        if asym[p]:
            out.append(Violation("symmetry", (i, j), f"d({i},{j}) != d({j},{i})"))
        if ident[p]:
            out.append(
                Violation(
                    "identity of indiscernibles",
                    (i, j),
                    f"d({i},{j}) = {d[i, j]} for distinct points",
                )
            )
        if neg[p]:
            out.append(Violation("nonnegativity", (i, j), f"d({i},{j}) < 0"))
    # One row i at a time keeps the n^3 scan in O(n^2) memory; argwhere
    # walks (j, k) in row-major order, so violations come in (i, j, k) order.
    for i in range(n):
        bad = d[i][:, None] > d[i][None, :] + d.T + tol
        for j, k in np.argwhere(bad).tolist():
            out.append(
                Violation(
                    "triangle inequality",
                    (i, j, k),
                    f"d({i},{j}) > d({i},{k}) + d({k},{j})",
                )
            )
    g = poset.order_matrix
    for i in np.flatnonzero(~np.diag(g)).tolist():
        out.append(Violation("reflexivity", (i,), f"({i},{i}) missing"))
    for i, j in np.argwhere(np.triu(g & g.T, 1)).tolist():
        out.append(Violation("antisymmetry", (i, j), f"{i} >= {j} >= {i}"))
    # a float product runs in BLAS and is exact for these 0/1 sums
    gf = g.astype(float)
    closure = (gf @ gf) > 0
    for i, j in np.argwhere(closure & ~g).tolist():
        out.append(Violation("transitivity", (i, j), f"({i},{j}) missing"))
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class RadialityWitness:
    """A triple violating one of the radiality inequalities.

    RD1: x >=* y > z with d(x, z) < d(x, y); lhs = d(x, z), rhs = d(x, y).
    RD2: x > y >=* z with d(x, z) < d(y, z); lhs = d(x, z), rhs = d(y, z).
    """

    kind: str
    triple: tuple
    lhs: float
    rhs: float

    @property
    def ratio(self):
        return self.rhs / self.lhs


def _strict_matrix(poset):
    g = poset.order_matrix
    return g & ~np.eye(poset.n, dtype=bool)


def _check_cap(n, triple_cap):
    if n**3 > triple_cap:
        raise SizeCapError(
            f"{n}^3 triples exceed the cap of {triple_cap}; "
            "raise triple_cap explicitly to proceed"
        )


def _witness_mask(d, g, strict, kind, xs, tol):
    """``mask[c, y, z]`` marks the witness (kind, (xs.start + c, y, z))."""
    lhs = d[xs][:, None, :]  # d(x, z)
    if kind == "RD1":  # x >=* y > z
        rhs = d[xs][:, :, None]  # d(x, y)
        mask = ~g[:, xs].T[:, :, None] & strict
    else:  # x > y >=* z
        rhs = d[None]  # d(y, z)
        mask = strict[xs][:, :, None] & ~g.T
    mask &= lhs < rhs - tol
    return mask


def _witness_blocks(poset, tol, triple_cap):
    """Yield (kind, start, mask) over blocks of x, RD1 blocks first.

    ``mask[c, y, z]`` marks the witness (kind, (start + c, y, z)). A block
    holds at most about SCAN_BLOCK triples (one x at least), so the scan
    runs in O(n^2) memory.
    """
    _check_cap(poset.n, triple_cap)
    d = poset.dist
    g = poset.order_matrix
    strict = _strict_matrix(poset)
    n = poset.n
    most = max(1, SCAN_BLOCK // max(n * n, 1))
    for kind in ("RD1", "RD2"):
        # blocks grow from one x, so a search for the first witness stays cheap
        start, step = 0, 1
        while start < n:
            xs = slice(start, start + step)
            yield kind, start, _witness_mask(d, g, strict, kind, xs, tol)
            start, step = start + step, min(2 * step, most)


def _witness(d, kind, x, y, z):
    rhs = d[x, y] if kind == "RD1" else d[y, z]
    return RadialityWitness(kind, (x, y, z), float(d[x, z]), float(rhs))


def iter_radiality_witnesses(poset, tol=DEFAULT_TOL, triple_cap=DEFAULT_TRIPLE_CAP):
    """Yield every radiality violation, RD1 triples first, in lexicographic
    order of (kind, x, y, z). Witnesses require lhs < rhs - tol."""
    for kind, start, mask in _witness_blocks(poset, tol, triple_cap):
        for c, y, z in np.argwhere(mask).tolist():
            yield _witness(poset.dist, kind, start + c, y, z)


def _best_ratios(values, allowed, lhs, tol):
    """``ratio[r, c]``: the largest rhs / ``lhs[r, c]`` over the rhs
    ``values[y, c]`` with ``allowed[r, y]`` and lhs < rhs - tol; -inf if none.

    ``top[r, c]``, the largest allowed rhs, is one masked reduction over the
    (r, y, c) cube, which numpy walks without building it. For lhs >= 0 the
    best ratio is ``top / lhs``, since fl(a / b) is monotone in a, taken
    where lhs < top - tol, which holds iff some rhs qualifies, because
    fl(a - tol) is monotone too.
    """
    n = len(values)
    cube = np.broadcast_to(values, (len(allowed), n, n))
    top = np.maximum.reduce(cube, axis=1, where=allowed[:, :, None], initial=-np.inf)
    hit = lhs < top - tol
    ratio = np.full(lhs.shape, -np.inf)
    np.divide(top, lhs, out=ratio, where=hit)
    # a negative lhs (not a metric) turns the order of the ratios round
    for r, c in np.argwhere(hit & np.signbit(lhs)).tolist():
        rhs = values[allowed[r], c]
        ratio[r, c] = (rhs[lhs[r, c] < rhs - tol] / lhs[r, c]).max()
    return ratio


def max_ratio_witness(poset, tol=DEFAULT_TOL, triple_cap=DEFAULT_TRIPLE_CAP):
    """The witness of largest ratio rhs/lhs, or None if the poset is radial.

    Ties go to the first in ``iter_radiality_witnesses`` order: the scan
    finds the best ratio at every (kind, x, z), and only the first x whose
    row reaches the maximum is enumerated, to find its first witness of
    that ratio. The scan runs in O(n^2) memory.
    """
    _check_cap(poset.n, triple_cap)
    d = poset.dist
    g = poset.order_matrix
    strict = _strict_matrix(poset)
    with np.errstate(divide="ignore"):  # a zero d(x, z) gives ratio inf
        ratios = np.stack(
            [
                # RD1, x >=* y > z: rhs d(x, y) over y, reduced as [z, x]
                _best_ratios(
                    np.where(~g, d.T, -np.inf), np.ascontiguousarray(strict.T), d.T, tol
                ).T,
                # RD2, x > y >=* z: rhs d(y, z) over y, reduced as [x, z]
                _best_ratios(np.where(~g.T, d, -np.inf), strict, d, tol),
            ]
        )
        best = ratios.max(initial=-np.inf)
        if not best > -np.inf:
            return None
        k, x, _ = np.unravel_index(np.argmax(ratios), ratios.shape)
        kind, x = ("RD1", "RD2")[k], int(x)
        y, z = np.nonzero(_witness_mask(d, g, strict, kind, slice(x, x + 1), tol)[0])
        rhs = d[x, y] if kind == "RD1" else d[y, z]
        i = int(np.argmax(rhs / d[x, z] == best))
    return _witness(d, kind, x, int(y[i]), int(z[i]))


def check_radiality(poset, tol=DEFAULT_TOL, triple_cap=DEFAULT_TRIPLE_CAP):
    """First radiality violation in (kind, x, y, z) order, or None."""
    return next(iter_radiality_witnesses(poset, tol, triple_cap), None)


def is_radially_convex(poset, tol=DEFAULT_TOL, triple_cap=DEFAULT_TRIPLE_CAP):
    """d(x, z) >= max(d(x, y), d(y, z)) whenever x > y > z."""
    _check_cap(poset.n, triple_cap)
    d = poset.dist
    strict = _strict_matrix(poset)
    for x in range(poset.n):
        # bad[y, z]: x > y > z with d(x, z) < max(d(x, y), d(y, z))
        bad = strict[x][:, None] & strict & (d[x][None, :] < np.maximum(d[x][:, None], d) - tol)
        if bad.any():
            return False
    return True


@dataclass(frozen=True)
class RadialityReport:
    witness: RadialityWitness | None
    radially_convex: bool

    @property
    def radial(self):
        return self.witness is None


def radiality_report(poset, tol=DEFAULT_TOL, triple_cap=DEFAULT_TRIPLE_CAP):
    return RadialityReport(
        witness=check_radiality(poset, tol, triple_cap),
        radially_convex=is_radially_convex(poset, tol, triple_cap),
    )


def poset_from_points(points, cone, labels=None, tol=DEFAULT_TOL):
    """Poset on explicit points of R^m: cone order, norm-tag distances."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if points.shape[1] != cone.dim:
        raise StructureError("point dimension must match the cone")
    if labels is None:
        labels = tuple(",".join(format(c, "g") for c in p) for p in points)
    diff = points[:, None, :] - points[None, :, :]
    dist = cones.norm_many(diff, cone.norm)
    geq = cones.contains_many(cone, diff.reshape(n * n, -1), tol).reshape(n, n)
    return FiniteMetricPoset(labels=labels, dist=dist, order=geq | np.eye(n, dtype=bool))


def grid_instance(dim, side, spacing, cone, size_cap=4096, tol=DEFAULT_TOL):
    """Lattice points of {0..side-1}^dim scaled by ``spacing``, ordered by
    the cone and metrized by its norm tag."""
    count = side**dim
    if dim * count > size_cap:
        raise SizeCapError(f"dim*side^dim = {dim * count} exceeds cap {size_cap}")
    points = spacing * np.array(list(itertools.product(range(side), repeat=dim)), dtype=float)
    return poset_from_points(points, cone, tol=tol)


def chain_instance(positions):
    """Linearly ordered points of the real line (a radial poset)."""
    pos = np.sort(np.asarray(positions, dtype=float))
    dist = np.abs(pos[:, None] - pos[None, :])
    labels = tuple(format(p, "g") for p in pos)
    return FiniteMetricPoset(labels=labels, dist=dist, order=pos[:, None] >= pos[None, :])
