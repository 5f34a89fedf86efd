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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .cones import DEFAULT_TOL
from .errors import SizeCapError, StructureError

#: Most points ``grid_instance`` builds. A poset holds n^2 distances and
#: its file n^2 numbers; ``gen grid`` in the plane peaks at about 100 bytes
#: per n^2, 0.4 GB at n = 2025.
MAX_GRID_POINTS = 2048

#: Largest block, in entries, of the k-major min-plus sums (``validate``'s
#: triangle filter, the scalar shortest paths), of the radiality witness
#: enumeration and of ``max_ratio_witness``'s row gathers. Larger blocks
#: save little time and leave larger temporaries.
SCAN_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False, init=False)
class FiniteMetricPoset:
    """Points with a distance matrix and a partial order.

    The order is stored once, as the read-only boolean ``order_matrix``
    (G[i, j] iff point i >= point j; ``validate`` checks the reflexive
    pairs). The constructor takes ``order`` as that (n, n) boolean array or
    as index pairs (i, j). The pair set ``order`` and the read-only index
    arrays below are derived on first read and kept, so the scans and
    checks that run on one poset share them.
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
            order = list(order)  # read a one-shot iterator once
            for pair in order:
                # a set or a dict has no order of its two entries
                if not isinstance(pair, (Sequence, np.ndarray)) or len(pair) != 2:
                    raise StructureError(f"order entries must be (i, j) pairs, got {pair!r}")
                # booleans, floats and strings are not indices
                if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in pair):
                    raise StructureError(f"order entries must be integer pairs, got {pair!r}")
            flat = np.fromiter(itertools.chain.from_iterable(order), dtype=np.int64)
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

    @functools.cached_property
    def upper_pairs(self):
        """Index arrays (i, j) of the pairs i < j, row-major."""
        return _frozen(*np.triu_indices(self.n, 1))

    @functools.cached_property
    def strict_matrix(self):
        """G[i, j] and i != j: point i strictly above point j."""
        strict = self.order_matrix & ~np.eye(self.n, dtype=bool)
        strict.setflags(write=False)
        return strict

    @property
    def n(self):
        return len(self.labels)

    def geq(self, i, j):
        return bool(0 <= i < self.n and 0 <= j < self.n and self.order_matrix[i, j])

    def bullet(self, i, j):
        """i >=* j: strict dominance or incomparability (not j >= i)."""
        return not self.geq(j, i)


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _min_plus(At, B):
    """The min-plus product ``out[r, v] = min_u At[u, r] + B[u, v]``, left
    operand transposed, in k-major C-order blocks [u, r, v] whatever At's
    strides, of at most SCAN_BLOCK sums reduced along axis 0, the axis
    numpy reduces fastest: whole rows of ``out`` while one row fits, else
    one row at a time over slices of u, merged by ``np.minimum``. A
    minimum is exact, so blocks change no bit of the result.
    """
    m, k = At.shape
    n = B.shape[1]
    out = np.empty((k, n))
    part = min(m, max(1, SCAN_BLOCK // max(n, 1)))
    if part == m:
        rows = max(1, SCAN_BLOCK // max(m * n, 1))
        for s in range(0, k, rows):
            sums = np.add(At[:, s : s + rows, None], B[:, None], order="C")
            np.min(sums, axis=0, out=out[s : s + rows])
        return out
    rest = np.empty(n)
    for r in range(k):
        np.min(At[:part, r, None] + B[:part], axis=0, out=out[r])
        for t in range(part, m, part):
            np.min(At[t : t + part, r, None] + B[t : t + part], axis=0, out=rest)
            np.minimum(out[r], rest, out=out[r])
    return out


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
    """Check every metric and partial-order axiom; report all violations.

    The triangle inequality is checked by a min-plus row filter: the
    k-major product ``_min_plus(d.T, d)`` gives
    ``short[i, j] = min_k d(i, k) + d(k, j)``, and row i is flagged iff some
    ``d(i, j) > short[i, j] + tol``. As fl(s + tol) is monotone in s, that
    holds iff some k has ``d(i, j) > (d(i, k) + d(k, j)) + tol``, the test
    applied to each triple, so exactly the rows holding a violation are
    flagged, for any input. When d equals its transpose exactly (as for
    posets built from points), the test at (j, i, k) reads the values of
    the one at (i, j, k), so each unordered pair {i, j} is computed once,
    by blocks of rows over the columns from the block's first row on, and
    a hit flags both rows. Only flagged rows are enumerated; violations
    come in (i, j, k) order. Memory stays O(n^2).
    """
    d = poset.dist
    n = poset.n
    out = []
    for i in np.flatnonzero(np.abs(np.diag(d)) > tol).tolist():
        out.append(Violation("zero-diagonal", (i,), f"d({i},{i}) = {d[i, i]}"))
    # The pair checks read d and d.T and list the pairs i < j row-major.
    # Nonnegativity is tested only on the pairs that fail symmetry or
    # identity, which hold every failure: for tol >= 0, d(i, j) < -tol
    # fails identity, and d(j, i) < -tol with d(i, j) > tol fails symmetry;
    # every pair fails symmetry when tol < 0, and none fails anything when
    # tol is NaN.
    bad = np.abs(d - d.T) > tol
    bad |= d <= tol
    bad &= ~np.tri(n, dtype=bool)  # np.tri marks j <= i
    for i, j in np.argwhere(bad).tolist():
        if abs(d[i, j] - d[j, i]) > tol:
            out.append(Violation("symmetry", (i, j), f"d({i},{j}) != d({j},{i})"))
        if d[i, j] <= tol:
            out.append(
                Violation(
                    "identity of indiscernibles",
                    (i, j),
                    f"d({i},{j}) = {d[i, j]} for distinct points",
                )
            )
        if min(d[i, j], d[j, i]) < -tol:
            out.append(Violation("nonnegativity", (i, j), f"d({i},{j}) < 0"))
    # The row filter of the docstring; argwhere walks a flagged row's (j, k)
    # in row-major order.
    if np.array_equal(d, d.T):
        # +inf left of the blocks; fl(a + b) = fl(b + a), and a signed zero
        # that array_equal lets differ changes no comparison.
        short = np.full((n, n), np.inf)
        s = 0
        while s < n:
            e = s + max(1, SCAN_BLOCK // (n * (n - s)))
            short[s:e, s:] = _min_plus(d[s:e].T, d[:, s:])
            s = e
        hit = d > short + tol
        flagged = hit.any(axis=1) | hit.any(axis=0)
    else:
        flagged = np.any(d > _min_plus(d.T, d) + tol, axis=1)
    for i in np.flatnonzero(flagged).tolist():
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
    strict = poset.strict_matrix
    for i, j in np.argwhere(strict & strict.T).tolist():
        if i < j:
            out.append(Violation("antisymmetry", (i, j), f"{i} >= {j} >= {i}"))
    # a float product runs in BLAS and is exact for these 0/1 sums
    gf = g.astype(float)
    closure = (gf @ gf) > 0
    for i, j in np.argwhere(closure & ~g).tolist():
        out.append(Violation("transitivity", (i, j), f"({i},{j}) missing"))
    return ValidationReport(tuple(out))


#: Positions in the triple (x, y, z) of the pair whose distance is rhs.
_ANCHOR_SLOTS = {"RD1": (0, 1), "RD2": (1, 2)}


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

    @property
    def anchor_slots(self):
        """Positions in ``triple`` of the pair (hi, lo) with rhs = d(hi, lo)."""
        if self.kind not in _ANCHOR_SLOTS:
            raise StructureError(f"unknown witness kind {self.kind!r}")
        return _ANCHOR_SLOTS[self.kind]

    @property
    def anchors(self):
        """The pair (hi, lo) as point indices: (x, y) for RD1, (y, z) for RD2."""
        i, j = self.anchor_slots
        return self.triple[i], self.triple[j]


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


def _witness_blocks(poset, tol):
    """Yield (kind, start, mask) over blocks of x, RD1 blocks first.

    ``mask[c, y, z]`` marks the witness (kind, (start + c, y, z)). A block
    holds at most about SCAN_BLOCK triples (one x at least), so the scan
    runs in O(n^2) memory.
    """
    d = poset.dist
    g = poset.order_matrix
    strict = poset.strict_matrix
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
    i, j = _ANCHOR_SLOTS[kind]
    triple = (x, y, z)
    return RadialityWitness(kind, triple, float(d[x, z]), float(d[triple[i], triple[j]]))


def iter_radiality_witnesses(poset, tol=DEFAULT_TOL):
    """Yield every radiality violation, RD1 triples first, in lexicographic
    order of (kind, x, y, z). Witnesses require lhs < rhs - tol."""
    for kind, start, mask in _witness_blocks(poset, tol):
        for c, y, z in np.argwhere(mask).tolist():
            yield _witness(poset.dist, kind, start + c, y, z)


def _pair_ratios(values, allowed, own, other, lhs, tol):
    """``ratio[p]``: the largest rhs / ``lhs[p]`` over the rhs
    ``values[own[p], y]`` with ``allowed[other[p], y]`` and lhs < rhs - tol;
    -inf if none.

    ``top[p]``, the largest allowed rhs, is a masked max over one gathered
    row, taken by blocks of at most SCAN_BLOCK entries. For lhs >= 0 the
    best ratio is ``top / lhs``, since fl(a / b) is monotone in a, taken
    where lhs < top - tol, which holds iff some rhs qualifies, because
    fl(a - tol) is monotone too.
    """
    top = np.empty(len(own))
    step = max(1, SCAN_BLOCK // max(values.shape[1], 1))
    for s in range(0, len(own), step):
        b = slice(s, s + step)
        np.maximum.reduce(
            values[own[b]], axis=1, where=allowed[other[b]], initial=-np.inf, out=top[b]
        )
    hit = lhs < top - tol
    ratio = np.full(lhs.shape, -np.inf)
    np.divide(top, lhs, out=ratio, where=hit)
    # a negative lhs (not a metric) turns the order of the ratios round
    for p in np.flatnonzero(hit & np.signbit(lhs)).tolist():
        rhs = values[own[p], allowed[other[p]]]
        ratio[p] = (rhs[lhs[p] < rhs - tol] / lhs[p]).max()
    return ratio


def max_ratio_witness(poset, tol=DEFAULT_TOL):
    """The witness of largest ratio rhs/lhs, or None if the poset is radial.

    Ties go to the first in ``iter_radiality_witnesses`` order. The exact
    best ratio at a pair (kind, x, z) is computed only when an upper bound
    ``ub`` can reach the best found so far: max_y d(x, y) / d(x, z) for
    RD1, max_y d(y, z) / d(x, z) for RD2 (fl(a / b) is monotone in a for
    b > 0), +inf where d(x, z) <= 0 and -inf for x = z, which admits no y.
    With U the largest finite ``ub``, passes at thresholds U/2, U/4, ...
    compute every pair whose ``ub`` reaches the threshold, and stop once
    the best ratio does; a threshold at or below 1 becomes -inf, a last
    pass over every pair left, and thresholds whose pass would compute
    nothing and not stop are skipped. The passes keep two scalars: the
    best ratio and the least flat (kind, x, z) index reaching it. A pair
    never computed has ratio <= ub < best, so that index is the one a full
    scan finds, and only its x is enumerated for the first witness of that
    ratio. Memory stays O(n^2) and time O(n^3), as for every scan here.
    """
    d = poset.dist
    g = poset.order_matrix
    strict = poset.strict_matrix
    n = poset.n
    # Rows [0, n) for RD1, x >=* y > z: rhs d(x, y), not y >= x, as
    # values[x] over allowed[z]. Rows [n, 2n) for RD2, x > y >=* z: rhs
    # d(y, z), not z >= y, as values[n + z] over allowed[n + x].
    values = np.where(np.vstack([g.T, g]), -np.inf, np.vstack([d, d.T]))
    allowed = np.vstack([strict.T, strict])
    ub = np.full((2, n, n), np.inf)
    positive = d > 0
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(d.max(axis=1, initial=-np.inf)[:, None], d, out=ub[0], where=positive)
        np.divide(d.max(axis=0, initial=-np.inf), d, out=ub[1], where=positive)
    ub[:, np.arange(n), np.arange(n)] = -np.inf
    t = ub.max(where=ub < np.inf, initial=-np.inf) / 2  # U / 2; no ub is NaN
    best, first = -np.inf, ub.size
    with np.errstate(divide="ignore"):  # a zero d(x, z) gives ratio inf
        while True:
            if not t > 1:
                t = -np.inf  # the last pass: every pair left
            band = np.flatnonzero(ub >= t)
            np.put(ub, band, np.nan)  # no later threshold selects a computed pair
            k, x, z = np.unravel_index(band, ub.shape)
            shift = k * n
            own = np.where(k, z, x) + shift
            other = np.where(k, x, z) + shift
            ratio = _pair_ratios(values, allowed, own, other, d[x, z], tol)
            if ratio.size:
                # argmax takes the first maximum, the least flat index
                j = np.argmax(ratio)
                if ratio[j] > best or (ratio[j] == best and band[j] < first):
                    best, first = ratio[j], band[j]
            if best >= t or t == -np.inf:
                break
            rest = np.fmax.reduce(ub, axis=None, initial=-np.inf)  # fmax skips NaN
            t /= 2
            while t > max(rest, best, 1.0):
                t /= 2
        if not best > -np.inf:
            return None
        k, x, _ = np.unravel_index(first, ub.shape)
        kind, x = ("RD1", "RD2")[k], int(x)
        y, z = np.nonzero(_witness_mask(d, g, strict, kind, slice(x, x + 1), tol)[0])
        a, b = _ANCHOR_SLOTS[kind]
        triple = (x, y, z)
        i = int(np.argmax(d[triple[a], triple[b]] / d[x, z] == best))
    return _witness(d, kind, x, int(y[i]), int(z[i]))


def check_radiality(poset, tol=DEFAULT_TOL):
    """First radiality violation in (kind, x, y, z) order, or None: one
    ``argmax`` per block finds its first set entry in C order. Memory
    O(n^2); time O(n^3) on a radial poset, which every block must clear."""
    for kind, start, mask in _witness_blocks(poset, tol):
        c, y, z = np.unravel_index(np.argmax(mask), mask.shape)
        if mask[c, y, z]:
            return _witness(poset.dist, kind, start + int(c), int(y), int(z))
    return None


def poset_from_points(points, cone, labels=None, tol=DEFAULT_TOL):
    """Poset on explicit points of R^m: cone order, norm-tag distances."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if points.shape[1] != cone.dim:
        raise StructureError("point dimension must match the cone")
    if labels is None:
        # "%g" % c is format(c, "g"); one format per point, on Python floats
        form = ",".join(["%g"] * cone.dim)
        labels = tuple(form % tuple(p) for p in points.tolist())
    # diff[i, j] = points[i] - points[j], one coordinate column at a time
    diff = np.empty((n, n, cone.dim))
    for c, col in enumerate(points.T):
        np.subtract(col[:, None], col[None, :], out=diff[:, :, c])
    dist = cones.norm_many(diff, cone.norm)
    rows = diff.reshape(n * n, cone.dim)
    lengths = dist.reshape(-1) if cone.norm == "l2" else cones.norm_many(rows, "l2")
    geq = cones._contains_rows(cone, rows, lengths, tol).reshape(n, n)
    return FiniteMetricPoset(labels=labels, dist=dist, order=geq | np.eye(n, dtype=bool))


def check_grid_size(dim, side):
    """SizeCapError, from Python ints, past MAX_GRID_POINTS points or dims (a
    dim x dim cone matrix would outgrow the largest distance matrix allowed)."""
    if dim > MAX_GRID_POINTS:
        raise SizeCapError(f"a grid in dim {dim} exceeds the dimension limit {MAX_GRID_POINTS}")
    # side >= 2 and dim >= the limit's bit length already exceed it: no huge power
    if side > 1 and (dim >= MAX_GRID_POINTS.bit_length() or side**dim > MAX_GRID_POINTS):
        raise SizeCapError(
            f"a grid of side {side} in dim {dim} exceeds {MAX_GRID_POINTS} points"
        )


def grid_instance(dim, side, spacing, cone, tol=DEFAULT_TOL):
    """Lattice points of {0..side-1}^dim scaled by ``spacing``, ordered by
    the cone and metrized by its norm tag; within ``check_grid_size``'s
    limits, checked before anything is allocated."""
    if dim < 1 or side < 1:
        raise StructureError(f"grid needs dim >= 1 and side >= 1, got {dim} and {side}")
    check_grid_size(dim, side)
    if not np.isfinite(spacing):
        raise StructureError(f"spacing must be finite, got {spacing}")
    if spacing <= 0:  # else every point coincides
        raise StructureError(f"spacing must be positive, got {spacing}")
    points = spacing * np.array(list(itertools.product(range(side), repeat=dim)), dtype=float)
    return poset_from_points(points, cone, tol=tol)


def chain_instance(positions):
    """Linearly ordered points of the real line (a radial poset)."""
    pos = np.sort(np.asarray(positions, dtype=float))
    dist = np.abs(pos[:, None] - pos[None, :])
    labels = tuple(format(p, "g") for p in pos)
    return FiniteMetricPoset(labels=labels, dist=dist, order=pos[:, None] >= pos[None, :])
