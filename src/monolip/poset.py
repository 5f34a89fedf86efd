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
        strict = self.order_matrix.copy()
        strict.flat[:: self.n + 1] = False
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
    for i in np.flatnonzero(np.abs(d.diagonal()) > tol).tolist():
        out.append(Violation("zero-diagonal", (i,), f"d({i},{i}) = {d[i, i]}"))
    # The pair checks read d and d.T and list the pairs i < j row-major.
    # Nonnegativity is tested only on the pairs that fail symmetry or
    # identity, which hold every failure: for tol >= 0, d(i, j) < -tol
    # fails identity, and d(j, i) < -tol with d(i, j) > tol fails symmetry;
    # every pair fails symmetry when tol < 0, and none fails anything when
    # tol is NaN. A d equal to its transpose fails symmetry only if tol < 0.
    symmetric = np.array_equal(d, d.T)
    bad = d <= tol
    if not (symmetric and tol >= 0):
        bad |= np.abs(d - d.T) > tol
    bad.flat[:: n + 1] = False
    for i, j in np.argwhere(np.triu(bad)).tolist() if bad.any() else ():
        if abs(d[i, j] - d[j, i]) > tol:
            out.append(Violation("symmetry", (i, j), f"d({i},{j}) != d({j},{i})"))
        if d[i, j] <= tol:
            text = f"d({i},{j}) = {d[i, j]} for distinct points"
            out.append(Violation("identity of indiscernibles", (i, j), text))
        if min(d[i, j], d[j, i]) < -tol:
            out.append(Violation("nonnegativity", (i, j), f"d({i},{j}) < 0"))
    # The row filter of the docstring; argwhere walks a flagged row's (j, k)
    # in row-major order.
    if symmetric:
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
            text = f"d({i},{j}) > d({i},{k}) + d({k},{j})"
            out.append(Violation("triangle inequality", (i, j, k), text))
    g = poset.order_matrix
    for i in np.flatnonzero(~g.diagonal()).tolist():
        out.append(Violation("reflexivity", (i,), f"({i},{i}) missing"))
    cycle = poset.strict_matrix & poset.strict_matrix.T
    for i, j in np.argwhere(np.triu(cycle)).tolist() if cycle.any() else ():
        out.append(Violation("antisymmetry", (i, j), f"{i} >= {j} >= {i}"))
    # float32 runs in BLAS; a sum of 0/1 products is > 0 iff one term is 1
    gf = g.astype(np.float32)
    missing = (gf @ gf > 0) & ~g
    for i, j in np.argwhere(missing).tolist() if missing.any() else ():
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
            lhs = d[xs][:, None, :]  # d(x, z)
            if kind == "RD1":  # x >=* y > z, rhs d(x, y)
                mask = ~g[:, xs].T[:, :, None] & strict
                mask &= lhs < d[xs][:, :, None] - tol
            else:  # x > y >=* z, rhs d(y, z)
                mask = strict[xs][:, :, None] & ~g.T
                mask &= lhs < d[None] - tol
            yield kind, start, mask
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


def _band_ratios(d, tables, bands, tol):
    """``ratio[p]``: the largest rhs / lhs over the witnesses at the p-th
    pair of a pass, -inf if none; the pairs are ``bands[0]`` (RD1) then
    ``bands[1]`` (RD2), flat indices own * n + other. A pair's lhs is
    d(x, z), and with (vals, excl, admit) = ``tables[kind]`` its rhs are
    the vals[own, y] with excl[own, y] False and admit[other, y] True
    (``a > b`` is ``a & ~b``). Their max ``top`` is taken over gathered
    rows, by blocks of at most SCAN_BLOCK entries. For lhs >= 0 the best
    ratio is ``top / lhs`` (fl(a / b) is monotone in a) where lhs < top -
    tol, which holds iff some rhs qualifies, as fl(a - tol) is monotone too.
    """
    n, split = len(d), len(bands[0])
    top, lhs = np.empty((2, split + len(bands[1])))
    for k, ((vals, excl, admit), band) in enumerate(zip(tables, bands)):
        own, other = np.divmod(band, n)
        out = top[k * split : k * split + len(band)]
        step = max(1, SCAN_BLOCK // max(n, 1))
        for s in range(0, len(band), step):
            o, r = own[s : s + step], other[s : s + step]
            mask = np.greater(admit[r], excl[o])
            np.maximum.reduce(vals[o], axis=1, where=mask, initial=-np.inf, out=out[s : s + step])
        d.take(other * n + own if k else band, out=lhs[k * split : k * split + len(band)])
    hit = lhs < top - tol
    ratio = np.full(len(top), -np.inf)
    np.divide(top, lhs, out=ratio, where=hit)
    # a negative lhs (not a metric) turns the order of the ratios round
    for p in np.flatnonzero(hit & np.signbit(lhs)).tolist():
        k = int(p >= split)
        vals, excl, admit = tables[k]
        own, other = divmod(int(bands[k][p - k * split]), n)
        rhs = vals[own, np.greater(admit[other], excl[own])]
        ratio[p] = (rhs[lhs[p] < rhs - tol] / lhs[p]).max()
    return ratio


def max_ratio_witness(poset, tol=DEFAULT_TOL):
    """The witness of largest ratio rhs/lhs, or None if the poset is radial.

    Ties go to the first in ``iter_radiality_witnesses`` order. The exact
    best ratio at a pair (kind, x, z) is computed only when an upper bound
    ``ub`` can reach the best found so far: max_y d(x, y) / d(x, z) for
    RD1, max_y d(y, z) / d(x, z) for RD2 (fl(a / b) is monotone in a for
    b > 0), +inf where d(x, z) <= 0 and -inf for x = z, which admits no y.
    A pair is stored at (own, other), (x, z) for RD1 and (z, x) for RD2, so
    RD2 reads the bounds and rows of d.T: d itself when d equals d.T up to
    signs of zeros, which turn a ratio 0.0 into -0.0 at most. With U the
    largest finite ``ub``, passes at thresholds U/2, U/4, ... compute every
    pair whose ``ub`` reaches the threshold, and stop once the best ratio
    does; a threshold at or below 1 becomes -inf, a last pass over every
    pair left, and thresholds whose pass would compute nothing and not stop
    are skipped. A pair never computed has ratio <= ub < best, so the
    passes kept every pair reaching the best ratio: the least flat
    (kind, x, z) index of them is the one a full scan finds, and only their
    z are searched at its x for the first witness. Memory O(n^2), time O(n^3).
    """
    d = poset.dist
    g = poset.order_matrix
    strict = poset.strict_matrix
    n = poset.n
    dT = d if np.array_equal(d, d.T) else np.ascontiguousarray(d.T)
    # RD1, x >=* y > z: rhs d(x, y), y >= x excluded, y > z admitted.
    # RD2, x > y >=* z: rhs d(y, z), z >= y excluded, x > y admitted.
    tables = ((d, np.ascontiguousarray(g.T), np.ascontiguousarray(strict.T)), (dT, g, strict))
    best, kept, ubs = -np.inf, [], []
    with np.errstate(divide="ignore", over="ignore"):  # a zero d(x, z) gives ratio inf
        for m, mT in [(d, d)] if dT is d else [(d, dT), (dT, d)]:
            ubs.append(np.full((n, n), np.inf))
            # the row maxima of m, reduced down the columns of mT (the faster axis)
            np.divide(mT.max(axis=0, initial=-np.inf)[:, None], m, out=ubs[-1], where=m > 0)
            ubs[-1].flat[:: n + 1] = -np.inf
        t = max(u.max(where=u < np.inf, initial=-np.inf) for u in ubs) / 2  # U / 2
        while True:
            if not t > 1:
                t = -np.inf  # the last pass: every pair left
            bands = [np.flatnonzero(u >= t) for u in ubs]
            for u, band in zip(ubs, bands):
                np.put(u, band, np.nan)  # no later threshold selects a computed pair
            bands = (bands[0], bands[-1])  # one array when d is symmetric
            ratio = _band_ratios(d, tables, bands, tol)
            kept.append((*bands, ratio))
            best = max(best, ratio.max(initial=-np.inf))
            if best >= t or t == -np.inf:
                break
            t /= 2
            if t > max(best, 1.0):
                rest = max(np.fmax.reduce(u, axis=None, initial=-np.inf) for u in ubs)  # skips NaN
                while t > max(rest, best, 1.0):
                    t /= 2
        if not best > -np.inf:
            return None
        flat = []  # (kind, x, z) flat indices of the pairs reaching best
        for b0, b1, ratio in kept:
            hit = ratio == best
            own, other = np.divmod(b1[hit[len(b0) :]], n)
            flat += [b0[hit[: len(b0)]], n * n + other * n + own]
        flat = np.concatenate(flat)
        k, x = divmod(int(flat.min()) // n, n)
        zs = np.sort(flat[flat // n == k * n + x] % n)
        lhs = d[x, zs]
        if k == 0:  # [y, c]: x >=* y > zs[c], rhs d(x, y)
            y, c = np.nonzero(~g[:, x, None] & strict[:, zs] & (lhs < d[x, :, None] - tol))
            rhs = d[x, y]
        else:  # [y, c]: x > y >=* zs[c], rhs d(y, zs[c])
            y, c = np.nonzero(strict[x, :, None] & ~g[zs].T & (lhs < d[:, zs] - tol))
            rhs = d[y, zs[c]]
        i = int(np.argmax(rhs / lhs[c] == best))  # the first in row-major order
    return _witness(d, ("RD1", "RD2")[k], x, int(y[i]), int(zs[c[i]]))


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
