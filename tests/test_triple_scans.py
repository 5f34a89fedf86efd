"""The triple scans of ``validate``, ``max_ratio_witness`` and
``check_radiality`` on posets of 20 to 70 points, against full-tensor numpy
references.

The triangle filter of ``validate`` and the witness enumeration run in
blocks of rows under the SCAN_BLOCK budget, so they cross block boundaries
at every size drawn here. On an exactly symmetric matrix the filter
computes each unordered pair once, so symmetric kinds, whose violations
come in mirrored pairs, are drawn next to asymmetric ones. Fixed cases add
n = 1, 2 and 3, one-row blocks (n > 256), ties at the tolerance and a
matrix one ulp off symmetric. SCAN_BLOCK budgets down to 1 force the
one-row path, which splits u, at small n; ``_min_plus`` itself is compared
with the naive min-plus product, block sizes included.

``max_ratio_witness`` computes exact ratios only for the (kind, x, z) pairs
whose upper bound reaches the best ratio, in passes of halving thresholds.
Fixed cases cover many tied best ratios, a tiny distance that needs three
passes or more, zero distances and a radial poset that needs the last pass
over every pair; at n = 300 it is compared with the masked max reduction
over the whole triple cube, an oracle in O(n^2) memory, and its peak
memory there is bounded. ``validate`` is also checked at zero, negative and
NaN tolerances, on mirrored signed zeros and on a relation that is no order.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import monolip as ml
from monolip import poset as poset_mod

from conftest import random_pointed_cone

SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(20, 70)
KIND_NAMES = (
    "integer-points",
    "cone",
    "independent-metric",
    "asymmetric",
    "non-metric",
    "symmetric-non-metric",
    "negative",
    "relation",
)
KINDS = st.sampled_from(KIND_NAMES)
SCANS = settings(max_examples=30, deadline=None)
# non-metric inputs list tens of thousands of triangle violations
VALIDATE = settings(max_examples=15, deadline=None)


def _instance(rng, kind, n):
    """(dist, order matrix) of one of the instance kinds, about n points."""
    if kind == "integer-points":  # equal distances and ratios are common
        pts = np.unique(rng.integers(-5, 6, size=(n, 2)).astype(float), axis=0)
        p = ml.poset_from_points(pts, ml.orthant(2))
        return p.dist, p.order_matrix
    if kind == "cone":  # not an orthant
        cone = random_pointed_cone(rng, dim=int(rng.integers(2, 4)))
        p = ml.poset_from_points(rng.uniform(-4.0, 4.0, size=(n, cone.dim)), cone)
        return p.dist, p.order_matrix
    pts = np.round(rng.uniform(-5.0, 5.0, size=(n, 2)), 1)
    g = (pts[:, None, :] >= pts[None, :, :]).all(axis=2)
    if kind == "independent-metric":  # a metric unrelated to the order
        upper = np.triu(np.round(rng.uniform(1.0, 3.0, size=(n, n)), 1), 1)
        return upper + upper.T, g
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    if kind == "asymmetric":
        return d * rng.uniform(0.7, 1.3, size=(n, n)), g
    if kind == "non-metric":  # triangle violations, zeros and negatives
        d = np.round(d + rng.normal(scale=1.5, size=(n, n)), 0)
        return d, g
    if kind == "symmetric-non-metric":  # violations in mirrored pairs
        upper = np.triu(np.round(d + rng.normal(scale=1.5, size=(n, n)), 0), 1)
        return upper + upper.T, g
    if kind == "negative":  # the best ratio has the least rhs at each (x, z)
        return -np.round(rng.uniform(0.5, 3.0, size=(n, n)), 1), g
    # a random relation: missing reflexive pairs, cycles, no transitivity
    return np.round(d, 1), rng.random((n, n)) < 0.05


def _poset(dist, g):
    labels = tuple(str(i) for i in range(len(dist)))
    return ml.FiniteMetricPoset(labels=labels, dist=dist, order=g)


def reference_violations(d, g, tol=1e-9):
    """(kind, indices) of every axiom violation in ``validate`` order, from
    full (n, n) and (n, n, n) tensors."""
    n = len(d)
    out = [("zero-diagonal", (i,)) for i in np.flatnonzero(np.abs(np.diag(d)) > tol)]
    for i, j in zip(*np.triu_indices(n, 1)):
        if abs(d[i, j] - d[j, i]) > tol:
            out.append(("symmetry", (i, j)))
        if d[i, j] <= tol:
            out.append(("identity of indiscernibles", (i, j)))
        if d[i, j] < -tol or d[j, i] < -tol:
            out.append(("nonnegativity", (i, j)))
    # [i, j, k]: d(i, j) > d(i, k) + d(k, j) + tol
    triangle = d[:, :, None] > d[:, None, :] + d.T[None, :, :] + tol
    out += [("triangle inequality", tuple(t)) for t in np.argwhere(triangle)]
    out += [("reflexivity", (i,)) for i in np.flatnonzero(~np.diag(g))]
    out += [("antisymmetry", tuple(t)) for t in np.argwhere(np.triu(g & g.T, 1))]
    # [i, k, j]: i >= k >= j
    closure = (g[:, :, None] & g[None, :, :]).any(axis=1)
    out += [("transitivity", tuple(t)) for t in np.argwhere(closure & ~g)]
    return [(kind, tuple(int(i) for i in idx)) for kind, idx in out]


def reference_witnesses(d, g, tol=1e-9):
    """(kind, triple, lhs, rhs) of every radiality witness in (kind, x, y, z)
    order, from full (n, n, n) tensors."""
    strict = g & ~np.eye(len(d), dtype=bool)
    lhs = d[:, None, :]  # [x, y, z] -> d(x, z)
    scans = (
        # RD1: x >=* y > z, rhs d(x, y)
        ("RD1", ~g.T[:, :, None] & strict[None, :, :], d[:, :, None]),
        # RD2: x > y >=* z, rhs d(y, z)
        ("RD2", strict[:, :, None] & ~g.T[None, :, :], d[None, :, :]),
    )
    hits = []
    for kind, order_ok, rhs in scans:
        rhs = np.broadcast_to(rhs, order_ok.shape)
        for x, y, z in np.argwhere(order_ok & (lhs < rhs - tol)):
            hits.append((kind, (int(x), int(y), int(z)), float(d[x, z]), float(rhs[x, y, z])))
    return hits


def reference_max_ratio(hits):
    """The first witness of largest ratio rhs / lhs; None if there is none
    or the largest ratio is -inf."""
    if not hits:
        return None
    with np.errstate(divide="ignore"):
        ratios = np.array([h[3] for h in hits]) / np.array([h[2] for h in hits])
    k = int(np.argmax(ratios))
    return hits[k] if ratios[k] > -np.inf else None


def _key(w):
    return None if w is None else (w.kind, w.triple, w.lhs, w.rhs)


@VALIDATE
@given(seed=SEEDS, n=SIZES, kind=KINDS)
@example(seed=0, n=70, kind="non-metric")
@example(seed=0, n=70, kind="symmetric-non-metric")
def test_validate_matches_full_tensor_reference(seed, n, kind):
    d, g = _instance(np.random.default_rng(seed), kind, n)
    report = ml.validate(_poset(d, g))
    found = [(v.kind, v.indices) for v in report.violations]
    assert found == reference_violations(d, g)
    if kind == "symmetric-non-metric":
        triangles = {idx for k, idx in found if k == "triangle inequality"}
        assert triangles  # noise of this scale always breaks the metric
        assert {(j, i, k) for i, j, k in triangles} == triangles


def _triangle_tie(gap):
    """Three points with d(0, 2) = fl(fl(d(0, 1) + d(1, 2)) + tol) moved by
    ``gap`` ulps: a tie at the tolerance for gap 0."""
    a, b = 0.1, 0.2  # a + b rounds: 0.30000000000000004
    far = (a + b) + 1e-9
    for _ in range(gap):
        far = np.nextafter(far, np.inf)
    return np.array([[0.0, a, far], [a, 0.0, b], [far, b, 0.0]])


def _one_ulp_off_symmetric():
    """The tie with d(2, 0) one ulp above it: a matrix one ulp off
    symmetric, with the violation (2, 0, 1) but not its mirror (0, 2, 1)."""
    d = _triangle_tie(0)
    d[2, 0] = np.nextafter(d[2, 0], np.inf)
    return d


SMALL_CASES = {
    "one-point": (np.zeros((1, 1)), np.ones((1, 1), dtype=bool)),
    "one-point-nonzero-diagonal": (np.full((1, 1), -0.5), np.zeros((1, 1), dtype=bool)),
    "two-points-asymmetric": (np.array([[0.0, 1.0], [2.0, 0.0]]), np.eye(2, dtype=bool)),
    "two-points-negative": (np.array([[0.0, -1.0], [-1.0, 0.0]]), np.ones((2, 2), dtype=bool)),
    "three-points-violation": (
        np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]),
        np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool),
    ),
    "three-points-tie": (_triangle_tie(0), np.eye(3, dtype=bool)),
    "three-points-ulp-above-tie": (_triangle_tie(1), np.eye(3, dtype=bool)),
    "three-points-one-ulp-off-symmetric": (_one_ulp_off_symmetric(), np.eye(3, dtype=bool)),
}


@pytest.mark.parametrize("case", sorted(SMALL_CASES))
def test_validate_small_cases_match_full_tensor_reference(case):
    d, g = SMALL_CASES[case]
    found = [(v.kind, v.indices) for v in ml.validate(_poset(d, g)).violations]
    assert found == reference_violations(d, g)
    triangles = [idx for kind, idx in found if kind == "triangle inequality"]
    if case == "three-points-tie":
        assert triangles == []
    if case == "three-points-ulp-above-tie":
        assert triangles == [(0, 2, 1), (2, 0, 1)]
    if case == "three-points-one-ulp-off-symmetric":
        assert triangles == [(2, 0, 1)]


def test_validate_one_ulp_off_symmetric_matches_full_tensor_reference():
    """One entry of a symmetric non-metric matrix moved by one ulp: the
    filter scans every (i, j), and the result still matches."""
    d, g = _instance(np.random.default_rng(4), "symmetric-non-metric", 40)
    d[3, 17] = np.nextafter(d[3, 17], np.inf)
    assert not np.array_equal(d, d.T)
    found = [(v.kind, v.indices) for v in ml.validate(_poset(d, g)).violations]
    assert found == reference_violations(d, g)


def test_validate_one_row_blocks_match_full_tensor_reference():
    """n > 256: each block of the triangle filter is one row."""
    n = 257
    assert n * n > poset_mod.SCAN_BLOCK
    rng = np.random.default_rng(5)
    pts = np.round(rng.uniform(-5.0, 5.0, size=(n, 2)), 1)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    g = (pts[:, None, :] >= pts[None, :, :]).all(axis=2)
    # a few entries scaled off the metric: violations in some rows only
    i, j = rng.choice(n, size=(2, 6), replace=False)
    d[i, j] = d[j, i] = d[i, j] * np.array([0.8, 1.5, 2.0, 3.0, 4.0, 5.0])
    found = [(v.kind, v.indices) for v in ml.validate(_poset(d, g)).violations]
    rows = {idx[0] for kind, idx in found if kind == "triangle inequality"}
    assert 0 < len(rows) < n
    assert found == reference_violations(d, g)


@SCANS
@given(seed=SEEDS, n=SIZES, kind=KINDS)
@example(seed=0, n=30, kind="negative")
@example(seed=0, n=70, kind="integer-points")
def test_max_ratio_witness_matches_full_tensor_reference(seed, n, kind):
    d, g = _instance(np.random.default_rng(seed), kind, n)
    p = _poset(d, g)
    hits = reference_witnesses(d, g)
    assert _key(poset_mod.max_ratio_witness(p)) == reference_max_ratio(hits)
    assert _key(ml.check_radiality(p)) == (hits[0] if hits else None)



def _counting(monkeypatch):
    """Count the pairs ``max_ratio_witness`` computes exactly, and its
    passes (one ``_band_ratios`` call per pass)."""
    seen = {"pairs": 0, "calls": 0}
    band_ratios = poset_mod._band_ratios

    def counted(d, tables, bands, tol):
        seen["pairs"] += sum(map(len, bands))
        seen["calls"] += 1
        return band_ratios(d, tables, bands, tol)

    monkeypatch.setattr(poset_mod, "_band_ratios", counted)
    return seen


@pytest.mark.parametrize("side", [6, 7, 8])
def test_max_ratio_witness_on_integer_grids_breaks_ties_by_first_x(side):
    p = ml.grid_instance(2, side, 1.0, ml.orthant(2))
    hits = reference_witnesses(p.dist, p.order_matrix)
    best = reference_max_ratio(hits)
    tied = {(h[0], h[1][0], h[1][2]) for h in hits if h[3] / h[2] == best[3] / best[2]}
    assert len({x for _, x, _ in tied}) > 1  # the best ratio recurs at other x
    assert _key(poset_mod.max_ratio_witness(p)) == best


@pytest.mark.parametrize("tiny", [1e-9, 1e-300])
def test_max_ratio_witness_runs_a_few_passes_after_a_tiny_distance(tiny, monkeypatch):
    """p and q are ``tiny`` apart and incomparable to every point: the pair
    (p, q) admits no y, but its bound sets the first threshold near
    1 / tiny. Thresholds that would compute nothing are skipped, so the
    passes stay few even when halving takes a thousand steps."""
    rng = np.random.default_rng(11)
    pts = np.vstack(
        [np.round(rng.uniform(0.0, 5.0, size=(30, 2)), 2), [(-10.0, 20.0), (-9.0, 19.0)]]
    )
    q = ml.poset_from_points(pts, ml.orthant(2))
    d = q.dist.copy()
    d[30, 31] = d[31, 30] = tiny
    p = _poset(d, q.order_matrix)
    seen = _counting(monkeypatch)
    found = poset_mod.max_ratio_witness(p)
    assert 3 <= seen["calls"] <= 8
    assert seen["pairs"] < p.n * p.n  # most pairs are never computed
    assert _key(found) == reference_max_ratio(reference_witnesses(d, q.order_matrix))


def test_max_ratio_witness_takes_the_least_z_when_ties_come_from_different_passes():
    """0 > 1 and nothing else: the RD2 pairs (0, 3) and (0, 2) both have
    ratio 2 with y = 1, but d(4, 3) = 100 raises the bound of (0, 3) to 50,
    so it is computed passes before (0, 2), whose bound is 2. The first
    witness still has the least z."""
    d = np.zeros((5, 5))
    for (i, j), v in {(0, 1): 1, (0, 2): 1, (0, 3): 2, (0, 4): 1, (1, 2): 2, (1, 3): 4,
                      (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 100}.items():
        d[i, j] = d[j, i] = v
    g = np.eye(5, dtype=bool)
    g[0, 1] = True
    best = reference_max_ratio(reference_witnesses(d, g))
    assert best == ("RD2", (0, 1, 2), 1.0, 2.0)
    assert _key(poset_mod.max_ratio_witness(_poset(d, g))) == best


def test_max_ratio_witness_at_zero_distances():
    """A zero d(x, z) off the diagonal gives the ratio inf; a -0.0 is
    computed as a negative lhs."""
    d, g = _instance(np.random.default_rng(3), "integer-points", 30)
    d = d.copy()
    kind, (x, y, z), _, _ = reference_witnesses(d, g)[-1]
    d[x, z] = d[z, x] = 0.0
    kind, (x, y, z), _, _ = reference_witnesses(d, g)[0]
    d[x, z] = d[z, x] = -0.0
    hits = reference_witnesses(d, g)
    best = reference_max_ratio(hits)
    assert best[2] == 0.0 < best[3]  # ratio inf
    assert _key(poset_mod.max_ratio_witness(_poset(d, g))) == best


def test_max_ratio_witness_on_a_radial_chain_computes_every_pair(monkeypatch):
    p = ml.chain_instance(np.arange(25.0) ** 1.5)
    assert reference_witnesses(p.dist, p.order_matrix) == []
    seen = _counting(monkeypatch)
    assert poset_mod.max_ratio_witness(p) is None
    assert seen["pairs"] == 2 * p.n * p.n  # the last pass took every pair left


def reduction_max_ratio(p, tol=1e-9):
    """(kind, triple, lhs, rhs) of the first witness of largest ratio, from
    the best ratio at every (kind, x, z) by one masked max reduction over
    the triple cube per kind, which numpy walks without building it, then a
    search of the first row that reaches it. Memory stays O(n^2)."""
    d, g = p.dist, p.order_matrix
    strict = g & ~np.eye(p.n, dtype=bool)

    def best_ratios(values, allowed, lhs):
        # the largest rhs values[y, c] with allowed[r, y], over lhs[r, c]
        n = len(values)
        cube = np.broadcast_to(values, (len(allowed), n, n))
        top = np.maximum.reduce(cube, axis=1, where=allowed[:, :, None], initial=-np.inf)
        hit = lhs < top - tol
        ratio = np.full(lhs.shape, -np.inf)
        np.divide(top, lhs, out=ratio, where=hit)
        for r, c in np.argwhere(hit & np.signbit(lhs)).tolist():
            rhs = values[allowed[r], c]
            ratio[r, c] = (rhs[lhs[r, c] < rhs - tol] / lhs[r, c]).max()
        return ratio

    with np.errstate(divide="ignore"):
        ratios = np.stack(
            [
                # RD1, x >=* y > z: rhs d(x, y) over y, reduced as [z, x]
                best_ratios(np.where(~g, d.T, -np.inf), np.ascontiguousarray(strict.T), d.T).T,
                # RD2, x > y >=* z: rhs d(y, z) over y, reduced as [x, z]
                best_ratios(np.where(~g.T, d, -np.inf), strict, d),
            ]
        )
        best = ratios.max(initial=-np.inf)
        if not best > -np.inf:
            return None
        k, x, _ = np.unravel_index(np.argmax(ratios), ratios.shape)
        if k == 0:  # [y, z]: x >=* y > z, d(x, z) < d(x, y) - tol
            rhs = np.broadcast_to(d[x][:, None], (p.n, p.n))
            mask = ~g[:, x][:, None] & strict & (d[x][None, :] < rhs - tol)
        else:  # [y, z]: x > y >=* z, d(x, z) < d(y, z) - tol
            rhs = d
            mask = strict[x][:, None] & ~g.T & (d[x][None, :] < rhs - tol)
        y, z = np.nonzero(mask)
        i = int(np.argmax(rhs[y, z] / d[x, z] == best))
        y, z = y[i], z[i]
    return ("RD1", "RD2")[k], (int(x), int(y), int(z)), float(d[x, z]), float(rhs[y, z])


def _planar_300(points):
    if points == "random":
        pts = np.round(np.random.default_rng(8).uniform(-5.0, 5.0, size=(300, 2)), 3)
    else:
        pts = np.array(list(itertools.product(range(15), range(20))), dtype=float)
    return ml.poset_from_points(pts, ml.orthant(2))


@pytest.mark.parametrize("points", ["random", "grid"])
def test_max_ratio_witness_matches_the_reduction_oracle_at_n_300(points):
    p = _planar_300(points)
    found = poset_mod.max_ratio_witness(p)
    assert found is not None
    assert _key(found) == reduction_max_ratio(p)


@pytest.mark.parametrize("points", ["random", "grid"])
def test_max_ratio_witness_peaks_below_32_n_squared_bytes(points):
    """The scan holds one array of bounds when d is symmetric (8 n^2 bytes),
    a transposed copy of each boolean relation (2 n^2) and the pairs its
    passes computed: 12 to 18 n^2 bytes here. (2n, n) tables of rhs values
    and admitted y, with bounds for each kind, took 39 to 45 n^2."""
    p = _planar_300(points)
    p.strict_matrix  # derived once per poset, not by the scan
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        poset_mod.max_ratio_witness(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 32 * p.n**2


@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize("budget", [1, 7, 64, 4096])
def test_scans_under_small_budgets_match_full_tensor_references(budget, kind, monkeypatch):
    """A SCAN_BLOCK below n * n splits the min-plus product over u, one row
    at a time, as n > 256 does at the default budget; 4096 gives blocks of
    a few rows."""
    d, g = _instance(np.random.default_rng([budget, KIND_NAMES.index(kind)]), kind, 24)
    p = _poset(d, g)
    monkeypatch.setattr(poset_mod, "SCAN_BLOCK", budget)
    found = [(v.kind, v.indices) for v in ml.validate(p).violations]
    assert found == reference_violations(d, g)
    hits = reference_witnesses(d, g)
    assert _key(poset_mod.max_ratio_witness(p)) == reference_max_ratio(hits)
    assert _key(ml.check_radiality(p)) == (hits[0] if hits else None)


def test_validate_reads_mirrored_signed_zeros_as_symmetric():
    """d[i, k] = -0.0 and d[k, i] = 0.0 pass ``np.array_equal(d, d.T)``, so
    the filter computes each unordered pair once, reading d[k, i] for
    d[i, k]; the report still matches the reference."""
    rng = np.random.default_rng(9)
    n = 40
    pts = np.round(rng.uniform(-5.0, 5.0, size=(n, 2)), 1)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    g = (pts[:, None, :] >= pts[None, :, :]).all(axis=2)
    i, k = rng.choice(n, size=(2, 8), replace=False)
    d[i[:4], k[:4]], d[k[:4], i[:4]] = -0.0, 0.0  # mirrored signed zeros
    d[i[4:], k[4:]] = d[k[4:], i[4:]] = d[i[4:], k[4:]] * 3.0  # planted violations
    assert np.array_equal(d, d.T) and np.signbit(d).any()
    found = [(v.kind, v.indices) for v in ml.validate(_poset(d, g)).violations]
    assert "triangle inequality" in {kind for kind, _ in found}
    assert found == reference_violations(d, g)


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan])
@pytest.mark.parametrize("kind", ["integer-points", "symmetric-non-metric", "asymmetric"])
def test_validate_at_zero_negative_and_nan_tolerances_matches_the_reference(kind, tol):
    """A symmetric d skips the symmetry test only for tol >= 0: with a
    negative tol every pair fails it, and with a NaN tol no check fails."""
    d, g = _instance(np.random.default_rng([3, KIND_NAMES.index(kind)]), kind, 24)
    found = [(v.kind, v.indices) for v in ml.validate(_poset(d, g), tol=tol).violations]
    assert found == reference_violations(d, g, tol)
    symmetry = [idx for k, idx in found if k == "symmetry"]
    if np.isnan(tol):
        assert found == []
    elif tol < 0:
        assert len(symmetry) == len(d) * (len(d) - 1) // 2
    elif kind != "asymmetric":
        assert symmetry == []


@pytest.mark.parametrize("tol", [1e-9, 0.0, -1e-9, np.nan])
def test_validate_on_mirrored_signed_zeros_matches_the_reference_at_every_tolerance(tol):
    """-0.0 against 0.0 passes ``np.array_equal(d, d.T)``, and
    |-0.0 - 0.0| = 0, so the symmetry test may be skipped for tol >= 0."""
    d, g = _instance(np.random.default_rng(12), "integer-points", 30)
    i, k = np.triu_indices(len(d), 1)
    d[i[:5], k[:5]], d[k[:5], i[:5]] = -0.0, 0.0
    d[k[5:9], i[5:9]], d[i[5:9], k[5:9]] = -0.0, 0.0
    assert np.array_equal(d, d.T) and np.signbit(d).any()
    found = [(v.kind, v.indices) for v in ml.validate(_poset(d, g), tol=tol).violations]
    assert found == reference_violations(d, g, tol)


def test_validate_lists_the_failures_of_a_relation_that_is_no_order():
    """A 2-cycle, a missing transitive pair and a missing reflexive pair:
    ``validate`` enumerates antisymmetry and transitivity only when their
    checks fail, and then lists them as the reference does."""
    d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
    g = np.eye(5, dtype=bool)
    g[0, 1] = g[1, 0] = True  # 0 >= 1 >= 0
    g[2, 3] = g[3, 4] = True  # 2 >= 3 >= 4 without 2 >= 4
    g[4, 4] = False
    found = [(v.kind, v.indices) for v in ml.validate(_poset(d, g)).violations]
    assert found == reference_violations(d, g)
    assert {k for k, _ in found} == {"reflexivity", "antisymmetry", "transitivity"}


class _BlockSizes:
    """numpy for ``poset``, recording the size of each array ``np.min`` reduces."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def min(self, a, *args, **kwargs):
        self.sizes.append(a.size)
        return np.min(a, *args, **kwargs)


@pytest.mark.parametrize("budget", [1, 7, 64, poset_mod.SCAN_BLOCK])
@pytest.mark.parametrize(
    "m, k, n", [(1, 1, 1), (1, 5, 3), (6, 1, 9), (17, 4, 1), (13, 11, 8), (300, 2, 300)]
)
def test_min_plus_matches_the_naive_product(m, k, n, budget, monkeypatch):
    """``out[r, v] = min_u At[u, r] + B[u, v]`` bit for bit, inf entries
    included, with every block of sums within the budget (or one row of
    B, when a row alone exceeds it)."""
    rng = np.random.default_rng([m, k, n])
    At = np.round(rng.exponential(size=(m, k)), 2)
    B = np.round(rng.exponential(size=(m, n)), 2)
    At[rng.random((m, k)) < 0.2] = np.inf
    B[rng.random((m, n)) < 0.2] = np.inf
    want = np.min(At.T[:, :, None] + B[None], axis=1)
    blocks = _BlockSizes()
    monkeypatch.setattr(poset_mod, "SCAN_BLOCK", budget)
    monkeypatch.setattr(poset_mod, "np", blocks)
    assert np.array_equal(poset_mod._min_plus(At, B), want)
    assert max(blocks.sizes) <= max(budget, n)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_scans_on_posets_of_at_most_two_points(n):
    """No triple exists: every scan reports nothing and the bound is 1."""
    p = ml.poset_from_points(np.column_stack([np.arange(n), -np.arange(n)]), ml.orthant(2))
    assert p.n == n
    assert ml.validate(p).ok
    assert ml.check_radiality(p) is None
    assert poset_mod.max_ratio_witness(p) is None
    ray = ml.HilbertRay(dim=2, e=np.array([0.0, 1.0]), cone=ml.orthant(2))
    assert ml.e2_lower_bound(p, ray) == (1.0, None)
