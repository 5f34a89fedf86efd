"""Extension engines: affine interpolation on the line, scalar and
componentwise LP extensions, convex feasibility, and modulus estimation."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import monolip as ml
from monolip import cones, extension
from monolip.errors import ConvergenceError, RadialityRequiredError, StructureError

from conftest import (
    monotone_line_map,
    random_metric_poset,
    random_pointed_cone,
    random_radial_poset,
)

SQRT25 = math.sqrt(2.5)


def witness_poset():
    return ml.poset_from_points([(1.0, -2.0), (0.0, 0.0), (0.0, -1.0)], ml.orthant(2))


def witness_scalar_problem():
    return ml.ExtensionProblem(
        domain=witness_poset(),
        subset=(0, 1),
        target=ml.scalar_cone(),
        f=[[math.sqrt(5)], [0.0]],
    )


# ---------------------------------------------------------------------------
# affine interpolation on the line
# ---------------------------------------------------------------------------


def test_interpolation_midpoint():
    out = ml.line_extend([0.0, 2.0], [[0, 0], [2, 0]], 1.0, cone=ml.orthant(2))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_interpolation_constant_tails():
    out = ml.line_extend([0.0, 2.0], [[0, 0], [2, 0]], -5.0, cone=ml.orthant(2))
    np.testing.assert_allclose(out, [0.0, 0.0], atol=0)
    out = ml.line_extend([0.0, 2.0], [[0, 0], [2, 0]], 99.0, cone=ml.orthant(2))
    np.testing.assert_allclose(out, [2.0, 0.0], atol=0)


def test_interpolation_scalar_gap():
    out = ml.line_extend([0, 1, 4], [[0], [1], [2]], 2.0)
    assert out[0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_interpolation_exact_on_anchors():
    out = ml.line_extend([0, 1, 4], [[0], [1], [2]], [0.0, 1.0, 4.0])
    np.testing.assert_allclose(out[:, 0], [0.0, 1.0, 2.0], atol=0)


def test_interpolation_rejects_bad_input():
    with pytest.raises(StructureError):
        ml.line_extend([0.0, 1.0], [[0], [5]], 0.5)  # not 1-Lipschitz
    with pytest.raises(StructureError):
        ml.line_extend(
            [0.0, 1.0], [[0, 0], [1, -1]], 0.5, cone=ml.orthant(2)
        )  # not order-preserving


def test_interpolation_verified_on_query_grid(rng):
    cone = ml.orthant(3)
    for _ in range(10):
        xs, vals = monotone_line_map(rng, rng.uniform(-10, 10, size=6), 3)
        grid = np.unique(np.concatenate([xs, np.linspace(-12, 12, 101)]))
        values = ml.line_extend(xs, vals, grid, cone=cone)
        domain = ml.chain_instance(grid)
        subset = tuple(int(np.searchsorted(grid, x)) for x in xs)
        problem = ml.ExtensionProblem(domain=domain, subset=subset, target=cone, f=vals)
        rep = ml.verify_extension(problem, values, 1.0)
        assert rep.max() <= 1e-9


# ---------------------------------------------------------------------------
# verify_extension
# ---------------------------------------------------------------------------


def test_verify_constant_map_trivial_order(rng):
    pts = rng.normal(size=(4, 3))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    domain = ml.FiniteMetricPoset(
        labels=("a", "b", "c", "d"), dist=dist, order=frozenset((i, i) for i in range(4))
    )
    problem = ml.ExtensionProblem(
        domain=domain, subset=(0,), target=ml.trivial_cone(2), f=[[1.0, 2.0]]
    )
    values = np.tile([1.0, 2.0], (4, 1))
    rep = ml.verify_extension(problem, values, 1.0)
    assert rep.max() == 0.0


def test_verify_reports_corrupted_value(rng):
    cone = ml.orthant(2)
    xs, vals = monotone_line_map(rng, [0.0, 1.0, 2.0, 3.0], 2)
    domain = ml.chain_instance(xs)
    problem = ml.ExtensionProblem(
        domain=domain, subset=(0, 3), target=cone, f=vals[[0, 3]]
    )
    good = ml.line_extend(xs[[0, 3]], vals[[0, 3]], xs, cone=cone)
    bad = good.copy()
    bad[1] += np.array([0.0, 10.0])
    assert ml.verify_extension(problem, good, 1.0).max() <= 1e-9
    assert ml.verify_extension(problem, bad, 1.0).lipschitz > 1.0


# ---------------------------------------------------------------------------
# feasibility at fixed K
# ---------------------------------------------------------------------------


def test_witness_scalar_feasibility():
    p = witness_scalar_problem()
    assert ml.feasibility_at_K(p, 1.0).status == extension.INFEASIBLE
    assert ml.feasibility_at_K(p, 1.6).status == extension.FEASIBLE


def test_witness_vector_feasibility_dykstra():
    p = ml.ExtensionProblem(
        domain=witness_poset(),
        subset=(0, 1),
        target=ml.orthant(2),
        f=[[0.0, math.sqrt(5)], [0.0, 0.0]],
    )
    assert ml.feasibility_at_K(p, 1.0).status == extension.INFEASIBLE
    res = ml.feasibility_at_K(p, 1.6)
    assert res.status == extension.FEASIBLE
    assert ml.verify_extension(p, res.values, 1.6).max() <= 1e-6


def test_feasibility_s_equals_x():
    domain = ml.chain_instance([0.0, 1.0, 2.0])
    p = ml.ExtensionProblem(
        domain=domain, subset=(0, 1, 2), target=ml.scalar_cone(), f=[[0], [1], [2]]
    )
    res = ml.feasibility_at_K(p, 1.0)
    assert res.status == extension.FEASIBLE
    np.testing.assert_allclose(res.values, p.f, atol=0)


def test_feasibility_monotone_in_K():
    p = witness_scalar_problem()
    k_min = ml.estimate_e(p).K
    grid = k_min * np.concatenate([np.linspace(0.5, 1.5, 41), [1.0 - 1e-6, 1.0 + 1e-6]])
    trace = [(K, ml.feasibility_at_K(p, K).status) for K in grid]
    feasible_ks = sorted(k for k, status in trace if status == extension.FEASIBLE)
    infeasible_ks = [k for k, status in trace if status == extension.INFEASIBLE]
    assert feasible_ks and infeasible_ks
    assert max(infeasible_ks) < min(feasible_ks)


# ---------------------------------------------------------------------------
# modulus estimation
# ---------------------------------------------------------------------------


def test_estimate_on_witness_instance():
    est = ml.estimate_e(witness_scalar_problem())
    assert est.conclusive
    assert est.K == pytest.approx(SQRT25, abs=1e-4)


def test_estimate_single_anchor_is_one():
    domain = ml.chain_instance([0.0, 1.0])
    p = ml.ExtensionProblem(
        domain=domain, subset=(0,), target=ml.scalar_cone(), f=[[3.0]]
    )
    assert ml.estimate_e(p).K == 1.0


def test_estimate_trivial_order_kirszbraun(rng):
    pts = rng.normal(size=(4, 3)) * 2
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    domain = ml.FiniteMetricPoset(
        labels=tuple("abcd"), dist=dist, order=frozenset((i, i) for i in range(4))
    )
    p = ml.ExtensionProblem(
        domain=domain, subset=(0, 2), target=ml.trivial_cone(3), f=0.9 * pts[[0, 2]]
    )
    est = ml.estimate_e(p)
    assert est.K == pytest.approx(1.0, abs=1e-3)


def test_estimate_at_least_one(rng):
    for _ in range(10):
        xs, vals = monotone_line_map(rng, rng.uniform(-5, 5, size=5), 1)
        domain = ml.chain_instance(xs)
        p = ml.ExtensionProblem(
            domain=domain, subset=(0, 2, 4), target=ml.scalar_cone(), f=vals[[0, 2, 4]]
        )
        assert ml.estimate_e(p).K >= 1.0


def test_estimate_matches_lp_oracle_scalar(rng):
    from conftest import random_metric_poset

    checked = 0
    for _ in range(40):
        domain = random_metric_poset(rng, max_points=8)
        if domain.n > 8:
            continue
        subset = tuple(sorted(rng.choice(domain.n, size=2, replace=False)))
        raw = rng.normal(size=2) * 3
        fvals = extension.fit_monotone_lipschitz(domain, subset, raw)
        p = ml.ExtensionProblem(
            domain=domain,
            subset=subset,
            target=ml.scalar_cone(),
            f=fvals[:, None],
            tol=1e-6,
        )
        k_lp, _ = ml.min_lipschitz_lp(p)
        k_lp = max(1.0, k_lp)
        est = ml.estimate_e(p, tol=1e-8)
        assert est.conclusive
        assert abs(est.K - k_lp) <= 1e-6
        checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# scalar and componentwise extension
# ---------------------------------------------------------------------------


def test_scalar_extend_radial_chain_unique_value():
    domain = ml.chain_instance([0.0, 1.0, 3.0])
    p = ml.ExtensionProblem(
        domain=domain, subset=(0, 2), target=ml.scalar_cone(), f=[[0.0], [3.0]]
    )
    res = ml.scalar_extend(p)
    assert res.status == extension.FEASIBLE
    assert res.K <= 1.0 + 1e-9
    # both Lipschitz constraints are tight, so F(1) = 1 is forced
    assert res.values[1, 0] == pytest.approx(1.0, abs=1e-8)


def test_scalar_extend_witness_infeasible_at_one():
    res = ml.scalar_extend(witness_scalar_problem())
    assert res.status == extension.INFEASIBLE
    assert res.K == pytest.approx(SQRT25, abs=1e-8)


def test_scalar_extend_full_subset_returns_input():
    domain = ml.chain_instance([0.0, 2.0])
    p = ml.ExtensionProblem(
        domain=domain, subset=(0, 1), target=ml.scalar_cone(), f=[[0.0], [1.5]]
    )
    res = ml.scalar_extend(p)
    assert res.status == extension.FEASIBLE
    np.testing.assert_allclose(res.values, p.f, atol=1e-12)


def test_componentwise_chain_l2_bound(rng):
    domain = ml.chain_instance([0.0, 1.0, 2.5, 4.0])
    xs = np.array([0.0, 4.0])
    _, vals = monotone_line_map(rng, xs, 2)
    p = ml.ExtensionProblem(domain=domain, subset=(0, 3), target=ml.orthant(2), f=vals)
    res = ml.componentwise_extend(p)
    assert res.status == extension.FEASIBLE
    assert res.K <= math.sqrt(2) + 1e-9


def test_componentwise_linf_bound(rng):
    domain = ml.chain_instance([0.0, 2.0, 5.0])
    vals = np.array([[0.0, 0.0], [2.0, 1.0]])
    p = ml.ExtensionProblem(
        domain=domain, subset=(0, 2), target=ml.orthant(2, norm="linf"), f=vals
    )
    res = ml.componentwise_extend(p)
    assert res.status == extension.FEASIBLE
    assert res.K <= 1.0 + 1e-9


def test_componentwise_requires_radial_domain():
    p = ml.ExtensionProblem(
        domain=witness_poset(),
        subset=(0, 1),
        target=ml.orthant(2),
        f=[[0.0, math.sqrt(5)], [0.0, 0.0]],
    )
    with pytest.raises(RadialityRequiredError) as info:
        ml.componentwise_extend(p)
    assert info.value.witness.kind == "RD1"


# ---------------------------------------------------------------------------
# the shortest-path scalar route against the LP oracle
# ---------------------------------------------------------------------------


def _fitted_problem(rng, domain, target=ml.scalar_cone()):
    """A problem on 2..n-1 anchors whose map has one LP-fitted scalar map
    per coordinate. On L1 targets the map is divided by its own L1
    Lipschitz constant on S (at most m), so that it is admissible and
    K_min > 1 still occurs."""
    size = int(rng.integers(2, domain.n))
    subset = tuple(sorted(int(s) for s in rng.choice(domain.n, size=size, replace=False)))
    f = np.column_stack([
        extension.fit_monotone_lipschitz(domain, subset, rng.normal(size=size) * 3.0)
        for _ in range(target.dim)
    ])
    if target.norm == "l1":
        gap = cones.norm_many(f[:, None] - f[None, :], "l1")
        d = domain.dist[np.ix_(subset, subset)]
        f = f / max(1.0, np.max(gap / np.where(gap > 0.0, d, 1.0)))
    return ml.ExtensionProblem(domain=domain, subset=subset, target=target, f=f)


def _floyd_warshall(W):
    D = W.copy()
    np.fill_diagonal(D, 0.0)
    for k in range(len(D)):
        np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :], out=D)
    return D


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dijkstra_matches_floyd_warshall(seed):
    rng = np.random.default_rng(seed)
    domain = random_metric_poset(rng, max_points=12)
    n, g = domain.n, domain.order_matrix
    sources = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    # Asymmetric costs, with up to 90% of the edges free.
    W = np.where(rng.random((n, n)) < rng.uniform(0.0, 0.9), 0.0, domain.dist)
    np.testing.assert_allclose(
        extension._dijkstra(W, sources), _floyd_warshall(W)[sources], rtol=1e-12, atol=0.0
    )
    subset = tuple(sorted(int(s) for s in sources))
    for target, free in (
        (ml.scalar_cone(), g),
        (ml.ConeOrder(dim=1, generators=[[-1.0]]), g.T),
        (ml.trivial_cone(1), g | g.T),
    ):
        p = ml.ExtensionProblem(
            domain=domain, subset=subset, target=target, f=np.zeros((len(subset), 1))
        )
        want = _floyd_warshall(np.where(free, 0.0, domain.dist))[list(subset)]
        np.testing.assert_allclose(extension._ScalarPaths(p).D, want, rtol=1e-12, atol=0.0)


def _bellman_ford(W, sources):
    """Min-plus Bellman-Ford from the sources, iterated to its fixed point."""
    D = np.full((len(sources), len(W)), np.inf)
    D[np.arange(len(sources)), sources] = 0.0
    while True:
        nxt = np.minimum(D, np.min(D[:, :, None] + W[None], axis=1))
        if np.array_equal(nxt, D):
            return D
        D = nxt


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dijkstra_is_the_bellman_ford_fixed_point_bit_for_bit(seed):
    # Float addition of a nonnegative cost never lowers a sum, so both
    # compute the least left-to-right path sum, to the last bit.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    # Rounded costs give ties; a share of them are zero-cost edges.
    W = np.round(rng.exponential(size=(n, n)), int(rng.integers(0, 4)))
    W[rng.random((n, n)) < rng.uniform(0.0, 0.6)] = 0.0
    sources = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    D = extension._dijkstra(W, sources)
    assert np.array_equal(D, _bellman_ford(W, sources))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_scalar_route_matches_lp_oracle(seed):
    rng = np.random.default_rng(seed)
    p = _fitted_problem(rng, random_metric_poset(rng, max_points=12))
    k_min = ml.estimate_e(p).K
    k_lp = max(1.0, ml.min_lipschitz_lp(p)[0])
    assert abs(k_min - k_lp) <= 1e-9 * k_lp
    res = ml.scalar_extend(p)
    lp_status, _ = extension.lp_feasible_at_K(p, 1.0)
    assert res.status == lp_status
    assert res.K == (1.0 if res.status == extension.FEASIBLE else k_min)
    assert ml.verify_extension(p, res.values, res.K).max() <= 1e-9
    for K in (k_min, k_min * (1.0 + 1e-6), 2.0 * k_min):
        at_k = ml.feasibility_at_K(p, K)
        assert at_k.status == extension.FEASIBLE
        assert at_k.residuals.max() <= 1e-9
    if k_min > 1.0:
        assert ml.feasibility_at_K(p, k_min * (1.0 - 1e-6)).status == extension.INFEASIBLE


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_radial_domain_extends_at_one(seed):
    rng = np.random.default_rng(seed)
    domain = random_radial_poset(rng)
    assume(domain.n >= 3)
    p = _fitted_problem(rng, domain)
    assert ml.estimate_e(p).K == 1.0
    assert ml.scalar_extend(p).status == extension.FEASIBLE


# ---------------------------------------------------------------------------
# the L1/LINF vector LP route
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_linf_lp_decouples_into_scalar_routes(seed):
    # LINF pair rows and orthant order rows each bind one coordinate, so the
    # vector LP's least K is the worst coordinate's exact scalar K.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    p = _fitted_problem(rng, random_metric_poset(rng, max_points=12), ml.orthant(m, "linf"))
    k_lp = max(1.0, ml.min_lipschitz_lp(p)[0])
    k_scalar = max(
        ml.estimate_e(
            ml.ExtensionProblem(
                domain=p.domain, subset=p.subset, target=ml.scalar_cone(), f=p.f[:, c : c + 1]
            )
        ).K
        for c in range(m)
    )
    assert abs(k_lp - k_scalar) <= 1e-9 * k_scalar


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=6734745)  # the LP's K_min is 1 + 1 ulp, yet K = 1 fits
def test_l1_lp_decides_at_its_least_K(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    p = _fitted_problem(rng, random_metric_poset(rng, max_points=12), ml.orthant(m, "l1"))
    k_min = ml.estimate_e(p).K
    above = ml.feasibility_at_K(p, k_min * (1.0 + 1e-6))
    assert above.status == extension.FEASIBLE
    assert ml.verify_extension(p, above.values, above.K).max() <= 1e-9
    if k_min > 1.0:
        assert ml.feasibility_at_K(p, k_min * (1.0 - 1e-6)).status == extension.INFEASIBLE


def test_lp_does_not_report_feasible_below_its_least_K():
    # HiGHS accepts these rows at K_min (1 - 1e-6), within its absolute 1e-7
    # feasibility tolerance, with values whose residual is 9.1e-8.
    rng = np.random.default_rng(155)
    m = int(rng.integers(2, 4))
    dom = random_metric_poset(rng, max_points=14)
    size = int(rng.integers(2, dom.n))
    subset = sorted(rng.choice(dom.n, size=size, replace=False))
    f = np.column_stack([
        extension.fit_monotone_lipschitz(dom, subset, rng.normal(size=size) * 3.0, lipschitz=0.5 / m)
        for _ in range(m)
    ])
    p = ml.ExtensionProblem(domain=dom, subset=subset, target=ml.orthant(m, "linf"), f=f)
    k_min = ml.min_lipschitz_lp(p)[0]
    assert k_min == pytest.approx(0.25, rel=1e-9)
    assert ml.feasibility_at_K(p, k_min * (1.0 - 1e-6)).status != extension.FEASIBLE


# ---------------------------------------------------------------------------
# the L2 cutting-plane route, and order rows for every generated cone
# ---------------------------------------------------------------------------


def _ray_problem(scalar, cone, u):
    return ml.ExtensionProblem(
        domain=scalar.domain, subset=scalar.subset, target=cone, f=scalar.f * u
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_l2_bracket_holds_the_ray_oracle(seed):
    # u is a unit vector in C and C*: <u, .> is monotone and 1-Lipschitz and
    # maps f = phi u back to phi, and t -> t u lifts phi's extension, so the
    # least L2 K equals phi's scalar K. One generator, or fewer than dim,
    # gives a cone that does not span R^dim.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    cone = random_pointed_cone(rng, dim=dim, n_gen=int(rng.integers(1, dim + 2)))
    u = cones.monotone_direction(cone)
    scalar = _fitted_problem(rng, random_metric_poset(rng, max_points=12))
    k_s = ml.estimate_e(scalar).K
    p = _ray_problem(scalar, cone, u)
    est = ml.estimate_e(p)
    assert est.lo <= k_s * (1.0 + 1e-9)
    assert k_s <= est.hi * (1.0 + 1e-9)
    assert est.conclusive
    at_hi = ml.feasibility_at_K(p, est.hi)
    assert at_hi.status == extension.FEASIBLE
    assert at_hi.residuals.max() <= 1e-9
    if k_s > 1.0:
        assert ml.feasibility_at_K(p, k_s * (1.0 - 1e-3)).status == extension.INFEASIBLE


@pytest.mark.parametrize("norm", ["l1", "linf", "l2"])
@pytest.mark.parametrize(
    "gens",
    [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0]]],
    ids=["e1-e2-in-R3", "ray-in-R2"],
)
def test_cone_that_does_not_span_keeps_its_order(gens, norm):
    # x -> x_1 is monotone and 1-Lipschitz in every norm, and t -> t e1 lifts
    # the scalar witness extension, so K = sqrt(2.5). A facet form of either
    # cone describes a plane or a line, on which K = 1 fits.
    cone = ml.ConeOrder(dim=len(gens[0]), generators=gens, norm=norm)
    f = np.zeros((2, cone.dim))
    f[0, 0] = math.sqrt(5)
    p = ml.ExtensionProblem(domain=witness_poset(), subset=(0, 1), target=cone, f=f)
    est = ml.estimate_e(p)
    assert est.conclusive
    assert est.K == pytest.approx(SQRT25, rel=1e-6)
    assert ml.feasibility_at_K(p, 1.0).status == extension.INFEASIBLE


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_nine_dimensional_generated_cone(norm):
    # Every generator has a positive first coordinate and e1 is one, so e1 is
    # in C and C*: x -> x_1 is monotone and 1-Lipschitz, and the ray map
    # phi e1 needs exactly phi's scalar K.
    rng = np.random.default_rng(48)
    gens = rng.normal(size=(8, 9))
    gens[:, 0] = np.abs(gens[:, 0]) + 0.5
    cone = ml.ConeOrder(dim=9, generators=np.vstack([np.eye(9)[0], gens]), norm=norm)
    scalar = _fitted_problem(rng, random_metric_poset(rng, max_points=10))
    k_s = ml.estimate_e(scalar).K
    assert k_s > 1.0
    est = ml.estimate_e(_ray_problem(scalar, cone, np.eye(9)[0]))
    assert est.conclusive
    assert est.lo <= k_s * (1.0 + 1e-9)
    assert k_s <= est.hi * (1.0 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_l2_bracket_within_the_norm_sandwich(seed):
    # |x|_inf <= |x|_2 <= |x|_1 <= sqrt(m) |x|_2 <= m |x|_inf, so for one map
    # max(K_inf, K_1 / sqrt(m)) <= K_2 <= min(K_1, sqrt(m) K_inf).
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    p1 = _fitted_problem(rng, random_metric_poset(rng, max_points=12), ml.orthant(m, "l1"))
    k1, kinf, est = (
        ml.estimate_e(
            ml.ExtensionProblem(
                domain=p1.domain, subset=p1.subset, target=ml.orthant(m, norm), f=p1.f
            )
        )
        for norm in ("l1", "linf", "l2")
    )
    root = math.sqrt(m)
    assert est.conclusive
    assert est.hi >= max(kinf.K, k1.K / root) * (1.0 - 1e-7)
    assert est.lo <= min(k1.K, root * kinf.K) * (1.0 + 1e-7)


def test_scalar_route_trivial_target_forces_equal_values():
    # 1 >= 2 in the witness poset, so F(2) = F(1) = 2 on the trivial order,
    # and d(0, 2) = sqrt(2) forces K = 2 / sqrt(2).
    p = ml.ExtensionProblem(
        domain=witness_poset(), subset=(0, 1), target=ml.trivial_cone(1), f=[[0.0], [2.0]]
    )
    assert ml.estimate_e(p).K == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert ml.estimate_e(p).K == pytest.approx(ml.min_lipschitz_lp(p)[0], abs=1e-9)
    res = ml.scalar_extend(p)
    assert res.status == extension.INFEASIBLE
    assert res.values[2, 0] == pytest.approx(2.0, abs=1e-12)
    assert res.residuals.max() <= 1e-9


def _zigzag_problem(order, target):
    # Anchors a = 0 and b = 1 are not directly comparable, so construction
    # accepts f(b) > f(a); the chain through c = 2 still forces f(b) <= f(a).
    domain = ml.FiniteMetricPoset(
        labels=("a", "b", "c"), dist=1.0 - np.eye(3), order=frozenset(order)
    )
    return ml.ExtensionProblem(domain=domain, subset=(0, 1), target=target, f=[[0.0], [0.5]])


@pytest.mark.parametrize(
    "order, target",
    [
        ({(0, 2), (1, 2)}, ml.trivial_cone(1)),  # a >= c <= b on {0}
        ({(0, 2), (2, 1)}, ml.scalar_cone()),  # a >= c >= b, not transitive
    ],
    ids=["trivial-zigzag", "ray-intransitive"],
)
def test_scalar_route_raises_when_a_chain_blocks_every_K(order, target):
    p = _zigzag_problem(order, target)
    with pytest.raises(ConvergenceError):
        ml.scalar_extend(p)
    with pytest.raises(ConvergenceError):
        ml.estimate_e(p)
    with pytest.raises(ConvergenceError):
        ml.min_lipschitz_lp(p)
    for K in (1.0, 2.0, 1e6):
        assert ml.feasibility_at_K(p, K).status == extension.INFEASIBLE


def test_scalar_route_reversed_ray_mirrors_the_scalar_order():
    # On the ray R- an order-preserving map reverses the reals, so -f on R-
    # needs the same K as f on R+.
    p = ml.ExtensionProblem(
        domain=witness_poset(),
        subset=(0, 1),
        target=ml.ConeOrder(dim=1, generators=[[-1.0]]),
        f=[[-math.sqrt(5)], [0.0]],
    )
    res = ml.scalar_extend(p)
    assert res.status == extension.INFEASIBLE
    assert res.K == pytest.approx(SQRT25, abs=1e-12)
    assert res.residuals.max() <= 1e-9
    assert ml.feasibility_at_K(p, 1.0).status == extension.INFEASIBLE


def test_lp_oracle_reads_the_reversed_ray():
    # The LP takes its order rows from the cone's halfspace form, [-1] on R-,
    # so it agrees with the route on the mirrored witness problem.
    p = ml.ExtensionProblem(
        domain=witness_poset(),
        subset=(0, 1),
        target=ml.ConeOrder(dim=1, generators=[[-1.0]]),
        f=[[-math.sqrt(5)], [0.0]],
    )
    K, _ = ml.min_lipschitz_lp(p)
    assert K == pytest.approx(SQRT25, abs=1e-9)
    status, _ = extension.lp_feasible_at_K(p, 1.0)
    assert status == extension.INFEASIBLE


# ---------------------------------------------------------------------------
# problem construction guards
# ---------------------------------------------------------------------------


def test_problem_rejects_non_lipschitz_f():
    domain = ml.chain_instance([0.0, 1.0])
    with pytest.raises(StructureError):
        ml.ExtensionProblem(
            domain=domain, subset=(0, 1), target=ml.scalar_cone(), f=[[0.0], [5.0]]
        )


def test_problem_rejects_non_monotone_f():
    domain = ml.chain_instance([0.0, 1.0])
    with pytest.raises(StructureError):
        ml.ExtensionProblem(
            domain=domain, subset=(0, 1), target=ml.scalar_cone(), f=[[0.5], [0.0]]
        )



def _line_extend_loop(xs, fs, qs):
    """The per-query loop that ``line_extend`` ran before it was batched."""
    out = np.empty((len(qs), fs.shape[1]))
    for qi, q in enumerate(qs):
        k = int(np.searchsorted(xs, q))
        if k < len(xs) and xs[k] == q:
            out[qi] = fs[k]
        elif k == 0:
            out[qi] = fs[0]
        elif k == len(xs):
            out[qi] = fs[-1]
        else:
            a, b = xs[k - 1], xs[k]
            out[qi] = fs[k - 1] + (q - a) / (b - a) * (fs[k] - fs[k - 1])
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_interpolation_matches_the_per_query_loop(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    anchors = np.unique(np.round(rng.uniform(-5.0, 5.0, size=int(rng.integers(1, 8))), 1))
    xs, fs = monotone_line_map(rng, anchors, m)
    fs[0] = -0.0  # the constant tail and the hit must keep the sign of zero
    qs = np.concatenate([xs, np.round(rng.uniform(-7.0, 7.0, size=6), 2), [-np.inf, np.inf]])
    perm = rng.permutation(len(xs))
    got = ml.line_extend(xs[perm], fs[perm], qs, cone=ml.orthant(m))
    ref = _line_extend_loop(xs, fs, qs)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
    one = ml.line_extend(xs[perm], fs[perm], float(qs[-3]), cone=ml.orthant(m))
    assert one.shape == (m,) and np.array_equal(one, ref[-3])
