"""Acceptance criteria for the package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import math
import time

import numpy as np
import pytest

import monolip as ml
from monolip import extension, spaces

from conftest import (
    induced_scalar_problem,
    monotone_line_map,
    naive_radiality_witnesses,
    random_metric_poset,
    random_pointed_cone,
    random_radial_poset,
)

SQRT25 = math.sqrt(2.5)


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE {num}] {status} - {desc}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {desc} {detail}"


def test_acceptance_1_non_extension_witness():
    t0 = time.perf_counter()
    poset = ml.poset_from_points(
        [(1.0, -2.0), (0.0, 0.0), (0.0, -1.0)], ml.orthant(2)
    )
    witness = ml.check_radiality(poset)
    ok = witness is not None and witness.kind == "RD1"

    ray = ml.HilbertRay(dim=2, e=np.array([0.0, 1.0]), cone=ml.orthant(2))
    cert = ml.certify_obstruction(poset, witness, ray)
    ok = ok and abs(cert.bound - SQRT25) <= 1e-8

    induced = induced_scalar_problem(poset, witness)
    est = ml.estimate_e(induced)
    ok = ok and est.conclusive and abs(est.K - SQRT25) <= 1e-4

    ok = ok and ml.feasibility_at_K(induced, 1.0).status == extension.INFEASIBLE

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        1,
        "non-extension witness: RD1 witness, certified bound sqrt(2.5), "
        "matching estimate, infeasible at K=1",
        ok,
        f"bound={cert.bound:.10f}, estimate={est.K:.6f}, {elapsed:.3f}s",
    )


def test_acceptance_2_kirszbraun_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    ok = True
    for _ in range(50):
        pts = rng.normal(size=(4, 3)) * rng.uniform(0.5, 3.0)
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        domain = ml.FiniteMetricPoset(
            labels=tuple(str(i) for i in range(4)),
            dist=dist,
            order=frozenset((i, i) for i in range(4)),
        )
        subset = tuple(sorted(rng.choice(4, size=2, replace=False)))
        problem = ml.ExtensionProblem(
            domain=domain,
            subset=subset,
            target=ml.trivial_cone(3),
            f=0.9 * pts[list(subset)],
        )
        est = ml.estimate_e(problem)
        worst = max(worst, abs(est.K - 1.0))
        ok = ok and abs(est.K - 1.0) <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(
        2,
        "Kirszbraun sanity: estimate = 1 within 1e-3 on 50 trivial-order "
        "instances in under 30 s",
        ok,
        f"worst |K-1|={worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_3_line_interpolation_suite():
    rng = np.random.default_rng(3)
    cone = ml.orthant(3)
    worst = 0.0
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 9))
        xs, vals = monotone_line_map(rng, rng.uniform(-10, 10, size=k), 3)
        grid = np.linspace(-12.0, 12.0, 200)
        merged = np.unique(np.concatenate([xs, grid]))
        values = ml.line_extend(xs, vals, merged, cone=cone)
        domain = ml.chain_instance(merged)
        subset = tuple(int(np.searchsorted(merged, x)) for x in xs)
        problem = ml.ExtensionProblem(domain=domain, subset=subset, target=cone, f=vals)
        resid = ml.verify_extension(problem, values, 1.0).max()
        worst = max(worst, resid)
        ok = ok and resid <= 1e-9
        # constant tails are exact beyond min/max of the anchor set
        low = ml.line_extend(xs, vals, float(xs.min()) - 7.3, cone=cone)
        high = ml.line_extend(xs, vals, float(xs.max()) + 4.1, cone=cone)
        ok = ok and np.array_equal(low, vals[0]) and np.array_equal(high, vals[-1])
    _report(
        3,
        "line interpolation: residuals <= 1e-9 on 200-point query grids "
        "and exact constant tails, 100 random instances",
        ok,
        f"worst residual={worst:.2e}",
    )


def test_acceptance_4_busemann_agreement():
    rng = np.random.default_rng(4)
    ok = True
    worst_h = worst_hn = worst_t = 0.0
    # Hilbert: closed form vs limit at T = 1e6 for |a| <= 10
    for _ in range(60):
        cone = random_pointed_cone(rng, dim=int(rng.integers(2, 5)))
        ray = spaces.hilbert_ray_from_cone(cone)
        a = rng.normal(size=cone.dim)
        a *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(a), 1e-12)
        gap = abs(ray.ray_gap(a, 1e6) - ray.busemann(a))
        worst_h = max(worst_h, gap)
        ok = ok and gap <= 1e-4
    # hyperbolic half-space: -log(height) vs limit at T = 1e4
    h3 = ml.HalfSpaceHn(3)
    for _ in range(60):
        a = np.append(rng.normal(size=2) * 3, rng.uniform(0.1, 10.0))
        gap = abs(h3.ray_gap(a, 1e4) - h3.busemann(a))
        worst_hn = max(worst_hn, gap)
        ok = ok and gap <= 1e-4
    # trees: exact once the horizon passes the hitting time
    for _ in range(100):
        tree = ml.random_tree(int(rng.integers(3, 51)), rng)
        for v in tree.vertices:
            t_a, _, _ = tree.hitting(tree.canon(v))
            horizon = t_a + float(rng.uniform(0.5, 50.0))
            gap = abs(tree.ray_gap(tree.canon(v), horizon) - tree.busemann(v))
            worst_t = max(worst_t, gap)
            ok = ok and gap <= 1e-9
    _report(
        4,
        "Busemann closed forms agree with the limit oracle on Hilbert, "
        "hyperbolic, and tree targets",
        ok,
        f"worst gaps: hilbert={worst_h:.2e}, halfspace={worst_hn:.2e}, "
        f"tree={worst_t:.2e}",
    )


def test_acceptance_5_tree_order_characterization():
    rng = np.random.default_rng(5)
    ok = True
    pairs = 0
    for _ in range(100):
        tree = ml.random_tree(int(rng.integers(3, 51)), rng)
        for a in tree.vertices:
            for b in tree.vertices:
                agree = tree.order_path(a, b) == tree.order_busemann(a, b)
                ok = ok and agree
                if a != b and tree.order_path(a, b):
                    pairs += 1
                    ca, cb = tree.canon(a), tree.canon(b)
                    dab = tree.distance(ca, cb)
                    for s in rng.uniform(0.0, 1.0, size=10) * dab:
                        c = tree.point_on_geodesic(ca, cb, float(s))
                        ok = ok and tree.order_path(ca, c) and tree.order_path(c, cb)
    _report(
        5,
        "tree order: path and Busemann predicates agree on all vertex "
        "pairs of 100 random trees; geodesic heredity holds",
        ok,
        f"{pairs} comparable pairs exercised",
    )


def test_acceptance_6_moreau_and_monotone_direction():
    rng = np.random.default_rng(6)
    ok = True
    worst_m = 0.0
    for _ in range(1000):
        cone = random_pointed_cone(rng)
        a = rng.normal(size=cone.dim) * 4
        split = ml.moreau_split(cone, a)
        scale = 1.0 + np.linalg.norm(a)
        m1 = np.linalg.norm(a - split.part_cone - split.part_polar) / scale
        m2 = abs(np.dot(split.part_cone, split.part_polar)) / scale**2
        worst_m = max(worst_m, m1, m2)
        ok = ok and m1 <= 1e-8 and m2 <= 1e-8

        e = ml.monotone_direction(cone)
        ok = ok and abs(np.linalg.norm(e) - 1.0) <= 1e-9
        ok = ok and ml.contains(cone, e, 1e-7) and ml.dual_contains(cone, e, 1e-7)

        # Busemann of the induced ray is order-decreasing: for a >= b the
        # difference a - b is a conic combination, so <a - b, e> >= 0 and
        # B(a) = -<a, e> <= B(b). Check 1e4 random comparable pairs.
        coeffs = rng.uniform(0.0, 1.0, size=(10_000, cone.generators.shape[0]))
        diffs = coeffs @ cone.generators
        ok = ok and bool(np.all(diffs @ e >= -1e-9 * (1 + np.abs(diffs).sum(axis=1))))
    _report(
        6,
        "Moreau identities and monotone directions on 1000 random pointed "
        "cones; induced Busemann is order-decreasing",
        ok,
        f"worst Moreau defect={worst_m:.2e}",
    )


def test_acceptance_7_componentwise_bound():
    rng = np.random.default_rng(7)
    ok = True
    worst_l2 = worst_linf = 0.0
    for _ in range(50):
        domain = random_radial_poset(rng)
        k = min(domain.n, int(rng.integers(2, 5)))
        subset = tuple(sorted(rng.choice(domain.n, size=k, replace=False)))

        f_l2 = np.column_stack(
            [
                extension.fit_monotone_lipschitz(
                    domain, subset, rng.normal(size=k) * 3, lipschitz=1.0 / math.sqrt(3)
                )
                for _ in range(3)
            ]
        )
        p_l2 = ml.ExtensionProblem(
            domain=domain, subset=subset, target=ml.orthant(3), f=f_l2, tol=1e-6
        )
        r_l2 = ml.componentwise_extend(p_l2)
        worst_l2 = max(worst_l2, r_l2.K)
        ok = ok and r_l2.status == extension.FEASIBLE and r_l2.K <= math.sqrt(3) + 1e-9

        f_linf = np.column_stack(
            [
                extension.fit_monotone_lipschitz(
                    domain, subset, rng.normal(size=k) * 3, lipschitz=1.0
                )
                for _ in range(3)
            ]
        )
        p_linf = ml.ExtensionProblem(
            domain=domain,
            subset=subset,
            target=ml.orthant(3, norm="linf"),
            f=f_linf,
            tol=1e-6,
        )
        r_linf = ml.componentwise_extend(p_linf)
        worst_linf = max(worst_linf, r_linf.K)
        ok = ok and r_linf.status == extension.FEASIBLE and r_linf.K <= 1.0 + 1e-9
    _report(
        7,
        "componentwise extension: K <= sqrt(3) for L2 and K <= 1 for LINF "
        "targets on 50 random radial posets",
        ok,
        f"max K: l2={worst_l2:.6f} (cap {math.sqrt(3):.6f}), linf={worst_linf:.6f}",
    )


def test_acceptance_8_oracle_equivalence():
    rng = np.random.default_rng(8)
    ok = True
    # radiality vs an independent naive triple loop
    for _ in range(200):
        poset = random_metric_poset(rng, max_points=20)
        naive = naive_radiality_witnesses(poset)
        ours = [
            (w.kind, w.triple, w.lhs, w.rhs)
            for w in ml.iter_radiality_witnesses(poset)
        ]
        ok = ok and sorted(naive) == sorted(ours)
        ok = ok and (ml.check_radiality(poset) is None) == (not naive)
    # scalar estimate vs the exact LP oracle on small instances
    worst = 0.0
    for _ in range(25):
        poset = random_metric_poset(rng, max_points=8)
        k = int(rng.integers(2, min(4, poset.n) + 1))
        subset = tuple(sorted(rng.choice(poset.n, size=k, replace=False)))
        fvals = extension.fit_monotone_lipschitz(poset, subset, rng.normal(size=k) * 3)
        problem = ml.ExtensionProblem(
            domain=poset,
            subset=subset,
            target=ml.scalar_cone(),
            f=fvals[:, None],
            tol=1e-6,
        )
        k_lp = max(1.0, ml.min_lipschitz_lp(problem)[0])
        est = ml.estimate_e(problem, tol=1e-8)
        gap = abs(est.K - k_lp)
        worst = max(worst, gap)
        ok = ok and est.conclusive and gap <= 1e-6
    _report(
        8,
        "oracle equivalence: radiality scan matches the naive triple loop "
        "on 200 instances; scalar estimates match the LP oracle within 1e-6",
        ok,
        f"worst LP gap={worst:.2e}",
    )
