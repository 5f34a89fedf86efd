"""Obstruction certificates: two-point test maps and certified lower
bounds on the extension modulus."""

import itertools
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import monolip as ml
from monolip import extension, files, trees
from monolip.errors import HypothesisError, StructureError
from monolip.poset import RadialityWitness

from conftest import induced_scalar_problem, random_metric_poset

SQRT25 = math.sqrt(2.5)
HERE = os.path.dirname(os.path.abspath(__file__))
WITNESS = os.path.join(HERE, os.pardir, "instances", "witness_poset.json")


def rd1_poset():
    return ml.poset_from_points([(1.0, -2.0), (0.0, 0.0), (0.0, -1.0)], ml.orthant(2))


def rd2_poset():
    # x=(0,1) > y=(0,0), y bullet z=(-1,2); d(x,z)=sqrt(2) < sqrt(5)=d(y,z)
    return ml.poset_from_points([(0.0, 1.0), (0.0, 0.0), (-1.0, 2.0)], ml.orthant(2))


def vertical_ray():
    return ml.HilbertRay(dim=2, e=np.array([0.0, 1.0]), cone=ml.orthant(2))


def rd2_witness():
    p = rd2_poset()
    for w in ml.iter_radiality_witnesses(p):
        if w.kind == "RD2" and w.triple == (0, 1, 2):
            return p, w
    raise AssertionError("expected an RD2 witness on this poset")


# ---------------------------------------------------------------------------
# test maps
# ---------------------------------------------------------------------------


def test_build_test_map_rd1_hilbert():
    p = rd1_poset()
    w = ml.check_radiality(p)
    tm = ml.build_test_map(p, w, vertical_ray())
    assert (tm.anchor_hi, tm.anchor_lo) == (0, 1)
    np.testing.assert_allclose(tm.value_hi, [0.0, math.sqrt(5)], atol=1e-12)
    np.testing.assert_allclose(tm.value_lo, [0.0, 0.0], atol=1e-12)
    assert tm.separation == pytest.approx(math.sqrt(5), abs=1e-12)


def test_build_test_map_rd2_anchors():
    p, w = rd2_witness()
    tm = ml.build_test_map(p, w, vertical_ray())
    assert (tm.anchor_hi, tm.anchor_lo) == (1, 2)
    np.testing.assert_allclose(tm.value_hi, [0.0, math.sqrt(5)], atol=1e-12)


def test_test_map_is_admissible_on_two_points():
    p = rd1_poset()
    w = ml.check_radiality(p)
    tm = ml.build_test_map(p, w, vertical_ray())
    # 1-Lipschitz by construction: the two values sit on a unit-speed ray
    assert np.linalg.norm(np.asarray(tm.value_hi) - np.asarray(tm.value_lo)) == (
        pytest.approx(tm.separation, abs=1e-12)
    )


def test_build_test_map_needs_a_ray_target():
    p = rd1_poset()
    w = ml.check_radiality(p)
    with pytest.raises(HypothesisError):
        ml.build_test_map(p, w, object())


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certify_rd1_bound():
    p = rd1_poset()
    cert = ml.certify_obstruction(p, ml.check_radiality(p), vertical_ray())
    assert cert.bound == pytest.approx(SQRT25, abs=1e-8)


def test_certify_rd2_bound():
    p, w = rd2_witness()
    cert = ml.certify_obstruction(p, w, vertical_ray())
    assert cert.bound == pytest.approx(SQRT25, abs=1e-8)


def test_certify_refuses_boundary_ratio():
    # every other premise holds: y > z, y and x incomparable, d(x, z) = d(x, y)
    p = ml.FiniteMetricPoset("xyz", 1.0 - np.eye(3), [(0, 0), (1, 1), (2, 2), (1, 2)])
    fake = RadialityWitness(kind="RD1", triple=(0, 1, 2), lhs=1.0, rhs=1.0)
    with pytest.raises(StructureError, match=r"premise rhs/lhs = 1.0 > 1 \+ 1e-12 fails"):
        ml.certify_obstruction(p, fake, vertical_ray())


def _edited(p, order=(), dist=()):
    """``p`` with entries ((i, j), value) of its order and distances set."""
    g, d = p.order_matrix.copy(), p.dist.copy()
    for (i, j), v in order:
        g[i, j] = v
    for (i, j), v in dist:
        d[i, j] = v
    return ml.FiniteMetricPoset(p.labels, d, g)


def _broken_premises():
    """(premise, poset, witness): every premise but the named one holds."""
    p = rd1_poset()
    w = ml.check_radiality(p)  # RD1 (0, 1, 2), lhs d(0, 2), rhs d(0, 1)
    q, v = rd2_witness()  # RD2 (0, 1, 2), lhs d(0, 2), rhs d(1, 2)
    off = 1.0 + 1e-6
    return [
        ("not y >= x", _edited(p, order=[((1, 0), True)]), w),
        ("y > z", _edited(p, order=[((1, 2), False)]), w),
        ("x > y", _edited(q, order=[((0, 1), False)]), v),
        ("not z >= y", _edited(q, order=[((2, 1), True)]), v),
        # d(x, z) = lhs = 0: only the sign premise fails
        ("0 < lhs", _edited(p, dist=[((0, 2), 0.0), ((2, 0), 0.0)]), replace(w, lhs=0.0)),
        ("0 < lhs", p, replace(w, lhs=w.lhs * off)),
        ("0 < lhs", _edited(p, dist=[((2, 0), p.dist[2, 0] * off)]), w),
        ("rhs = d", p, replace(w, rhs=w.rhs * off)),
        ("rhs = d", _edited(p, dist=[((1, 0), p.dist[1, 0] * off)]), w),
        ("rhs = d", _edited(q, dist=[((2, 1), q.dist[2, 1] * off)]), v),
    ]


@pytest.mark.parametrize("premise, poset, witness", _broken_premises())
def test_certify_names_the_premise_that_fails(premise, poset, witness):
    with pytest.raises(StructureError, match=f"premise {re.escape(premise)}"):
        ml.certify_obstruction(poset, witness, vertical_ray())


def test_certificates_run_no_solver(monkeypatch):
    rng = np.random.default_rng(11)
    posets = [files.load_poset(WITNESS), rd2_poset()]
    posets += [random_metric_poset(rng) for _ in range(20)]
    want = [max((w.ratio for w in ml.iter_radiality_witnesses(p)), default=1.0) for p in posets]

    def refuse(*args, **kwargs):
        raise AssertionError("a certificate ran a solver")

    for name in ("estimate_e", "_ScalarPaths", "_shortest_paths"):
        monkeypatch.setattr(extension, name, refuse)
    assert [ml.e2_lower_bound(p, vertical_ray())[0] for p in posets] == want
    assert max(want) > 1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_certified_bound_is_the_induced_scalar_modulus(seed):
    # the exact modulus of the induced three-point problem, by shortest
    # paths, reproduces every certified bound bit for bit
    p = random_metric_poset(np.random.default_rng(seed))
    for w in itertools.islice(ml.iter_radiality_witnesses(p), 40):
        if w.ratio > 1.0 + 1e-6:
            modulus = ml.estimate_e(induced_scalar_problem(p, w)).K
            assert modulus == ml.certify_obstruction(p, w, vertical_ray()).bound


def test_certificate_value_is_target_independent():
    p = rd1_poset()
    w = ml.check_radiality(p)
    targets = [vertical_ray(), ml.HalfSpaceHn(3), trees.tripod()]
    bounds = [ml.certify_obstruction(p, w, t).bound for t in targets]
    assert max(bounds) - min(bounds) <= 1e-12


def test_certificate_brackets_scalar_feasibility():
    p = rd1_poset()
    w = ml.check_radiality(p)
    cert = ml.certify_obstruction(p, w, vertical_ray())
    induced = induced_scalar_problem(p, w)
    below = ml.feasibility_at_K(induced, cert.bound - 1e-3)
    above = ml.feasibility_at_K(induced, cert.bound + 1e-3)
    assert below.status == extension.INFEASIBLE
    assert above.status == extension.FEASIBLE


# ---------------------------------------------------------------------------
# aggregated lower bound
# ---------------------------------------------------------------------------


def test_e2_lower_bound_radial_is_one():
    chain = ml.chain_instance([0.0, 1.0, 3.0])
    bound, cert = ml.e2_lower_bound(chain, vertical_ray())
    assert bound == 1.0 and cert is None


def test_e2_lower_bound_witness_poset():
    bound, cert = ml.e2_lower_bound(rd1_poset(), vertical_ray())
    assert bound == pytest.approx(SQRT25, abs=1e-8)
    assert cert is not None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relabelling_points_keeps_the_bound(seed):
    rng = np.random.default_rng(seed)
    # a coarse grid makes ties between ratios, which may break differently
    raw = rng.uniform(-5.0, 5.0, size=(int(rng.integers(3, 30)), 2))
    pts = np.unique(np.round(raw, 1), axis=0)
    perm = rng.permutation(len(pts))
    p = ml.poset_from_points(pts, ml.orthant(2))
    bound, cert = ml.e2_lower_bound(p, vertical_ray())
    q = ml.poset_from_points(pts[perm], ml.orthant(2))
    moved, moved_cert = ml.e2_lower_bound(q, vertical_ray())
    assert moved == bound
    if cert is None:
        assert moved_cert is None
        return
    # point i of the relabelled poset is point perm[i] of the first
    ratios = {(w.kind, w.triple): w.ratio for w in ml.iter_radiality_witnesses(p)}
    w = moved_cert.witness
    assert ratios[w.kind, tuple(int(perm[i]) for i in w.triple)] == bound


def test_e2_lower_bound_grid_matches_enumeration():
    grid = ml.grid_instance(2, 5, 1.0, ml.orthant(2))
    bound, cert = ml.e2_lower_bound(grid, vertical_ray())
    best_ratio = max(w.ratio for w in ml.iter_radiality_witnesses(grid))
    assert bound == pytest.approx(best_ratio, abs=1e-9)
    assert bound > 1.0
