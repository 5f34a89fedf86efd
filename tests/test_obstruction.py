"""Obstruction certificates: two-point test maps and certified lower
bounds on the extension modulus."""

import math

import numpy as np
import pytest

import monolip as ml
from monolip import extension, obstruction, trees
from monolip.errors import HypothesisError, StructureError

SQRT25 = math.sqrt(2.5)


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
    from monolip.poset import RadialityWitness

    p = rd1_poset()
    fake = RadialityWitness(
        kind="RD1", triple=(0, 1, 2), lhs=math.sqrt(5), rhs=math.sqrt(5)
    )
    with pytest.raises(StructureError):
        ml.certify_obstruction(p, fake, vertical_ray())


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
    induced = obstruction.induced_scalar_problem(p, w)
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


def test_e2_lower_bound_grid_matches_enumeration():
    grid = ml.grid_instance(2, 5, 1.0, ml.orthant(2))
    bound, cert = ml.e2_lower_bound(grid, vertical_ray())
    best_ratio = max(w.ratio for w in ml.iter_radiality_witnesses(grid))
    assert bound == pytest.approx(best_ratio, abs=1e-9)
    assert bound > 1.0
