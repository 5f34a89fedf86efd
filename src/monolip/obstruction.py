"""Obstruction certificates: quantitative lower bounds on the extension
modulus extracted from radiality violations.

A violating triple plus any target space carrying an order-preserving ray
with a monotone Busemann function yields a two-point test map whose
K-Lipschitz monotone extensions force K >= rhs/lhs, where lhs < rhs are
the witness distances. The bound depends only on those distances, never on
the target; every emitted certificate is cross-validated against the exact
modulus of the induced three-point scalar problem, which the shortest-path
scalar route computes independently of the witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones, extension, poset as poset_mod
from .errors import HypothesisError, StructureError

CROSS_CHECK_TOL = 1e-4

MIN_BOUND_MARGIN = 1e-12


@dataclass(frozen=True)
class TestMap:
    """Two-point admissible map: the top anchor rides the ray at parameter
    equal to the anchor distance, the bottom anchor sits at the basepoint."""

    anchor_hi: int
    anchor_lo: int
    value_hi: object
    value_lo: object
    separation: float


@dataclass(frozen=True)
class ObstructionCertificate:
    witness: poset_mod.RadialityWitness
    target: str
    test_map: TestMap
    bound: float


def _ray_point(target, t):
    if not hasattr(target, "ray_point"):
        raise HypothesisError(
            "target must expose an order-preserving ray with a monotone "
            "Busemann function (ray_point missing)"
        )
    return target.ray_point(t)


def build_test_map(poset, witness, target):
    """The two-point admissible map realizing the witness obstruction.

    RD1 (x >=* y > z): anchors x and y, separated by d(x, y).
    RD2 (x > y >=* z): anchors y and z, separated by d(y, z).
    """
    x, y, z = witness.triple
    n = poset.n
    if any(not 0 <= i < n for i in (x, y, z)):
        raise StructureError("witness indices out of range for this poset")
    d = poset.dist
    if witness.kind == "RD1":
        hi, lo = x, y
    elif witness.kind == "RD2":
        hi, lo = y, z
    else:
        raise StructureError(f"unknown witness kind {witness.kind!r}")
    sep = float(d[hi, lo])
    if abs(sep - witness.rhs) > 1e-9 * (1.0 + sep):
        raise StructureError("witness distances do not match the poset")
    return TestMap(
        anchor_hi=hi,
        anchor_lo=lo,
        value_hi=_ray_point(target, sep),
        value_lo=_ray_point(target, 0.0),
        separation=sep,
    )


def certify_obstruction(poset, witness, target, cross_check=True):
    """Certificate with the bound K >= rhs/lhs.

    The bound is the Busemann-composition argument: with phi = -B o F for
    any order-preserving K-Lipschitz extension F of the test map, phi(top
    anchor) equals the separation rhs, phi at the dominated point is
    nonpositive, and K-Lipschitzness of phi across the short distance lhs
    forces K * lhs >= rhs. A reader checks it from the witness's lhs and
    rhs alone.
    """
    test_map = build_test_map(poset, witness, target)
    bound = witness.rhs / witness.lhs
    if bound <= 1.0 + MIN_BOUND_MARGIN:
        raise StructureError(
            f"witness ratio {bound} is not bounded away from 1; not certifiable"
        )
    if cross_check:
        modulus = _scalar_modulus(poset, witness)
        if abs(modulus - bound) > CROSS_CHECK_TOL:
            raise StructureError(
                f"scalar-modulus cross-check disagrees with the certified bound: "
                f"{modulus} vs {bound}"
            )
    return ObstructionCertificate(
        witness=witness,
        target=type(target).__name__,
        test_map=test_map,
        bound=bound,
    )


def induced_scalar_problem(poset, witness):
    """The three-point scalar problem whose modulus equals the bound."""
    x, y, z = witness.triple
    idx = [x, y, z]
    sub = _subposet(poset, idx)
    if witness.kind == "RD1":
        anchors, sep = (0, 1), float(poset.dist[x, y])
    else:
        anchors, sep = (1, 2), float(poset.dist[y, z])
    f = np.array([[sep], [0.0]])
    return extension.ExtensionProblem(
        domain=sub, subset=anchors, target=cones.scalar_cone(), f=f
    )


def _scalar_modulus(poset, witness):
    """Exact minimal K >= 1 of the induced problem, by shortest paths."""
    return extension.estimate_e(induced_scalar_problem(poset, witness)).K


def _subposet(poset, indices):
    sub = np.ix_(indices, indices)
    labels = tuple(poset.labels[i] for i in indices)
    return poset_mod.FiniteMetricPoset(
        labels=labels, dist=poset.dist[sub], order=poset.order_matrix[sub]
    )


def e2_lower_bound(poset, target, tol=1e-9, triple_cap=poset_mod.DEFAULT_TRIPLE_CAP):
    """Best certified lower bound over all radiality witnesses (1 if the
    poset is radial); returns (bound, certificate_or_None)."""
    best = poset_mod.max_ratio_witness(poset, tol, triple_cap)
    if best is None:
        return 1.0, None
    cert = certify_obstruction(poset, best, target)
    return cert.bound, cert
