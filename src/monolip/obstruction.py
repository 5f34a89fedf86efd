"""Obstruction certificates: quantitative lower bounds on the extension
modulus extracted from radiality violations.

A violating triple plus any target space carrying an order-preserving ray
with a monotone Busemann function yields a two-point test map whose
K-Lipschitz monotone extensions force K >= rhs/lhs, where lhs < rhs are
the witness distances. The bound depends only on those distances, never on
the target. A certificate is checked by its premises: a few reads of the
order and the distances, and one division. The tests compare the bound
with the exact modulus of the induced three-point scalar problem, which
they build from the witness (``induced_scalar_problem`` in
``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import poset as poset_mod
from .errors import HypothesisError, StructureError

MIN_BOUND_MARGIN = 1e-12


@dataclass(frozen=True, eq=False)
class TestMap:
    """Two-point admissible map: the top anchor rides the ray at parameter
    equal to the anchor distance, the bottom anchor sits at the basepoint."""

    anchor_hi: int
    anchor_lo: int
    value_hi: object
    value_lo: object
    separation: float


@dataclass(frozen=True, eq=False)
class ObstructionCertificate:
    witness: poset_mod.RadialityWitness
    target: str
    bound: float


def _anchors(poset, witness, target):
    """The witness's anchors (hi, lo), once its indices are in range, rhs =
    d(hi, lo) holds and the target has a ray; the ray is not evaluated."""
    if any(not 0 <= i < poset.n for i in witness.triple):
        raise StructureError("witness indices out of range for this poset")
    hi, lo = witness.anchors
    if not _reads(poset.dist, hi, lo, witness.rhs):
        raise _failed(witness, "rhs = d(hi, lo)")
    if not hasattr(target, "ray_point"):
        raise HypothesisError(
            "target must expose an order-preserving ray with a monotone "
            "Busemann function (ray_point missing)"
        )
    return hi, lo


def build_test_map(poset, witness, target):
    """The two-point admissible map realizing the witness obstruction: the
    witness's anchors (hi, lo), separated by rhs = d(hi, lo)."""
    hi, lo = _anchors(poset, witness, target)
    sep = float(poset.dist[hi, lo])
    return TestMap(
        anchor_hi=hi,
        anchor_lo=lo,
        value_hi=target.ray_point(sep),
        value_lo=target.ray_point(0.0),
        separation=sep,
    )


def _reads(d, a, b, value):
    """d(a, b) and d(b, a) both equal ``value`` to 1e-9 (1 + d)."""
    return all(abs(v - value) <= 1e-9 * (1.0 + v) for v in (float(d[a, b]), float(d[b, a])))


def _failed(witness, premise):
    return StructureError(f"{witness.kind} witness {witness.triple}: premise {premise} fails")


def certify_obstruction(poset, witness, target):
    """Certificate with the bound K >= rhs/lhs.

    The bound is the Busemann-composition argument: with phi = -B o F for
    any order-preserving K-Lipschitz extension F of the test map, phi(top
    anchor) equals the separation rhs, phi at the dominated point is
    nonpositive, and K-Lipschitzness of phi across the short distance lhs
    forces K * lhs >= rhs. It holds once its premises do. Each is checked
    from the order, as the witness scan reads it (``poset.bullet`` and
    ``poset.strict_matrix``), and the distances d, and a failed premise
    raises StructureError naming it:

    * the kind's order relations: RD1 (x >=* y > z) needs not y >= x and
      y > z; RD2 (x > y >=* z) needs x > y and not z >= y;
    * 0 < lhs = d(x, z) and rhs = d(hi, lo) for the anchors (hi, lo), each
      pair read in both orientations, to 1e-9 (1 + d);
    * rhs/lhs > 1 + MIN_BOUND_MARGIN.

    A reader checks the bound the same way: a few reads and one division.
    The target is checked for a ray (else HypothesisError) but never
    evaluated, since the bound does not depend on it.
    """
    _anchors(poset, witness, target)
    x, y, z = witness.triple
    strict = poset.strict_matrix
    if witness.kind == "RD1":
        relations = (("not y >= x", poset.bullet(x, y)), ("y > z", strict[y, z]))
    else:
        relations = (("x > y", strict[x, y]), ("not z >= y", poset.bullet(y, z)))
    for premise, holds in relations:
        if not holds:
            raise _failed(witness, premise)
    if not (witness.lhs > 0.0 and _reads(poset.dist, x, z, witness.lhs)):
        raise _failed(witness, "0 < lhs = d(x, z)")
    bound = witness.rhs / witness.lhs
    if bound <= 1.0 + MIN_BOUND_MARGIN:
        raise _failed(witness, f"rhs/lhs = {bound} > 1 + {MIN_BOUND_MARGIN}")
    return ObstructionCertificate(
        witness=witness,
        target=type(target).__name__,
        bound=bound,
    )


def e2_lower_bound(poset, target, tol=poset_mod.DEFAULT_TOL):
    """Best certified lower bound over all radiality witnesses (1 if the
    poset is radial); returns (bound, certificate_or_None)."""
    best = poset_mod.max_ratio_witness(poset, tol)
    if best is None:
        return 1.0, None
    cert = certify_obstruction(poset, best, target)
    return cert.bound, cert
