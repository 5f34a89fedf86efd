"""The batched cone kernel and the array-code pair and triple scans against
per-vector and per-pair reference loops."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import monolip as ml
from monolip import cones, obstruction, poset as poset_mod, spaces
from monolip.errors import StructureError

from conftest import facet_normals, naive_radiality_witnesses, random_pointed_cone

SEEDS = st.integers(0, 2**32 - 1)
FEW = settings(max_examples=40, deadline=None)


def one_norm(v, tag):
    """The norm of a single vector, computed as the loop code did."""
    if tag == "l1":
        return float(np.sum(np.abs(v)))
    if tag == "l2":
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v))) if v.size else 0.0


def one_contains(cone, v, tol=1e-9):
    """Membership by the per-vector NNLS residual."""
    return cones._nnls_fit(cone.generators, v)[1] <= tol * (1.0 + np.linalg.norm(v))


def _cone_and_generators(rng, kind):
    """A cone of the given kind plus generators of the same cone for the
    per-vector NNLS reference."""
    if kind == "orthant":
        dim = int(rng.integers(1, 5))
        return ml.orthant(dim), np.eye(dim)
    if kind == "scalar":
        return ml.scalar_cone(), np.eye(1)
    if kind == "trivial":
        dim = int(rng.integers(1, 5))
        return ml.trivial_cone(dim), np.zeros((0, dim))
    if kind == "trivial-halfspace":
        dim = int(rng.integers(1, 5))
        normals = np.vstack([np.eye(dim), -np.ones((1, dim))])
        return ml.ConeOrder(dim=dim, halfspaces=normals), np.zeros((0, dim))
    dim = int(rng.integers(2, 4))
    # full-dimensional, so that its facet normals describe the same cone
    gen = random_pointed_cone(rng, dim=dim, n_gen=dim + int(rng.integers(0, 3)))
    if kind == "generated":
        return gen, gen.generators
    half = ml.ConeOrder(dim=gen.dim, halfspaces=facet_normals(gen.generators))
    return half, gen.generators


def _vectors(rng, generators, dim, k=30):
    """Random vectors mixed with members (conic combinations)."""
    out = rng.normal(size=(k, dim)) * 3.0
    if generators.shape[0]:
        out[::3] = rng.uniform(0.0, 2.0, size=(len(out[::3]), generators.shape[0])) @ generators
    return out


KINDS = ["orthant", "scalar", "trivial", "trivial-halfspace", "generated", "halfspace"]


@pytest.mark.parametrize("kind", KINDS)
@FEW
@given(seed=SEEDS)
def test_kernel_matches_per_vector_nnls(kind, seed):
    rng = np.random.default_rng(seed)
    cone, gens = _cone_and_generators(rng, kind)
    V = _vectors(rng, gens, cone.dim)
    ref = [cones._nnls_fit(gens, v) for v in V]
    scale = 1.0 + np.linalg.norm(V, axis=1)
    resid = np.array([r for _, r in ref])
    member = resid <= 1e-12 * scale
    # keep to vectors well away from the tolerance band of either test
    away = member | (resid > 1e-6 * scale)
    if cone.halfspaces is not None:
        worst = np.min(V @ cone.halfspaces.T, axis=1)
        away &= member | (worst < -1e-6 * scale)
    assume(away.all())
    np.testing.assert_array_equal(cones.contains_many(cone, V), member)
    proj = cones.project_many(cone, V)
    expect = np.array([p for p, _ in ref])
    np.testing.assert_allclose(proj, expect, rtol=0.0, atol=1e-12 * scale.max())
    for v, p, m in zip(V, proj, member):
        assert ml.contains(cone, v) == m
        np.testing.assert_array_equal(ml.project_cone(cone, v), p)


@st.composite
def single_generators(draw):
    dim = draw(st.integers(1, 4))
    coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    g = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
    assume(np.linalg.norm(g) >= 0.05)
    return g


@FEW
@example(g=np.array([-1.0]), seed=0)  # the reversed ray R-
@example(g=np.array([-3.0]), seed=1)
@example(g=np.array([1.0, 1.0]), seed=2)  # the CLI's default Hilbert cone
@given(g=single_generators(), seed=SEEDS)
def test_ray_kernel_matches_per_vector_nnls(g, seed):
    cone = ml.ConeOrder(dim=g.size, generators=[g])
    # In R^1 a positive generator is the scalar ray, which clamps.
    assert cone._kind == ("orthant" if g.size == 1 and g[0] > 0 else "ray")
    assert ml.orthant(g.size)._kind == ml.scalar_cone()._kind == "orthant"
    rng = np.random.default_rng(seed)
    V = _vectors(rng, g[None, :], g.size)
    ref = [cones._nnls_fit(g[None, :], v) for v in V]
    scale = 1.0 + np.linalg.norm(V, axis=1)
    proj = cones.project_many(cone, V)
    expect = np.array([p for p, _ in ref])
    np.testing.assert_allclose(proj, expect, rtol=0.0, atol=1e-12 * scale.max())
    resid = np.array([r for _, r in ref])
    member = resid <= 1e-12 * scale
    away = member | (resid > 1e-6 * scale)
    np.testing.assert_array_equal(cones.contains_many(cone, V)[away], member[away])
    for v, p in zip(V, proj):
        np.testing.assert_array_equal(ml.project_cone(cone, v), p)


def test_halfspace_projection_on_thin_cone():
    # A thin full-dimensional cone on which cyclic halfspace projection
    # stalled at its iteration cap for about a third of random vectors.
    normals = np.array([[0.036, 0.008, -0.999], [-0.229, 0.029, -0.973], [0.258, 0.114, 0.959]])
    cone = ml.ConeOrder(dim=3, halfspaces=normals)
    rays = facet_normals(normals)
    V = np.random.default_rng(0).normal(size=(300, 3)) * 3.0
    expect = np.array([cones._nnls_fit(rays, v)[0] for v in V])
    scale = 1.0 + np.linalg.norm(V, axis=1)
    proj = cones.project_many(cone, V)
    assert np.all(np.abs(proj - expect) <= 1e-12 * scale[:, None])
    assert cones.contains_many(cone, proj).all()


def test_kernel_rejects_misshapen_rows():
    with pytest.raises(StructureError):
        cones.contains_many(ml.orthant(2), np.zeros((3, 3)))
    with pytest.raises(StructureError):
        cones.project_many(ml.orthant(2), np.zeros(2))
    with pytest.raises(StructureError):
        ml.contains(ml.orthant(2), [1.0, 2.0, 3.0])
    assert cones.contains_many(ml.orthant(2), np.zeros((0, 2))).shape == (0,)


def test_is_trivial_halfspace_only():
    spanning = ml.ConeOrder(dim=2, halfspaces=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    assert spanning.is_trivial
    np.testing.assert_array_equal(ml.project_cone(spanning, [3.0, -1.0]), [0.0, 0.0])
    wedge = ml.ConeOrder(dim=2, halfspaces=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
    assert not wedge.is_trivial
    assert ml.contains(wedge, [1.0, 2.0])
    assert not ml.orthant(2).is_trivial
    assert ml.trivial_cone(3).is_trivial


@FEW
@given(seed=SEEDS, tag=st.sampled_from(cones.NORMS))
def test_norm_many_equals_one_vector_norms(seed, tag):
    rng = np.random.default_rng(seed)
    V = np.round(rng.uniform(-5, 5, size=(40, int(rng.integers(1, 5)))), 3)
    expect = [one_norm(v, tag) for v in V]
    np.testing.assert_array_equal(cones.norm_many(V, tag), expect)
    assert [cones.norm_value(v, tag) for v in V] == expect


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def naive_validate(poset, tol=1e-9):
    """The axiom checks as plain nested loops."""
    d, n, out = poset.dist, poset.n, []
    V = poset_mod.Violation
    for i in range(n):
        if abs(d[i, i]) > tol:
            out.append(V("zero-diagonal", (i,), f"d({i},{i}) = {d[i, i]}"))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - d[j, i]) > tol:
                out.append(V("symmetry", (i, j), f"d({i},{j}) != d({j},{i})"))
            if d[i, j] <= tol:
                detail = f"d({i},{j}) = {d[i, j]} for distinct points"
                out.append(V("identity of indiscernibles", (i, j), detail))
            if d[i, j] < -tol or d[j, i] < -tol:
                out.append(V("nonnegativity", (i, j), f"d({i},{j}) < 0"))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i, j] > d[i, k] + d[k, j] + tol:
                    out.append(
                        V("triangle inequality", (i, j, k), f"d({i},{j}) > d({i},{k}) + d({k},{j})")
                    )
    geq = poset.geq
    for i in range(n):
        if not geq(i, i):
            out.append(V("reflexivity", (i,), f"({i},{i}) missing"))
    for i in range(n):
        for j in range(i + 1, n):
            if geq(i, j) and geq(j, i):
                out.append(V("antisymmetry", (i, j), f"{i} >= {j} >= {i}"))
    for i in range(n):
        for j in range(n):
            if not geq(i, j) and any(geq(i, k) and geq(k, j) for k in range(n)):
                out.append(V("transitivity", (i, j), f"({i},{j}) missing"))
    return tuple(out)


@FEW
@given(seed=SEEDS)
def test_validate_matches_triple_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    dist = np.round(rng.uniform(-1.0, 6.0, size=(n, n)), 1)
    if rng.random() < 0.5:  # symmetric with a zero diagonal; ties are common
        dist = np.triu(dist, 1) + np.triu(dist, 1).T
    pairs = {(int(i), int(j)) for i, j in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))}
    p = ml.FiniteMetricPoset(labels=tuple(map(str, range(n))), dist=dist, order=frozenset(pairs))
    assert ml.validate(p).violations == naive_validate(p)


# ---------------------------------------------------------------------------
# radiality: the best witness
# ---------------------------------------------------------------------------


@FEW
@given(seed=SEEDS)
def test_e2_lower_bound_matches_witness_maximum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    # integer points make equal ratios common, which exercises the tie-break
    pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
    pts = np.unique(pts, axis=0)
    assume(len(pts) >= 3)
    p = ml.poset_from_points(pts, ml.orthant(2))
    best = None
    for w in naive_radiality_witnesses(p):
        if best is None or w[3] / w[2] > best[3] / best[2]:
            best = w
    ray = spaces.HilbertRay(dim=2, e=np.array([1.0, 1.0]) / np.sqrt(2.0), cone=ml.orthant(2))
    bound, cert = obstruction.e2_lower_bound(p, ray)
    if best is None:
        assert bound == 1.0 and cert is None
        return
    assert (cert.witness.kind, cert.witness.triple) == best[:2]
    assert bound == best[3] / best[2]


# ---------------------------------------------------------------------------
# extension residuals and admissibility
# ---------------------------------------------------------------------------


def loop_residuals(problem, values, K):
    """verify_extension as a loop over pairs, projecting by per-vector NNLS."""
    d, norm, target = problem.domain.dist, problem.target.norm, problem.target
    lip = order = anchor = 0.0
    n = problem.domain.n
    for i in range(n):
        for j in range(i + 1, n):
            lip = max(lip, one_norm(values[i] - values[j], norm) - K * d[i, j])
    for i, j in problem.domain.order:
        if i != j:
            order = max(order, cones._nnls_fit(target.generators, values[i] - values[j])[1])
    for a, s in enumerate(problem.subset):
        anchor = max(anchor, one_norm(values[s] - problem.f[a], norm))
    return lip, order, anchor


def _target(rng):
    kind = rng.integers(4)
    norm = str(rng.choice(cones.NORMS))
    if kind == 0:
        return ml.scalar_cone(norm)
    if kind == 1:
        return ml.orthant(int(rng.integers(2, 4)), norm)
    if kind == 2:
        return ml.trivial_cone(2, norm)
    return random_pointed_cone(rng, dim=2, n_gen=3)


@FEW
@given(seed=SEEDS)
def test_verify_extension_matches_pair_loop(seed):
    rng = np.random.default_rng(seed)
    pts = np.round(rng.uniform(-4, 4, size=(int(rng.integers(2, 14)), 2)), 2)
    domain = ml.poset_from_points(pts, ml.orthant(2))
    if rng.random() < 0.5:
        # d(i, j) != d(j, i), and d(i, i) != 0: only pairs i < j enter the
        # Lipschitz term
        dist = rng.uniform(0.0, 6.0, size=(domain.n, domain.n))
        domain = ml.FiniteMetricPoset(domain.labels, dist, domain.order_matrix)
    target = _target(rng)
    values = rng.normal(size=(domain.n, target.dim)) * 3.0
    s = int(rng.integers(domain.n))
    f = values[s] + rng.normal(size=target.dim)
    problem = ml.ExtensionProblem(domain=domain, subset=(s,), target=target, f=f)
    K = float(rng.uniform(0.5, 3.0))
    got = ml.verify_extension(problem, values, K)
    ref = loop_residuals(problem, values, K)
    np.testing.assert_allclose((got.lipschitz, got.order, got.anchor), ref, rtol=0.0, atol=1e-12)


def loop_admissibility_error(domain, subset, target, f, tol=1e-9):
    """The first error ExtensionProblem raises, found by a loop over pairs."""
    d = domain.dist
    for a, sa in enumerate(subset):
        for b, sb in enumerate(subset):
            if a == b:
                continue
            gap = one_norm(f[a] - f[b], target.norm)
            if gap > d[sa, sb] + tol * (1.0 + d[sa, sb]):
                return f"f is not 1-Lipschitz on S: |f({sa}) - f({sb})| = {gap} > d = {d[sa, sb]}"
            if domain.geq(sa, sb) and not one_contains(target, f[a] - f[b], tol):
                return f"f is not order-preserving on S at pair ({sa}, {sb})"
    return None


@FEW
@given(seed=SEEDS)
def test_admissibility_raises_on_first_failing_pair(seed):
    rng = np.random.default_rng(seed)
    domain = ml.poset_from_points(np.round(rng.uniform(-3, 3, size=(8, 2)), 1), ml.orthant(2))
    target = _target(rng)
    size = int(rng.integers(2, 6))
    subset = tuple(int(s) for s in rng.choice(domain.n, size=size, replace=False))
    f = rng.normal(size=(len(subset), target.dim)) * rng.choice([0.05, 0.5, 3.0])
    expect = loop_admissibility_error(domain, subset, target, f)
    if expect is None:
        ml.ExtensionProblem(domain=domain, subset=subset, target=target, f=f)
        return
    with pytest.raises(StructureError) as err:
        ml.ExtensionProblem(domain=domain, subset=subset, target=target, f=f)
    assert str(err.value) == expect


@FEW
@given(seed=SEEDS)
def test_line_extend_admissibility_matches_pair_loop(seed):
    rng = np.random.default_rng(seed)
    cone = ml.orthant(2, str(rng.choice(cones.NORMS)))
    xs = np.sort(rng.choice(40, size=int(rng.integers(2, 7)), replace=False) * 0.5)
    fs = rng.normal(size=(len(xs), 2)) * rng.choice([0.1, 1.0])
    expect = None
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            step = fs[b] - fs[a]
            if expect is None and one_norm(step, cone.norm) > (xs[b] - xs[a]) * (1.0 + 1e-9) + 1e-9:
                expect = "input map is not 1-Lipschitz"
            if expect is None and not one_contains(cone, step):
                expect = "input map is not order-preserving"
    if expect is None:
        ml.line_extend(xs, fs, 0.0, cone=cone)
        return
    with pytest.raises(StructureError, match=expect):
        ml.line_extend(xs, fs, 0.0, cone=cone)
