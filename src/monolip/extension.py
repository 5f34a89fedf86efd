"""Construction and verification of order-preserving Lipschitz extensions.

Each class of target has one route:

* affine interpolation of maps defined on a finite subset of the real line
  (``line_extend``),
* shortest paths for scalar targets: the constraints are difference
  constraints, so the least K and the greatest extension have closed forms
  (McShane 1934) in the shortest-path lengths of one digraph on X,
* one sparse LP for polyhedral-norm vector targets (L1/LINF); the LP
  also serves as the independent oracle for the scalar route,
* Dykstra alternating projections for Euclidean vector targets
  (``feasibility_at_K``), the only route ``estimate_e`` bisects over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones, poset as poset_mod
from .errors import (
    ConvergenceError,
    NoDirectionError,
    RadialityRequiredError,
    StructureError,
    UnsupportedTargetError,
)

DEFAULT_TOL = 1e-9
DYKSTRA_TOL = 1e-8
DYKSTRA_MAX_ITER = 100_000
BISECT_TOL = 1e-4

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ExtensionProblem:
    """(X, S, f, target): extend f from the subset S of the poset X.

    ``target`` is a ConeOrder over R^m; the scalar target (R, >=) is the
    nonnegative ray in R^1 (``cones.scalar_cone()``). ``f`` has one row per
    subset index. Construction rejects maps that are not order-preserving
    and 1-Lipschitz on S.
    """

    domain: poset_mod.FiniteMetricPoset
    subset: tuple
    target: cones.ConeOrder
    f: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        subset = tuple(int(s) for s in self.subset)
        if not subset:
            raise StructureError("subset must be nonempty")
        if len(set(subset)) != len(subset):
            raise StructureError("duplicate subset indices")
        if any(not 0 <= s < self.domain.n for s in subset):
            raise StructureError("subset index out of range")
        f = np.atleast_2d(np.asarray(self.f, dtype=float))
        if f.shape != (len(subset), self.target.dim):
            raise StructureError(
                f"f must have shape ({len(subset)}, {self.target.dim}), got {f.shape}"
            )
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "f", f)
        self._check_admissible()

    def _check_admissible(self):
        # Raises on the first failing pair (a, b) in row-major order, and
        # for that pair on the Lipschitz test before the order test.
        tol = self.tol
        sub = np.ix_(self.subset, self.subset)
        d = self.domain.dist[sub]
        diff = self.f[:, None, :] - self.f[None, :, :]
        gap = cones.norm_many(diff, self.target.norm)
        off = ~np.eye(len(self.subset), dtype=bool)
        too_far = off & (gap > d + tol * (1.0 + d))
        geq = off & self.domain.order_matrix[sub]
        unordered = np.zeros_like(geq)
        unordered[geq] = ~cones.contains_many(self.target, diff[geq], tol)
        bad = np.argwhere(too_far | unordered)
        if not bad.size:
            return
        a, b = bad[0]
        sa, sb = self.subset[a], self.subset[b]
        if too_far[a, b]:
            raise StructureError(
                f"f is not 1-Lipschitz on S: |f({sa}) - f({sb})| = {float(gap[a, b])} "
                f"> d = {d[a, b]}"
            )
        raise StructureError(f"f is not order-preserving on S at pair ({sa}, {sb})")

    @property
    def is_scalar(self):
        return self.target.dim == 1

    def f_at(self, domain_index):
        return self.f[self.subset.index(domain_index)]


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case violations of the three extension requirements."""

    lipschitz: float
    order: float
    anchor: float

    def max(self):
        return max(self.lipschitz, self.order, self.anchor)


@dataclass(frozen=True)
class ExtensionResult:
    values: np.ndarray
    K: float
    status: str
    residuals: ResidualReport


def verify_extension(problem, values, K, tol=DEFAULT_TOL):
    """Residuals of candidate values: Lipschitz excess over K*d, Euclidean
    distance of ordered-pair differences to the cone, anchor deviation."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = problem.domain.n
    if values.shape != (n, problem.target.dim):
        raise StructureError(f"values must have shape ({n}, {problem.target.dim})")
    norm = problem.target.norm
    i, j = np.triu_indices(n, 1)
    gaps = cones.norm_many(values[i] - values[j], norm)
    lip = np.max(gaps - K * problem.domain.dist[i, j], initial=0.0)
    i, j = np.nonzero(problem.domain.order_matrix & ~np.eye(n, dtype=bool))
    diff = values[i] - values[j]
    miss = cones.norm_many(diff - cones.project_many(problem.target, diff), "l2")
    order = np.max(miss, initial=0.0)
    anchor = np.max(cones.norm_many(values[list(problem.subset)] - problem.f, norm), initial=0.0)
    return ResidualReport(lipschitz=float(lip), order=float(order), anchor=float(anchor))


# ---------------------------------------------------------------------------
# Affine interpolation on the line
# ---------------------------------------------------------------------------


def line_extend(points, values, queries, cone=None, tol=DEFAULT_TOL):
    """Monotone 1-Lipschitz extension of a map on a finite subset of R.

    Affine on each gap between consecutive anchor points, constant beyond
    the extremes. ``cone`` orders the target (defaults to the scalar
    order); the input map must be order-preserving and 1-Lipschitz for the
    cone and its norm tag, otherwise the call is rejected.
    """
    points = np.asarray(points, dtype=float)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if points.ndim != 1 or points.shape[0] != values.shape[0]:
        raise StructureError("points and values must align")
    if cone is None:
        cone = cones.scalar_cone()
    if values.shape[1] != cone.dim:
        raise StructureError("values must match the cone dimension")
    idx = np.argsort(points, kind="stable")
    xs = points[idx]
    fs = values[idx]
    if np.any(np.diff(xs) <= 0.0):
        raise StructureError("anchor points must be distinct")
    # The first failing pair (a, b), a < b, decides the error, with the
    # Lipschitz test before the order test.
    a, b = np.triu_indices(len(xs), 1)
    steps = fs[b] - fs[a]
    too_steep = cones.norm_many(steps, cone.norm) > (xs[b] - xs[a]) * (1.0 + tol) + tol
    bad = np.flatnonzero(too_steep | ~cones.contains_many(cone, steps, tol))
    if bad.size:
        if too_steep[bad[0]]:
            raise StructureError("input map is not 1-Lipschitz")
        raise StructureError("input map is not order-preserving")

    scalar_query = np.isscalar(queries)
    qs = np.atleast_1d(np.asarray(queries, dtype=float))
    out = np.empty((qs.shape[0], cone.dim))
    for qi, q in enumerate(qs):
        k = int(np.searchsorted(xs, q))
        if k < len(xs) and xs[k] == q:
            out[qi] = fs[k]
        elif k == 0:
            out[qi] = fs[0]  # constant tail below min S
        elif k == len(xs):
            out[qi] = fs[-1]  # constant tail above max S
        else:
            a, b = xs[k - 1], xs[k]
            out[qi] = fs[k - 1] + (q - a) / (b - a) * (fs[k] - fs[k - 1])
    if scalar_query:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# Shortest paths (scalar targets)
# ---------------------------------------------------------------------------


class _ScalarPaths:
    """The exact scalar route, for one problem and every K at once.

    ``D[a, x]`` is D*(s_a, x), the shortest-path length from anchor s_a to x
    in the digraph on X whose edge i -> j costs 0 when the order forces
    F(j) <= F(i) (i >= j, for the ray R+) and d(i, j) otherwise. Any
    order-preserving K-Lipschitz F has F(x) <= F(s) + K D*(s, x), and
    U(x) = min_s f(s) + K D*(s, x) meets every constraint, so an extension
    exists at K iff f(b) - f(a) <= K D*(a, b) on all anchor pairs, and U is
    then the greatest extension.
    """

    def __init__(self, problem):
        from scipy.sparse import csgraph

        g = problem.domain.order_matrix
        # i >= j bounds F(j) by F(i) on R+, F(i) by F(j) on R-, both on {0}
        up, down = cones.contains_many(problem.target, [[1.0], [-1.0]])
        free = (g & ~down) | (g.T & ~up)
        # Dense input would read the zero-cost edges as missing.
        graph = csgraph.csgraph_from_dense(
            np.where(free, 0.0, problem.domain.dist), null_value=np.inf
        )
        self.D = csgraph.shortest_path(graph, method="D", indices=problem.subset)
        self.f = problem.f[:, 0]
        self.tol = problem.tol
        self.path = self.D[:, problem.subset]  # D*(a, b) between anchors
        self.rise = self.f[None, :] - self.f[:, None]  # f(b) - f(a)

    def least_K(self):
        """K_min = max(1, max (f(b) - f(a)) / D*(a, b)) over anchor pairs.

        D*(a, b) = 0 where a chain of zero-cost edges forces f(b) <= f(a).
        Construction checks only directly comparable anchors, so a rise
        along a longer chain (a zigzag on {0}, or an order that is not
        transitive) leaves no K, and this raises. K_min is exactly 1 iff
        K = 1 fits, so rounding cannot report 1 + 1 ulp.
        """
        apart = self.path > 0.0
        if np.any(self.rise[~apart] > self.tol):
            raise ConvergenceError(
                "no Lipschitz constant admits an extension: a chain of "
                "comparable points forces f(b) <= f(a) where f(b) > f(a)"
            )
        if self.fits(1.0):
            return 1.0
        return float(np.max(self.rise[apart] / self.path[apart]))

    def fits(self, K):
        bound = K * self.path
        return bool(np.all(self.rise <= bound + self.tol * (1.0 + bound)))

    def values(self, K):
        return np.min(self.f[:, None] + K * self.D, axis=0)[:, None]


# ---------------------------------------------------------------------------
# Linear-programming routes
# ---------------------------------------------------------------------------


def _cone_rows(target):
    """Halfspace normals of the target cone, for LP order constraints."""
    rows = cones.halfspace_form(target)
    if rows is None:
        raise UnsupportedTargetError(
            "order constraints need a halfspace form of the target cone "
            f"(dim <= {cones.FACET_ENUM_MAX_DIM} for generated cones)"
        )
    return np.array(rows).reshape(-1, target.dim)


def _sparse(blocks, shape):
    """One COO matrix from (rows, cols, vals) blocks of index and value
    arrays, each block broadcast to one shape. Zero coefficients, such as
    zero entries of a cone normal, are left out."""
    from scipy import sparse

    rows, cols, vals = (
        np.concatenate([a.ravel() for a in arrays])
        for arrays in zip(*(np.broadcast_arrays(*block) for block in blocks))
    )
    keep = vals != 0.0
    return sparse.coo_array((vals[keep], (rows[keep], cols[keep])), shape=shape)


def _lp_rows(problem):
    """A_ub, lip, A_eq, b_eq and the variable count of the LP: F extends f
    at K iff A_ub x <= K * lip and A_eq x = b_eq.

    Variables are the n*m entries of F (row-major), plus one bound t_pc per
    (pair, coordinate) for L1 targets with m > 1. ``lip`` is d(i, j) on
    each row that K d(i, j) bounds and 0 on the others. Pair rows come
    first: pairs i < j row-major, then coordinate, then + before -, with
    each L1 total row after its pair. Order rows follow ``order_matrix``
    row-major, then the cone's normals.
    """
    n, m = problem.domain.n, problem.target.dim
    norm = problem.target.norm
    if m > 1 and norm not in ("l1", "linf"):
        raise UnsupportedTargetError(f"no LP route for norm {norm!r} with m = {m}")
    l1 = norm == "l1" and m > 1
    F = np.arange(n * m).reshape(n, m)  # F[i, c] is the variable of F_ic
    i, j = np.triu_indices(n, 1)
    d = problem.domain.dist[i, j]
    p = np.arange(len(i))
    per_pair = 2 * m + l1
    # Row per_pair * p + 2c (+1) holds +(-)(F_ic - F_jc) for pair p.
    row = per_pair * p[:, None, None] + 2 * np.arange(m)[:, None] + np.arange(2)
    ends = np.stack([F[i], F[j]], axis=-1)[:, :, None, :]
    blocks = [(row[..., None], ends, [[1.0, -1.0], [-1.0, 1.0]])]
    if l1:
        # |F_ic - F_jc| <= t_pc, then sum_c t_pc <= K d(i, j).
        t = F.size + p[:, None] * m + np.arange(m)
        total = per_pair * p + 2 * m
        blocks += [(row, t[:, :, None], -1.0), (total[:, None], t, 1.0)]
        lip = np.zeros(per_pair * len(p))
        lip[total] = d
    else:
        lip = np.repeat(d, per_pair)

    # -<h, F_i> + <h, F_j> <= 0 for each strict i >= j and normal h; on the
    # cone {0} the normals -e_c, +e_c force F_i = F_j.
    if problem.target.is_trivial:
        normals = np.kron(np.eye(m), [[-1.0], [1.0]])
    else:
        normals = _cone_rows(problem.target)
    oi, oj = np.nonzero(problem.domain.order_matrix & ~np.eye(n, dtype=bool))
    row = lip.size + len(normals) * np.arange(len(oi))[:, None] + np.arange(len(normals))
    ends = np.hstack([F[oi], F[oj]])[:, None, :]
    blocks.append((row[..., None], ends, np.hstack([-normals, normals])))
    lip = np.concatenate([lip, np.zeros(row.size)])

    nvar = F.size + l1 * len(p) * m
    anchors = F[list(problem.subset)].ravel()
    a_eq = _sparse([(np.arange(anchors.size), anchors, 1.0)], (anchors.size, nvar))
    return _sparse(blocks, (lip.size, nvar)), lip, a_eq, problem.f.ravel(), nvar


def lp_feasible_at_K(problem, K):
    """Exact LP feasibility at Lipschitz constant K (status, values)."""
    from scipy.optimize import linprog

    a_ub, lip, a_eq, b_eq, nvar = _lp_rows(problem)
    res = linprog(
        c=np.zeros(nvar),
        A_ub=a_ub,
        b_ub=K * lip,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(None, None),
        method="highs",
    )
    n, m = problem.domain.n, problem.target.dim
    if res.status == 0:
        return FEASIBLE, res.x[: n * m].reshape(n, m)
    if res.status == 2:
        return INFEASIBLE, None
    raise ConvergenceError(f"LP solver failed: {res.message}")


def min_lipschitz_lp(problem):
    """Exact minimal K admitting an order-preserving K-Lipschitz extension
    (the per-instance LP oracle); returns (K, values)."""
    from scipy import sparse
    from scipy.optimize import linprog

    n = problem.domain.n
    m = problem.target.dim
    a_ub, lip, a_eq, b_eq, nvar = _lp_rows(problem)
    # One more variable, K >= 0: A_ub x - K lip <= 0.
    a_ub = sparse.hstack([a_ub, sparse.coo_array(-lip[:, None])])
    a_eq.resize(a_eq.shape[0], nvar + 1)
    c = np.zeros(nvar + 1)
    c[-1] = 1.0
    res = linprog(
        c=c,
        A_ub=a_ub,
        b_ub=np.zeros(lip.size),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * nvar + [(0.0, None)],
        method="highs",
    )
    if res.status != 0:
        raise ConvergenceError(f"min-K LP failed: {res.message}")
    return float(res.x[-1]), res.x[: n * m].reshape(n, m)


# ---------------------------------------------------------------------------
# Dykstra alternating projections (Euclidean vector targets)
# ---------------------------------------------------------------------------


def _dykstra(problem, K, tol, max_iter):
    """Alternating projections over anchors, pair balls, and cone
    differences in the product space of all F-values."""
    n = problem.domain.n
    m = problem.target.dim
    d = problem.domain.dist
    values = np.zeros((n, m))
    for a, s in enumerate(problem.subset):
        values[s] = problem.f[a]

    ball_sets = [
        (i, j, K * d[i, j]) for i in range(n) for j in range(i + 1, n)
    ]
    cone_sets = [
        (i, j) for i, j in problem.domain.order if i != j
    ] if not problem.target.is_trivial else []
    # trivial cone: ordered pairs force equality, project to the average
    eq_sets = [
        (i, j) for i, j in problem.domain.order if i != j
    ] if problem.target.is_trivial else []

    corr_ball = {key: np.zeros((2, m)) for key in ball_sets}
    corr_cone = {key: np.zeros((2, m)) for key in cone_sets}
    corr_eq = {key: np.zeros((2, m)) for key in eq_sets}
    anchors = list(zip(problem.subset, problem.f))
    ball_i, ball_j = np.triu_indices(n, 1)
    radii = K * d[ball_i, ball_j]
    cone_i, cone_j = np.array(cone_sets, dtype=int).reshape(-1, 2).T
    eq_i, eq_j = np.array(eq_sets, dtype=int).reshape(-1, 2).T
    subset = list(problem.subset)

    def residuals():
        lip = np.max(cones.norm_many(values[ball_i] - values[ball_j], "l2") - radii, initial=0.0)
        diff = values[cone_i] - values[cone_j]
        miss = cones.norm_many(diff - cones.project_many(problem.target, diff), "l2")
        order = np.max(miss, initial=0.0)
        order = np.max(cones.norm_many(values[eq_i] - values[eq_j], "l2"), initial=order)
        anc = np.max(cones.norm_many(values[subset] - problem.f, "l2"))
        return float(lip), float(order), float(anc)

    check_every = 10
    for sweep in range(max_iter):
        # anchors (affine set: plain projection, no correction needed)
        for s, fv in anchors:
            values[s] = fv
        for key in ball_sets:
            i, j, r = key
            y_i = values[i] + corr_ball[key][0]
            y_j = values[j] + corr_ball[key][1]
            u = y_i - y_j
            nu = float(np.linalg.norm(u))
            if nu > r:
                shift = 0.5 * (nu - r) / nu * u
                p_i, p_j = y_i - shift, y_j + shift
            else:
                p_i, p_j = y_i, y_j
            corr_ball[key][0] = y_i - p_i
            corr_ball[key][1] = y_j - p_j
            values[i], values[j] = p_i, p_j
        for key in cone_sets:
            i, j = key
            y_i = values[i] + corr_cone[key][0]
            y_j = values[j] + corr_cone[key][1]
            u = y_i - y_j
            w = cones.project_cone(problem.target, u)
            shift = 0.5 * (w - u)
            p_i, p_j = y_i + shift, y_j - shift
            corr_cone[key][0] = y_i - p_i
            corr_cone[key][1] = y_j - p_j
            values[i], values[j] = p_i, p_j
        for key in eq_sets:
            i, j = key
            y_i = values[i] + corr_eq[key][0]
            y_j = values[j] + corr_eq[key][1]
            mid = 0.5 * (y_i + y_j)
            corr_eq[key][0] = y_i - mid
            corr_eq[key][1] = y_j - mid
            values[i] = values[j] = mid
        if sweep % check_every == 0 or sweep == max_iter - 1:
            snapped = values.copy()
            for s, fv in anchors:
                snapped[s] = fv
            lip, order, anc = residuals()
            if max(lip, order, anc) <= tol:
                return FEASIBLE, snapped
    return UNKNOWN, values


def _dual_norm_factor(norm, e):
    """Lipschitz constant of a -> <a, e> w.r.t. the given norm."""
    if norm == "l2":
        return float(np.linalg.norm(e))
    if norm == "l1":
        return float(np.max(np.abs(e)))
    return float(np.sum(np.abs(e)))  # linf


def _scalar_relaxation(problem, K, seed=0):
    """Compose with a monotone direction of the target cone; infeasibility
    of the scalar image problem certifies infeasibility of the original."""
    if problem.target.is_trivial:
        return None
    try:
        e = cones.monotone_direction(problem.target, seed=seed)
    except (NoDirectionError, ConvergenceError):
        return None
    factor = _dual_norm_factor(problem.target.norm, e)
    f_scalar = (problem.f @ e)[:, None] / factor
    try:
        relaxed = ExtensionProblem(
            domain=problem.domain,
            subset=problem.subset,
            target=cones.scalar_cone(),
            f=f_scalar,
        )
    except StructureError:
        return None
    return FEASIBLE if _ScalarPaths(relaxed).fits(K) else INFEASIBLE


def feasibility_at_K(problem, K, tol=DYKSTRA_TOL, max_iter=DYKSTRA_MAX_ITER, seed=0):
    """Decide whether an order-preserving K-Lipschitz extension exists.

    Scalar targets are decided exactly by shortest paths (the values are
    the greatest extension), polyhedral-norm (L1/LINF) targets by linear
    programming. Euclidean vector targets run Dykstra alternating
    projections, with a monotone-direction scalar relaxation providing the
    only infeasibility certificate; otherwise the outcome is Unknown after
    ``max_iter`` sweeps.
    """
    if K <= 0.0:
        raise StructureError("K must be positive")
    if len(problem.subset) == problem.domain.n:
        values = np.zeros((problem.domain.n, problem.target.dim))
        for a, s in enumerate(problem.subset):
            values[s] = problem.f[a]
        res = verify_extension(problem, values, K)
        status = FEASIBLE if res.max() <= max(tol, DEFAULT_TOL) else INFEASIBLE
        return ExtensionResult(values=values, K=K, status=status, residuals=res)

    if problem.is_scalar:
        route = _ScalarPaths(problem)
        status, values = (FEASIBLE, route.values(K)) if route.fits(K) else (INFEASIBLE, None)
    elif problem.target.norm in ("l1", "linf"):
        status, values = lp_feasible_at_K(problem, K)
    elif _scalar_relaxation(problem, K, seed=seed) == INFEASIBLE:
        status, values = INFEASIBLE, None
    else:
        status, values = _dykstra(problem, K, tol, max_iter)
    if status == INFEASIBLE:
        return ExtensionResult(
            values=np.zeros((problem.domain.n, problem.target.dim)),
            K=K,
            status=INFEASIBLE,
            residuals=ResidualReport(np.inf, np.inf, np.inf),
        )
    return ExtensionResult(
        values=values, K=K, status=status,
        residuals=verify_extension(problem, values, K),
    )


# ---------------------------------------------------------------------------
# Extension-modulus estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateResult:
    """The minimal admissible Lipschitz constant of one problem.

    Exact routes (shortest paths for scalar targets, one LP for L1/LINF
    targets) give ``K = lo = hi``, conclusive, with an empty ``trace``.
    Euclidean vector targets are bisected: ``K`` is the bracket midpoint,
    ``trace`` lists each (K, status) tried, and ``conclusive`` is False
    when an Unknown feasibility status touched the final bracket, in which
    case (lo, hi) is the honest answer.
    """

    K: float
    lo: float
    hi: float
    conclusive: bool
    trace: tuple

    @classmethod
    def exact(cls, K):
        return cls(K=K, lo=K, hi=K, conclusive=True, trace=())


def estimate_e(problem, tol=BISECT_TOL, max_iter=DYKSTRA_MAX_ITER, seed=0):
    """The minimal K with a feasible extension: exact for scalar and
    L1/LINF targets, by bisection to ``tol`` for Euclidean vector targets.

    This is a per-f quantity: a lower bound on the supremal extension
    modulus of (X, S, target) over all admissible maps f.
    """
    if len(problem.subset) <= 1 or len(problem.subset) == problem.domain.n:
        return EstimateResult.exact(1.0)
    if problem.is_scalar:
        return EstimateResult.exact(_ScalarPaths(problem).least_K())
    if problem.target.norm in ("l1", "linf"):
        return EstimateResult.exact(max(1.0, min_lipschitz_lp(problem)[0]))

    trace = []

    def feasible(K):
        res = feasibility_at_K(problem, K, max_iter=max_iter, seed=seed)
        trace.append((float(K), res.status))
        return res.status

    s0 = feasible(1.0)
    if s0 == FEASIBLE:
        return EstimateResult(K=1.0, lo=1.0, hi=1.0, conclusive=True, trace=tuple(trace))

    hi = 2.0
    while feasible(hi) != FEASIBLE:
        hi *= 2.0
        if hi > 2.0**20:
            raise ConvergenceError("no feasible Lipschitz constant found below 2^20")
    lo = max(1.0, hi / 2.0)
    saw_unknown = s0 == UNKNOWN
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        status = feasible(mid)
        if status == FEASIBLE:
            hi = mid
        else:
            lo = mid
            if status == UNKNOWN:
                saw_unknown = True
    return EstimateResult(
        K=0.5 * (lo + hi),
        lo=lo,
        hi=hi,
        conclusive=not saw_unknown,
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# Scalar and componentwise extension
# ---------------------------------------------------------------------------


def scalar_extend(problem):
    """Order-preserving Lipschitz extension into (R, >=), by shortest paths.

    On radial domains an extension at K = 1 exists and is returned with
    status Feasible; otherwise the extension at the minimal K is returned
    with status Infeasible (no valid 1-Lipschitz extension). The values are
    the greatest extension at the returned K. Raises ConvergenceError when
    no K admits an extension.
    """
    if not problem.is_scalar:
        raise StructureError("scalar_extend needs a scalar target")
    route = _ScalarPaths(problem)
    K = route.least_K()
    values = route.values(K)
    return ExtensionResult(
        values=values, K=K, status=FEASIBLE if route.fits(1.0) else INFEASIBLE,
        residuals=verify_extension(problem, values, K),
    )


def componentwise_extend(problem):
    """Per-coordinate scalar extension into a coordinatewise-ordered R^m.

    Requires a radial domain; the aggregated Lipschitz constant is at most
    sqrt(m) for L2 targets and 1 for LINF targets.
    """
    if problem.target._kind != "orthant":
        raise StructureError("componentwise extension needs the coordinatewise cone")
    witness = poset_mod.check_radiality(problem.domain)
    if witness is not None:
        raise RadialityRequiredError(witness)
    m = problem.target.dim
    values = np.zeros((problem.domain.n, m))
    for c in range(m):
        sub = ExtensionProblem(
            domain=problem.domain,
            subset=problem.subset,
            target=cones.scalar_cone(),
            f=problem.f[:, c : c + 1],
        )
        res = scalar_extend(sub)
        if res.status != FEASIBLE:
            raise ConvergenceError(
                f"coordinate {c} failed to extend at K = 1 on a radial domain"
            )
        values[:, c] = res.values[:, 0]
    i, j = np.triu_indices(problem.domain.n, 1)
    d = problem.domain.dist[i, j]
    apart = d > 0
    gaps = cones.norm_many(values[i[apart]] - values[j[apart]], problem.target.norm)
    k_achieved = float(np.max(gaps / d[apart], initial=1.0))
    return ExtensionResult(
        values=values,
        K=k_achieved,
        status=FEASIBLE,
        residuals=verify_extension(problem, values, k_achieved),
    )


# ---------------------------------------------------------------------------
# Admissible-map sampling (for modulus lower bounds over sampled f)
# ---------------------------------------------------------------------------


def fit_monotone_lipschitz(domain, subset, raw_values, lipschitz=1.0):
    """Nearest (in summed absolute deviation) order-preserving
    ``lipschitz``-Lipschitz scalar map on the subset to the raw values.

    Used to turn arbitrary random values into admissible test maps.
    """
    from scipy.optimize import linprog

    subset = list(subset)
    k = len(subset)
    raw = np.asarray(raw_values, dtype=float).reshape(k)
    # Variables: the values x, then the deviations t. Rows: x_a - x_b <= L d
    # on ordered pairs a != b, row-major; x_b - x_a <= 0 where a >= b; then
    # +-(x_a - raw_a) <= t_a.
    a, b = np.nonzero(~np.eye(k, dtype=bool))
    sub = np.ix_(subset, subset)
    geq = domain.order_matrix[sub][a, b]
    nlip, nord = len(a), int(geq.sum())
    dev = np.arange(k)
    a_ub = _sparse(
        [
            (np.arange(nlip)[:, None], np.stack([a, b], axis=1), [1.0, -1.0]),
            (nlip + np.arange(nord)[:, None], np.stack([a[geq], b[geq]], axis=1), [-1.0, 1.0]),
            (
                nlip + nord + np.arange(2 * k).reshape(k, 2, 1),
                np.stack([dev, k + dev], axis=1)[:, None, :],
                [[1.0, -1.0], [-1.0, -1.0]],
            ),
        ],
        (nlip + nord + 2 * k, 2 * k),
    )
    b_ub = np.concatenate(
        [lipschitz * domain.dist[sub][a, b], np.zeros(nord), np.stack([raw, -raw], axis=1).ravel()]
    )
    c = np.concatenate([np.zeros(k), np.ones(k)])
    res = linprog(
        c=c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * k + [(0.0, None)] * k,
        method="highs",
    )
    if res.status != 0:
        raise ConvergenceError(f"monotone-Lipschitz fit failed: {res.message}")
    return res.x[:k]
