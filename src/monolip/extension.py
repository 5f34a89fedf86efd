"""Construction and verification of order-preserving Lipschitz extensions.

Each class of target has one route:

* affine interpolation of maps defined on a finite subset of the real line
  (``line_extend``),
* shortest paths for scalar targets: the constraints are difference
  constraints, so the least K and the greatest extension have closed forms
  (McShane 1934) in the shortest-path lengths of one digraph on X,
* one sparse LP for polyhedral-norm vector targets (L1/LINF); the LP
  also serves as the independent oracle for the scalar route,
* cutting planes on the same sparse LP for Euclidean vector targets
  (Kelley 1960): rounds of the min-K LP, with tangent cuts on the pair
  balls between rounds, bracket the least K from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cones, poset as poset_mod
from .errors import (
    ConvergenceError,
    RadialityRequiredError,
    StructureError,
    UnsupportedTargetError,
)

DEFAULT_TOL = 1e-9
MAX_ROUNDS = 100
BRACKET_TOL = 1e-4
#: HiGHS's feasibility tolerance, read as relative: the L2 rounds call K
#: Infeasible only once the LP bound K_lo exceeds K (1 + LP_FEAS_TOL).
LP_FEAS_TOL = 1e-7

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
        if not np.isfinite(f).all():
            raise StructureError("f values must be finite")
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
    k = np.searchsorted(xs, qs)
    # exact hits and the constant tails below min S and above max S take
    # the anchor row itself
    out = fs[np.minimum(k, len(xs) - 1)]
    inner = (k > 0) & (k < len(xs))
    inner[inner] = xs[k[inner]] != qs[inner]
    k = k[inner]
    a, b = xs[k - 1], xs[k]
    out[inner] = fs[k - 1] + ((qs[inner] - a) / (b - a))[:, None] * (fs[k] - fs[k - 1])
    if scalar_query:
        return out[0]
    return out


# ---------------------------------------------------------------------------
# Shortest paths (scalar targets)
# ---------------------------------------------------------------------------


def _dijkstra(W, sources):
    """Shortest-path lengths from each source to every node of the complete
    digraph with costs ``W[i, j] >= 0`` on edge i -> j, as a (k, n) array.

    One Dijkstra (1959) per source, all run side by side: each of the n
    steps settles, in every row, the open node nearest its source and
    relaxes that node's row of W. The work arrays are updated in place.
    """
    sources = np.asarray(sources)
    k, n = len(sources), W.shape[0]
    rows = np.arange(k)
    D = np.full((k, n), np.inf)
    D[rows, sources] = 0.0
    done = np.zeros((k, n))  # +inf once a node is settled
    key = np.empty((k, n))
    for _ in range(n):
        u = np.add(D, done, out=key).argmin(axis=1)
        done[rows, u] = np.inf
        step = W.take(u, axis=0)
        step += D[rows, u][:, None]
        np.minimum(D, step, out=D)
    return D


class _ScalarPaths:
    """The exact scalar route, for one problem and every K at once.

    ``D[a, x]`` is D*(s_a, x), the shortest-path length from anchor s_a to x
    in the complete digraph on X whose edge i -> j costs 0 when the order
    forces F(j) <= F(i) (i >= j, for the ray R+) and d(i, j) otherwise;
    ``_dijkstra`` computes it from the dense cost matrix, with numpy only.
    Any order-preserving K-Lipschitz F has F(x) <= F(s) + K D*(s, x), and
    U(x) = min_s f(s) + K D*(s, x) meets every constraint, so an extension
    exists at K iff f(b) - f(a) <= K D*(a, b) on all anchor pairs, and U is
    then the greatest extension.
    """

    def __init__(self, problem):
        g = problem.domain.order_matrix
        # i >= j bounds F(j) by F(i) on R+, F(i) by F(j) on R-, both on {0}
        up, down = cones.contains_many(problem.target, [[1.0], [-1.0]])
        free = (g & ~down) | (g.T & ~up)
        self.D = _dijkstra(np.where(free, 0.0, problem.domain.dist), problem.subset)
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
        # one (n, 1) array, not a view of an (n,) one: results are often kept
        out = np.empty((self.D.shape[1], 1))
        np.min(self.f[:, None] + K * self.D, axis=0, out=out[:, 0])
        return out


# ---------------------------------------------------------------------------
# Linear-programming routes
# ---------------------------------------------------------------------------


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
    at K iff A_ub x <= K * lip and A_eq x = b_eq for some x.

    Variables are the n*m entries of F (row-major), then one bound t_pc per
    (pair, coordinate) for L1 targets with m > 1, then, for a cone given
    only by generators G (other than the orthant), one weight mu_pg >= 0
    per (strict order pair, generator). ``lip`` is d(i, j) on each row that
    K d(i, j) bounds and 0 on the others. Pair rows come first: pairs i < j
    row-major, then coordinate, then + before -, with each L1 total row
    after its pair; L2 targets get the LINF rows, which relax the ball.
    Order rows follow ``order_matrix`` row-major, then the cone's normals
    or generators; the anchor rows of A_eq come before its order rows.
    """
    n, m = problem.domain.n, problem.target.dim
    target = problem.target
    l1 = target.norm == "l1" and m > 1
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
    nvar = F.size + l1 * len(p) * m

    anchors = F[list(problem.subset)].ravel()
    eq = [(np.arange(anchors.size), anchors, 1.0)]
    b_eq = problem.f.ravel()
    oi, oj = np.nonzero(problem.domain.order_matrix & ~np.eye(n, dtype=bool))
    if target.is_trivial:
        normals = np.kron(np.eye(m), [[-1.0], [1.0]])  # +-e_c force F_i = F_j
    elif target.halfspaces is not None:
        normals = target.halfspaces
    elif target._kind == "orthant":
        normals = target.generators
    else:
        normals = None
    if normals is not None:
        # -<h, F_i> + <h, F_j> <= 0 for each strict i >= j and normal h.
        row = lip.size + len(normals) * np.arange(len(oi))[:, None] + np.arange(len(normals))
        ends = np.hstack([F[oi], F[oj]])[:, None, :]
        blocks.append((row[..., None], ends, np.hstack([-normals, normals])))
        lip = np.concatenate([lip, np.zeros(row.size)])
    else:
        # F_i - F_j = G^T mu for each strict i >= j, and -mu <= 0: exact for
        # every generated cone, with no facet enumeration.
        gens = target.generators
        mu = nvar + np.arange(len(oi) * len(gens)).reshape(len(oi), len(gens))
        nvar += mu.size
        row = anchors.size + m * np.arange(len(oi))[:, None] + np.arange(m)
        eq += [(row, F[oi], 1.0), (row, F[oj], -1.0), (row[..., None], mu[:, None, :], -gens.T)]
        b_eq = np.concatenate([b_eq, np.zeros(row.size)])
        blocks.append((lip.size + np.arange(mu.size), mu.ravel(), -1.0))
        lip = np.concatenate([lip, np.zeros(mu.size)])
    return _sparse(blocks, (lip.size, nvar)), lip, _sparse(eq, (b_eq.size, nvar)), b_eq, nvar


def _require_polyhedral(problem):
    m, norm = problem.target.dim, problem.target.norm
    if m > 1 and norm == "l2":
        raise UnsupportedTargetError(f"no LP route for norm {norm!r} with m = {m}")


def lp_feasible_at_K(problem, K):
    """Exact LP feasibility at Lipschitz constant K (status, values), for
    scalar and L1/LINF targets."""
    from scipy.optimize import linprog

    _require_polyhedral(problem)
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


def _least_K(problem, a_ub, lip, a_eq, b_eq, nvar):
    """The min-K LP on rows in the form of ``_lp_rows``: the least K >= 0
    with A_ub x <= K lip and A_eq x = b_eq, and F at it; (inf, None) when
    no K is feasible."""
    from scipy import sparse
    from scipy.optimize import linprog

    # One more variable, K >= 0: A_ub x - K lip <= 0.
    a_ub = sparse.hstack([a_ub, sparse.coo_array(-lip[:, None])])
    a_eq = sparse.hstack([a_eq, sparse.coo_array((a_eq.shape[0], 1))])
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
    if res.status == 2:
        return np.inf, None
    if res.status != 0:
        raise ConvergenceError(f"min-K LP failed: {res.message}")
    n, m = problem.domain.n, problem.target.dim
    return float(res.x[-1]), res.x[: n * m].reshape(n, m)


def min_lipschitz_lp(problem):
    """Exact minimal K admitting an order-preserving K-Lipschitz extension
    (the per-instance LP oracle) for scalar and L1/LINF targets; returns
    (K, values)."""
    _require_polyhedral(problem)
    K, values = _least_K(problem, *_lp_rows(problem))
    if values is None:
        raise ConvergenceError("min-K LP failed: no K admits an extension")
    return K, values


def _l2_rounds(problem, max_rounds):
    """Kelley's outer linearisation of the L2 pair balls, for m > 1.

    Each round solves the min-K LP and yields (K_lo, K_hi, values). The
    rows relax every ball ||F_i - F_j|| <= K d(i, j), so the LP optimum
    K_lo is a lower bound. The LP's F, and its midpoint with the best F so
    far, meet the anchors and the order rows, so K_hi = max ||F_i - F_j||
    / d(i, j) over them is attained; the least K_hi so far is yielded with
    its values. Between rounds, each pair that leaves its ball at K_lo, at
    either point, gets the tangent cut <u, F_i - F_j> <= K d(i, j), u the
    unit direction of F_i - F_j there. Cutting at the midpoint too (in-out
    separation) keeps the LP's vertex from roaming over a flat optimal
    face. No K at all yields (inf, inf, None).
    """
    from scipy import sparse

    if max_rounds < 1:
        raise StructureError("max_iter must be at least 1")
    a_ub, lip, a_eq, b_eq, nvar = _lp_rows(problem)
    n, m = problem.domain.n, problem.target.dim
    F = np.arange(n * m).reshape(n, m)
    i, j = np.triu_indices(n, 1)
    d = problem.domain.dist[i, j]
    apart = d > 0.0
    k_hi, best = np.inf, None
    for _ in range(max_rounds):
        k_lo, values = _least_K(problem, a_ub, lip, a_eq, b_eq, nvar)
        if values is None:
            yield np.inf, np.inf, None
            return
        points = [values] if best is None else [values, 0.5 * (values + best)]
        pairs, dirs = [], []
        for point in points:
            diff = point[i] - point[j]
            gap = cones.norm_many(diff, "l2")
            k = float(np.max(gap[apart] / d[apart], initial=0.0))
            if k < k_hi:
                k_hi, best = k, point
            cut = np.flatnonzero(gap > k_lo * d)
            pairs.append(cut)
            dirs.append(diff[cut] / gap[cut, None])
        yield k_lo, k_hi, best
        pairs, dirs = np.concatenate(pairs), np.concatenate(dirs)
        if not pairs.size:
            return
        row = np.arange(pairs.size)[:, None]
        cuts = _sparse([(row, F[i[pairs]], dirs), (row, F[j[pairs]], -dirs)], (pairs.size, nvar))
        a_ub = sparse.vstack([a_ub, cuts])
        lip = np.concatenate([lip, d[pairs]])


def feasibility_at_K(problem, K, tol=DEFAULT_TOL, max_iter=MAX_ROUNDS):
    """Decide whether an order-preserving K-Lipschitz extension exists.

    Scalar targets are decided exactly by shortest paths (the values are
    the greatest extension), polyhedral-norm (L1/LINF) targets by linear
    programming. Euclidean vector targets run up to ``max_iter`` cutting-
    plane rounds: Infeasible once the LP bound K_lo exceeds K by more than
    the LP tolerance, Feasible once an attained K_hi <= K, else Unknown
    with the best values found. Every Feasible checks its own values: a
    ``verify_extension`` residual above tol (1 + K max d) makes it Unknown.
    """
    if not 0.0 < K < np.inf:
        raise StructureError("K must be positive and finite")
    bound = tol * (1.0 + K * float(np.max(problem.domain.dist)))
    if len(problem.subset) == problem.domain.n:
        values = np.zeros((problem.domain.n, problem.target.dim))
        values[list(problem.subset)] = problem.f
        res = verify_extension(problem, values, K)
        status = FEASIBLE if res.max() <= bound else INFEASIBLE
        return ExtensionResult(values=values, K=K, status=status, residuals=res)

    if problem.is_scalar:
        route = _ScalarPaths(problem)
        status, values = (FEASIBLE, route.values(K)) if route.fits(K) else (INFEASIBLE, None)
    elif problem.target.norm in ("l1", "linf"):
        status, values = lp_feasible_at_K(problem, K)
    else:
        for k_lo, k_hi, values in _l2_rounds(problem, max_iter):
            if k_lo > K * (1.0 + LP_FEAS_TOL):
                status = INFEASIBLE
                break
            if k_hi <= K:
                status = FEASIBLE
                break
        else:
            status = UNKNOWN
    if status == INFEASIBLE:
        return ExtensionResult(
            values=np.zeros((problem.domain.n, problem.target.dim)),
            K=K,
            status=INFEASIBLE,
            residuals=ResidualReport(np.inf, np.inf, np.inf),
        )
    res = verify_extension(problem, values, K)
    if status == FEASIBLE and res.max() > bound:
        status = UNKNOWN
    return ExtensionResult(values=values, K=K, status=status, residuals=res)


# ---------------------------------------------------------------------------
# Extension-modulus estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateResult:
    """The minimal admissible Lipschitz constant of one problem.

    Exact routes (shortest paths for scalar targets, one LP for L1/LINF
    targets) give ``K = lo = hi``, conclusive, with an empty ``trace``.
    Euclidean vector targets give the cutting-plane bracket: ``lo`` and
    ``hi`` are max(1, K_lo) and max(1, K_hi) of the last round, ``K`` is
    their midpoint, ``trace`` lists each round's (K_lo, K_hi), and
    ``conclusive`` is True when hi - lo is within the requested ``tol``.
    """

    K: float
    lo: float
    hi: float
    conclusive: bool
    trace: tuple

    @classmethod
    def exact(cls, K):
        return cls(K=K, lo=K, hi=K, conclusive=True, trace=())


def estimate_e(problem, tol=BRACKET_TOL, max_iter=MAX_ROUNDS):
    """The minimal K with a feasible extension: exact for scalar and
    L1/LINF targets, bracketed to width ``tol`` by at most ``max_iter``
    cutting-plane rounds for Euclidean vector targets.

    This is a per-f quantity: a lower bound on the supremal extension
    modulus of (X, S, target) over all admissible maps f.
    """
    if len(problem.subset) <= 1 or len(problem.subset) == problem.domain.n:
        return EstimateResult.exact(1.0)
    if problem.is_scalar:
        return EstimateResult.exact(_ScalarPaths(problem).least_K())
    if problem.target.norm in ("l1", "linf"):
        K = max(1.0, min_lipschitz_lp(problem)[0])
        # As on the scalar route, K_min is exactly 1 iff K = 1 fits: within
        # the LP tolerance above 1, verified values at K = 1 decide.
        if 1.0 < K <= 1.0 + LP_FEAS_TOL and feasibility_at_K(problem, 1.0).status == FEASIBLE:
            K = 1.0
        return EstimateResult.exact(K)

    trace = []
    for k_lo, k_hi, _ in _l2_rounds(problem, max_iter):
        if k_lo == np.inf:
            raise ConvergenceError("no Lipschitz constant admits an extension")
        trace.append((k_lo, k_hi))
        lo, hi = max(1.0, k_lo), max(1.0, k_hi)
        if hi - lo <= tol:
            break
    return EstimateResult(
        K=0.5 * (lo + hi), lo=lo, hi=hi, conclusive=hi - lo <= tol, trace=tuple(trace)
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
