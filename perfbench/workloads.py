"""The four benchmark workloads.

Each workload turns a seed into a fixed pool of jobs in ``__init__``
(input generation), runs one job per ``run`` call (the timed operation),
and judges an answer in ``check`` against reference answers computed by
``oracles`` outside the timed region. Pools are cycled in whole blocks so
that every run sees the same mix of sizes and outcomes whatever its seed.

``check`` returns (ok, decided): ``decided`` is False only for an
``Unknown`` feasibility status, which lowers ``decided_ratio`` but is not a
failure. With ``smoke`` set, ``__init__`` builds only the first block (the
first round on euclid-small).
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import oracles
from monolip import cli, cones, extension, obstruction, poset, spaces, trees

SCALAR_TOL = 1e-6  # reference K and residual agreement for LP answers
BOUND_TOL = 1e-9  # certified bound against the naive witness scan
MACHINE_REL = 1e-8  # CLI machine output rounds to 9 significant digits


def _planar_points(rng, n, half=5.0):
    """n distinct points of the plane, rounded to 3 decimals."""
    while True:
        pts = np.round(rng.uniform(-half, half, size=(n, 2)), 3)
        if len(np.unique(pts, axis=0)) == n:
            return pts


def _close(a, b, rel, abs_=0.0):
    return abs(a - b) <= abs_ + rel * max(1.0, abs(a), abs(b))


def _scalar_map(rng, dist, geq, anchors, want=None, draws=50):
    """(subset, f, K_min) for an admissible scalar map on random anchors.

    K_min is either exactly 1 or at least 1.001, so that solver tolerances
    cannot flip the outcome; ``want`` ("Feasible" or "Infeasible") picks
    one side. None when ``draws`` attempts all miss.
    """
    n = len(dist)
    for _ in range(draws):
        subset = np.sort(rng.choice(n, size=anchors, replace=False))
        f = oracles.admissible_scalar_map(dist, geq, subset, rng.normal(scale=3.0, size=anchors))
        k_min = oracles.scalar_kmin(dist, geq, subset, f)
        feasible = k_min == 1.0
        if (feasible or k_min >= 1.001) and want in (None, "Feasible" if feasible else "Infeasible"):
            return tuple(int(v) for v in subset), f, k_min
    return None


def _finite_poset(dist, geq):
    """The package's poset object for oracle-built distances and order."""
    return poset.FiniteMetricPoset(
        labels=tuple(str(k) for k in range(len(dist))),
        dist=dist,
        order=frozenset(map(tuple, np.argwhere(geq).tolist())),
    )


def _lp_kmin(dist, geq, subset, f):
    """Reference minimal K of a scalar problem from the LP oracle."""
    problem = extension.ExtensionProblem(
        domain=_finite_poset(dist, geq), subset=tuple(subset), target=cones.scalar_cone(),
        f=np.asarray(f, dtype=float)[:, None],
    )
    return extension.min_lipschitz_lp(problem)[0]


# ---------------------------------------------------------------------------
# planar-scalar
# ---------------------------------------------------------------------------


class PlanarScalar:
    """Scalar jobs on random planar point sets, coordinatewise order, L2.

    A block holds sizes (40, 60, 80, 100, 100). The 80 slot is always
    Feasible and the 100 slots always Infeasible (the min-K branch, which
    also sets the dense-LP memory), so that the cost classes do not
    overlap: the median falls in the middle of the 80 class and the tail
    inside the 100 class, for any run length near the gated one. The 40
    and 60 slots alternate between Feasible and Infeasible from block to
    block. The pool holds ``BLOCKS`` blocks of distinct instances, about
    as many as one gated run gets through, so that the time of a run is
    spread over many instances of each size and depends little on the
    seed.
    """

    SIZES = (40, 60, 80, 100, 100)
    OUTCOMES = (
        ("Feasible", "Infeasible", "Feasible", "Infeasible", "Infeasible"),
        ("Infeasible", "Feasible", "Feasible", "Infeasible", "Infeasible"),
    )
    BLOCKS = 8
    ANCHORS = 6
    block = len(SIZES)

    def __init__(self, seed, root, smoke=False):
        rng = np.random.default_rng(seed)
        self.ray = spaces.HilbertRay(
            dim=2, e=np.array([1.0, 1.0]) / np.sqrt(2.0), cone=cones.orthant(2)
        )
        self.jobs = []
        for b in range(1 if smoke else self.BLOCKS):
            for n, want in zip(self.SIZES, self.OUTCOMES[b % 2]):
                self.jobs.append(self._instance(rng, n, want))
        self._refs = {}

    def _instance(self, rng, n, want):
        while True:
            pts = _planar_points(rng, n)
            dist, geq = oracles.l2_dist(pts), oracles.geq_matrix(pts)
            drawn = _scalar_map(rng, dist, geq, self.ANCHORS, want)
            if drawn is not None:
                subset, f, k_min = drawn
                return {"points": pts, "dist": dist, "geq": geq, "subset": subset,
                        "f": f, "k_min": k_min}

    def run(self, i):
        job = self.jobs[i]
        domain = poset.poset_from_points(job["points"], cones.orthant(2))
        report = poset.validate(domain)
        witness = poset.check_radiality(domain)
        problem = extension.ExtensionProblem(
            domain=domain, subset=job["subset"], target=cones.scalar_cone(), f=job["f"][:, None]
        )
        result = extension.scalar_extend(problem)
        bound = None
        if witness is not None:
            bound, _ = obstruction.e2_lower_bound(domain, self.ray)
        return {
            "valid": report.ok,
            "witness": None if witness is None else (witness.kind, tuple(witness.triple)),
            "status": result.status,
            "K": result.K,
            "values": result.values,
            "bound": bound,
        }

    def reference(self, i):
        if i not in self._refs:
            job = self.jobs[i]
            lp_k = _lp_kmin(job["dist"], job["geq"], job["subset"], job["f"])
            first, bound = oracles.first_witness_and_bound(job["dist"], job["geq"])
            self._refs[i] = {
                "valid": oracles.axioms_ok(job["dist"], job["geq"]),
                "lp_k": lp_k,
                "witness": first,
                "bound": bound,
            }
        return self._refs[i]

    def check(self, i, ans):
        job, ref = self.jobs[i], self.reference(i)
        status = "Feasible" if ref["lp_k"] <= 1.0 + SCALAR_TOL else "Infeasible"
        ok = (
            ans["valid"] == ref["valid"]
            and ans["witness"] == ref["witness"]
            and ans["status"] == status
            and _close(ans["K"], job["k_min"], SCALAR_TOL)
            and _close(ans["K"], max(1.0, ref["lp_k"]), SCALAR_TOL)
            and oracles.extension_residual(
                ans["values"], job["dist"], job["geq"], job["subset"], job["f"], ans["K"]
            ) <= SCALAR_TOL * (1.0 + ans["K"] * float(job["dist"].max()))
        )
        if ref["witness"] is None:
            ok = ok and ans["bound"] is None
        else:
            ok = ok and ans["bound"] is not None and _close(ans["bound"], ref["bound"], BOUND_TOL)
        return ok, True


# ---------------------------------------------------------------------------
# euclid-small
# ---------------------------------------------------------------------------


def _generated_cone(rng):
    """A pointed cone in R^3 with four generators within 42 degrees of an
    axis. Pairwise angles stay below 90 degrees, so C lies inside its dual
    and any unit vector of C is a monotone direction."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    gens = []
    for _ in range(4):
        w = rng.normal(size=3)
        w -= (w @ axis) * axis
        w /= np.linalg.norm(w)
        g = axis + rng.uniform(0.3, 0.9) * w
        gens.append(g / np.linalg.norm(g))
    return np.array(gens)


class EuclidSmall:
    """``feasibility_at_K`` for L2 vector targets in R^3, K in {1, 2}.

    Instances come in three classes, with both target cones. A round
    gives each size one class, following ``CLASSES`` in rotation; a block
    of four rounds gives every size every class, so a block is half
    ``certified`` and a quarter each of the others:

    - ``feasible``: restrictions of a global monotone contraction, feasible
      at every K >= 1; Dykstra decides them if it converges in the budget.
    - ``certified``: two-point test maps on a radiality witness along the
      cone's central direction u, with minimal constant K_u >= 4: infeasible
      at K = 1 and 2 and far from both, which a one-direction scalar
      relaxation certifies.
    - ``hard``: the same kind of test map along a single generator u, scaled
      so that its minimal constant K_u lies in ``HARD_K``. Because the cone
      lies inside its dual, <., u> is monotone and 1-Lipschitz, so the scalar
      image along u proves infeasibility at K < K_u (and t -> t u extends the
      scalar solution at K_u). A relaxation along a direction e certifies it
      only when K_u cos(u, e) > K, so a single direction away from u leaves
      many of these Unknown after the sweep budget; a stronger certificate
      decides them. u runs through the generators in turn.

    Certified decisions are over half of all, so the median sits inside
    their narrow cluster, while throughput and the tail are set by Dykstra.
    The sweep budget caps the cost of a decision that has not converged,
    and many blocks of distinct instances keep the share of Unknowns steady
    from seed to seed. Inputs depend on the seed only, never on the package.
    """

    SIZES = (8, 10, 12)
    KS = (1.0, 2.0)
    CLASSES = ("feasible", "certified", "hard", "certified")
    SWEEPS = 50  # fixed Dykstra sweep budget, passed as max_iter
    MIN_RATIO = 4.0
    HARD_K = (2.05, 2.3)  # above both K, within a few percent of 2
    ROUNDS = 88
    block = len(CLASSES) * len(SIZES) * 2 * len(KS)

    def __init__(self, seed, root, smoke=False):
        rng = np.random.default_rng(seed)
        self.instances = []
        self._hard = {"orthant": 0, "generated": 0}  # picks each hard map's generator
        for r in range(1 if smoke else self.ROUNDS):
            for si, n in enumerate(self.SIZES):
                kind = self.CLASSES[(len(self.SIZES) * r + si) % len(self.CLASSES)]
                for name in ("orthant", "generated"):
                    gens = np.eye(3) if name == "orthant" else _generated_cone(rng)
                    self.instances.append(self._instance(rng, n, name, gens, kind))
        self.jobs = [(k, K) for k in range(len(self.instances)) for K in self.KS]

    def _witness_map(self, rng, n, u, min_ratio):
        """(dist, geq, subset, f, K_u) for a two-point map d(hi, lo) u on the
        best radiality witness of a random planar set, K_u >= min_ratio."""
        while True:
            pts = _planar_points(rng, n, half=3.0)
            dist, geq = oracles.l2_dist(pts), oracles.geq_matrix(pts)
            best = oracles.best_witness(dist, geq)
            if best is None:
                continue
            kind, (x, y, z), _ = best
            hi, lo = (x, y) if kind == "RD1" else (y, z)
            subset = tuple(sorted((hi, lo)))
            vals = {hi: dist[hi, lo] * u, lo: np.zeros(3)}
            f = np.array([vals[s] for s in subset])
            k_u = oracles.scalar_kmin(dist, geq, subset, f @ u)
            if k_u >= min_ratio:
                return dist, geq, subset, f, k_u

    def _instance(self, rng, n, name, gens, kind):
        cone = cones.orthant(3) if name == "orthant" else cones.ConeOrder(dim=3, generators=gens)
        k_u = None
        if kind == "feasible":
            pts = _planar_points(rng, n, half=3.0)
            dist, geq = oracles.l2_dist(pts), oracles.geq_matrix(pts)
            subset = tuple(int(s) for s in np.sort(rng.choice(n, size=3, replace=False)))
            A = gens[rng.integers(len(gens), size=2)].T  # columns in the cone
            A *= rng.uniform(0.3, 0.6) / np.linalg.norm(A, 2)
            f = pts[list(subset)] @ A.T
        elif kind == "certified":
            u = gens.sum(axis=0)
            dist, geq, subset, f, k_u = self._witness_map(rng, n, u / np.linalg.norm(u), self.MIN_RATIO)
        else:
            u = gens[self._hard[name] % len(gens)]
            u = u / np.linalg.norm(u)
            self._hard[name] += 1
            target = rng.uniform(*self.HARD_K)
            dist, geq, subset, f, k_u = self._witness_map(rng, n, u, target)
            f = f * (target / k_u)  # shrinks the map, which stays admissible
            k_u = oracles.scalar_kmin(dist, geq, subset, f @ u)
        return {
            "problem": extension.ExtensionProblem(
                domain=_finite_poset(dist, geq), subset=subset, target=cone, f=f
            ),
            "dist": dist, "geq": geq, "subset": subset, "f": f, "kind": kind, "k_u": k_u,
            "normals": oracles.cone_normals(gens),
        }

    def kind(self, i):
        return self.instances[self.jobs[i][0]]["kind"]

    def run(self, i):
        k, K = self.jobs[i]
        res = extension.feasibility_at_K(self.instances[k]["problem"], K, max_iter=self.SWEEPS)
        return {"status": res.status, "values": res.values}

    def check(self, i, ans):
        k, K = self.jobs[i]
        inst = self.instances[k]
        feasible = inst["kind"] == "feasible"
        if ans["status"] == "Unknown":
            return True, False
        if ans["status"] == "Infeasible":
            return not feasible and K < inst["k_u"], True
        if ans["status"] != "Feasible" or not feasible:
            return False, True
        resid = oracles.extension_residual(
            ans["values"], inst["dist"], inst["geq"], inst["subset"], inst["f"], K, inst["normals"]
        )
        return resid <= SCALAR_TOL * (1.0 + K * float(inst["dist"].max())), True


# ---------------------------------------------------------------------------
# line-tree
# ---------------------------------------------------------------------------


def _monotone_line_map(rng, xs, m):
    """Monotone 1-Lipschitz map into the coordinatewise-ordered R^m:
    increments dt * v with v >= 0 and |v|_2 < 1, v redrawn now and then."""
    def direction():
        v = rng.uniform(0.0, 1.0, size=m)
        return v / np.linalg.norm(v) * 0.99 * rng.uniform(0.3, 1.0)

    v = direction()
    vals = np.zeros((len(xs), m))
    for i in range(1, len(xs)):
        vals[i] = vals[i - 1] + (xs[i] - xs[i - 1]) * v
        if rng.random() < 0.3:
            v = direction()
    return vals


def _random_tree(rng, n):
    """Random recursive tree on vertices 0..n-1; the ray runs from 0 to
    the vertex farthest from it."""
    edges, depth = [], [0.0]
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        length = float(rng.uniform(0.5, 2.0))
        edges.append((parent, i, length))
        depth.append(depth[parent] + length)
    end = max(range(1, n), key=lambda v: (depth[v], -v))
    return list(range(n)), edges, 0, end


class LineTree:
    """Line interpolation onto a 200-point grid with an orthant(3) target,
    verified as a chain extension problem, plus an order sweep over all
    vertex pairs of a random tree with 20-50 vertices."""

    GRID = np.linspace(-12.0, 12.0, 200)
    HEREDITY_POINTS = 10
    POOL = 12
    block = 1

    def __init__(self, seed, root, smoke=False):
        rng = np.random.default_rng(seed)
        self.cone = cones.orthant(3)
        self.jobs = []
        for _ in range(1 if smoke else self.POOL):
            xs = np.sort(rng.uniform(-10.0, 10.0, size=int(rng.integers(2, 9))))
            vals = _monotone_line_map(rng, xs, 3)
            merged = np.unique(np.concatenate([xs, self.GRID]))
            vertices, edges, root_v, end = _random_tree(rng, int(rng.integers(20, 51)))
            n = len(vertices)
            self.jobs.append({
                "xs": xs, "vals": vals, "merged": merged,
                "subset": tuple(int(np.searchsorted(merged, x)) for x in xs),
                "tree": (vertices, edges, root_v, end),
                "fractions": rng.uniform(0.0, 1.0, size=(n * n, self.HEREDITY_POINTS)),
            })

    def run(self, i):
        job = self.jobs[i]
        values = extension.line_extend(job["xs"], job["vals"], job["merged"], cone=self.cone)
        domain = poset.chain_instance(job["merged"])
        problem = extension.ExtensionProblem(
            domain=domain, subset=job["subset"], target=self.cone, f=job["vals"]
        )
        residual = extension.verify_extension(problem, values, 1.0).max()

        tree = trees.RTree(*job["tree"])
        vertices = tree.vertices
        agree = hereditary = True
        above_pairs = set()
        for ia, a in enumerate(vertices):
            for ib, b in enumerate(vertices):
                above = tree.order_path(a, b)
                agree = agree and above == tree.order_busemann(a, b)
                if above:
                    above_pairs.add((a, b))
                if a != b and above:
                    ca, cb = tree.canon(a), tree.canon(b)
                    dab = tree.distance(ca, cb)
                    for s in job["fractions"][ia * len(vertices) + ib] * dab:
                        c = tree.point_on_geodesic(ca, cb, float(s))
                        hereditary = hereditary and tree.order_path(ca, c) and tree.order_path(c, cb)
        return {"values": values, "residual": residual, "agree": agree,
                "hereditary": hereditary, "above": above_pairs}

    def check(self, i, ans):
        job = self.jobs[i]
        expect = np.column_stack(
            [np.interp(job["merged"], job["xs"], job["vals"][:, c]) for c in range(3)]
        )
        vertices, edges, _, end = job["tree"]
        ancestors = oracles.tree_ancestors(vertices, edges, end)
        above = {(a, b) for b, chain in ancestors.items() for a in chain}
        ok = (
            ans["residual"] <= 1e-9
            and np.allclose(ans["values"], expect, rtol=1e-12, atol=1e-9)
            and ans["agree"]
            and ans["hereditary"]
            and ans["above"] == above
        )
        return bool(ok), True


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _poset_doc(dist, geq, labels=None):
    n = dist.shape[0]
    return {
        "labels": labels or [str(k) for k in range(n)],
        "dist": dist.tolist(),
        "order": np.argwhere(geq).tolist(),
    }


class Cli:
    """Sequential ``python -m monolip.cli ... --format machine`` calls.

    A block is the seven-command mix on one file set; blocks alternate
    between the shipped ``instances/`` files and files generated into a
    temporary directory inside the checkout (shipped files only in smoke
    mode).
    """

    block = 7

    def __init__(self, seed, root, smoke=False):
        rng = np.random.default_rng(seed)
        self.root = root
        self.inprocess = False
        self.tmp = os.path.join(root, ".perfbench", f"cli-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.jobs = []
        self.refs = []
        self._add_set(self._shipped_set())
        if not smoke:
            self._add_set(self._generated_set(rng))

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- file sets: each is passed to ``_describe``, which returns its seven
    #    calls with the answers the oracles expect.

    def _shipped_set(self):
        inst = os.path.join(self.root, "instances")
        return self._describe(
            os.path.join(inst, "witness_poset.json"),
            os.path.join(inst, "witness_scalar_problem.json"),
            os.path.join(inst, "chain_problem.json"),
            [3.0, -5.0, 10.0],
            os.path.join(inst, "tripod_tree.json"),
            "leaf",
        )

    def _generated_set(self, rng):
        drawn = None
        while drawn is None:
            pts = _planar_points(rng, 12)
            dist, geq = oracles.l2_dist(pts), oracles.geq_matrix(pts)
            drawn = _scalar_map(rng, dist, geq, 4)
        subset, f, _ = drawn
        self._dump("poset.json", _poset_doc(dist, geq))
        self._dump("scalar.json", {
            "poset": "poset.json", "subset": list(subset),
            "target": {"kind": "scalar"}, "f": [[v] for v in f],
        })
        pos = np.round(np.sort(rng.uniform(-8.0, 8.0, size=8)), 3)
        chain_subset = np.sort(rng.choice(8, size=4, replace=False))
        chain_vals = _monotone_line_map(rng, pos[chain_subset], 3)
        chain_dist = np.abs(pos[:, None] - pos[None, :])
        self._dump("chain.json", {
            "poset": _poset_doc(chain_dist, pos[:, None] >= pos[None, :],
                                [format(p, "g") for p in pos]),
            "subset": chain_subset.tolist(),
            "target": {"kind": "cone", "cone": {"dim": 3, "generators": np.eye(3).tolist()}},
            "f": chain_vals.tolist(),
        })
        vertices, edges, root_v, end = _random_tree(rng, 12)
        name = [f"v{v}" for v in vertices]
        self._dump("tree.json", {
            "vertices": name, "edges": [[name[u], name[v], w] for u, v, w in edges],
            "root": name[root_v], "end": name[end],
        })
        point = name[int(rng.integers(1, 12))]
        queries = np.round(rng.uniform(-12.0, 12.0, size=6), 3).tolist()
        return self._describe(
            *(os.path.join(self.tmp, f) for f in ("poset.json", "scalar.json", "chain.json")),
            queries, os.path.join(self.tmp, "tree.json"), point,
        )

    def _dump(self, name, doc):
        with open(os.path.join(self.tmp, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @staticmethod
    def _load(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def _poset_arrays(doc):
        dist = np.asarray(doc["dist"], dtype=float)
        geq = np.zeros(dist.shape, dtype=bool)
        for i, j in doc["order"]:
            geq[i, j] = True
        return dist, geq

    def _problem(self, path):
        """A problem file and its poset document, inline or by path."""
        doc = self._load(path)
        pdoc = doc["poset"]
        if isinstance(pdoc, str):
            pdoc = self._load(os.path.join(os.path.dirname(path), pdoc))
        return doc, pdoc

    def _describe(self, poset_path, scalar_path, chain_path, queries, tree_path, point):
        """The seven calls on one file set, each with its expected answer."""
        dist, geq = self._poset_arrays(self._load(poset_path))
        valid = oracles.axioms_ok(dist, geq)
        first, bound = oracles.first_witness_and_bound(dist, geq)
        radial = first is None

        sdoc, spdoc = self._problem(scalar_path)
        sdist, sgeq = self._poset_arrays(spdoc)
        ssub, sf = sdoc["subset"], np.asarray(sdoc["f"], dtype=float).reshape(-1)
        k_min = oracles.scalar_kmin(sdist, sgeq, ssub, sf)
        lp_k = _lp_kmin(sdist, sgeq, ssub, sf)
        feasible = k_min == 1.0

        cdoc, cpdoc = self._problem(chain_path)
        anchors = [float(cpdoc["labels"][i]) for i in cdoc["subset"]]
        cvals = np.asarray(cdoc["f"], dtype=float).reshape(len(anchors), -1)
        order = np.argsort(anchors)
        interp = np.column_stack([
            np.interp(queries, np.asarray(anchors)[order], cvals[order, c])
            for c in range(cvals.shape[1])
        ])

        tdoc = self._load(tree_path)
        busemann = oracles.tree_busemann(
            tdoc["vertices"], tdoc["edges"], tdoc["root"], tdoc["end"], point)

        q = ",".join(format(v, "g") for v in queries)
        return [
            (["validate", poset_path], 0 if valid else 1, {"ok": valid}),
            (["radial", poset_path], 0 if radial else 1, {"radial": radial}),
            (["certify", poset_path, "--space", "hilbert", "--e", "1,1"],
             0 if radial else 1, {"radial": radial, "bound": bound}),
            (["extend", scalar_path, "--mode", "scalar"], 0 if feasible else 1,
             {"status": "Feasible" if feasible else "Infeasible", "K": k_min, "lp_K": max(1.0, lp_k)}),
            (["extend", chain_path, "--mode", "interpolate", f"--queries={q}"], 0,
             {"status": "Feasible", "K": 1.0, "values": interp}),
            (["busemann", "--space", "tree", "--tree", tree_path, "--point", point, "--limit"], 0,
             {"busemann": busemann}),
            (["estimate-e", scalar_path], 0, {"K": k_min, "conclusive": True}),
        ]

    def _add_set(self, calls):
        for argv, code, expect in calls:
            self.jobs.append(argv + ["--format", "machine"])
            self.refs.append((code, expect))

    def run(self, i):
        argv = self.jobs[i]
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.dispatch(argv)
            return {"code": code, "stdout": out.getvalue()}
        proc = subprocess.run(
            [sys.executable, "-m", "monolip.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return {"code": proc.returncode, "stdout": proc.stdout}

    def check(self, i, ans):
        code, expect = self.refs[i]
        if ans["code"] != code:
            return False, True
        try:
            outcome = json.loads(ans["stdout"].strip().splitlines()[-1])["outcome"]
        except (ValueError, IndexError, KeyError):
            return False, True
        ok = True
        for key, want in expect.items():
            if key == "lp_K":
                ok = ok and _close(outcome["K"], want, SCALAR_TOL)
            elif key == "K" and "conclusive" in expect:
                ok = ok and _close(outcome["K"], want, 0.0, abs_=1e-4)
            elif key == "values":
                got = np.asarray(outcome["values"], dtype=float).reshape(want.shape)
                ok = ok and np.allclose(got, want, rtol=MACHINE_REL, atol=MACHINE_REL)
            elif isinstance(want, float):
                ok = ok and _close(outcome[key], want, MACHINE_REL if key != "K" else SCALAR_TOL)
            else:
                ok = ok and outcome.get(key) == want
        return bool(ok), True


WORKLOADS = {
    "planar-scalar": PlanarScalar,
    "euclid-small": EuclidSmall,
    "line-tree": LineTree,
    "cli": Cli,
}
