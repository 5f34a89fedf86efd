"""One-shot size sweep of the slow layers; not part of any gated run.

    python3 perfbench/sweep.py --out perfbench/sweep-baseline.json

Times, at grid sizes n = 196 and 400 (a 2-D grid, coordinatewise order, L2):
``grid_instance``, ``validate``, the radiality scan (with the default
triple cap and with ``triple_cap=n**3`` passed explicitly) and the scalar
LP (``lp_feasible_at_K`` at K = 1 and ``min_lipschitz_lp``). It also times
``verify_extension`` on a 205-point chain with an ``orthant(3)`` target and
the import of the package in a fresh interpreter. A ``SizeCapError`` is
recorded as that entry's result. The sizes stop below 676 points, where
the dense scalar LP was killed for lack of memory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from run import SRC, _fresh_python  # pins BLAS to one thread before numpy loads

SIDES = (14, 20)  # grids of n = 196 and n = 400 points
SEED = 0


def _timed(fn):
    """{"seconds": ...} or {"error": ...} for a SizeCapError."""
    from monolip.errors import SizeCapError

    t = time.perf_counter()
    try:
        fn()
    except SizeCapError as exc:
        return {"error": f"SizeCapError: {exc}", "seconds": time.perf_counter() - t}
    return {"seconds": time.perf_counter() - t}


def _grid_row(side, rng):
    import numpy as np

    import oracles
    from monolip import cones, extension, poset

    n = side * side
    row = {"n": n}
    holder = {}
    row["grid_instance"] = _timed(
        lambda: holder.update(p=poset.grid_instance(2, side, 1.0, cones.orthant(2)))
    )
    domain = holder["p"]
    row["validate"] = _timed(lambda: poset.validate(domain))
    row["check_radiality_default_cap"] = _timed(lambda: poset.check_radiality(domain))
    row["check_radiality_explicit_cap"] = _timed(
        lambda: poset.check_radiality(domain, triple_cap=n**3)
    )
    geq = domain.order_matrix
    subset = np.sort(rng.choice(n, size=6, replace=False))
    f = oracles.admissible_scalar_map(domain.dist, geq, subset, rng.normal(scale=3.0, size=6))
    problem = extension.ExtensionProblem(
        domain=domain, subset=tuple(int(s) for s in subset), target=cones.scalar_cone(),
        f=f[:, None],
    )
    pairs = n * (n - 1) // 2
    order_pairs = int(geq.sum()) - n
    row["lp_dense_rows"] = 2 * pairs + order_pairs
    row["lp_dense_mb"] = (2 * pairs + order_pairs) * n * 8 / 2**20
    row["lp_feasible_at_K"] = _timed(lambda: extension.lp_feasible_at_K(problem, 1.0))
    row["min_lipschitz_lp"] = _timed(lambda: extension.min_lipschitz_lp(problem))
    row["peak_rss_mb_so_far"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return row


def _chain_row(rng):
    import numpy as np

    from monolip import cones, extension, poset

    xs = np.sort(rng.uniform(-10.0, 10.0, size=5))
    steps = rng.uniform(0.0, 0.5, size=(4, 3)) * np.diff(xs)[:, None]
    vals = np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])
    merged = np.unique(np.concatenate([xs, np.linspace(-12.0, 12.0, 200)]))
    cone = cones.orthant(3)
    values = extension.line_extend(xs, vals, merged, cone=cone)
    problem = extension.ExtensionProblem(
        domain=poset.chain_instance(merged),
        subset=tuple(int(np.searchsorted(merged, x)) for x in xs), target=cone, f=vals,
    )
    row = {"n": len(merged)}
    row["verify_extension"] = _timed(lambda: extension.verify_extension(problem, values, 1.0))
    return row


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", default=None, help="also write the JSON here")
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    rng = np.random.default_rng(SEED)
    doc = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "seed": SEED,
        "import_monolip_s": statistics.median(_fresh_python("import monolip") for _ in range(3)),
        "grids": [], "chain": _chain_row(rng),
    }
    for side in SIDES:
        doc["grids"].append(_grid_row(side, rng))
        print(json.dumps(doc["grids"][-1]), file=sys.stderr, flush=True)
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
