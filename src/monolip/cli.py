"""Command-line front end.

Subcommands: validate, radial, extend, busemann, certify, estimate-e, gen.

Exit codes: 0 success / feasible, 1 witness found / infeasible (informative
negative), 2 usage or input error, 3 numeric non-convergence.

``--format machine`` emits a single strict JSON document on stdout with all
floats rounded to 9 significant digits and every float that is not finite
written as null; identical inputs reproduce byte-identical machine output
(timing is reported only in human format). No command draws random numbers
but ``gen tree``, whose ``--seed`` its report records.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__, cones, files, poset as poset_mod
from .errors import (
    ConvergenceError,
    MonolipError,
    NumericInstabilityError,
    RadialityRequiredError,
    SchemaError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _round9(obj):
    """Round every float to 9 significant digits, recursively; a float that
    is not finite becomes None (JSON null)."""
    if isinstance(obj, float):
        return float(format(obj, ".9g")) if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round9(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round9(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt(x):
    return format(float(x), ".9g")


class Report:
    """Run report: command, seed (``gen tree``), structured outcome and
    ``inputs``, the SHA-256 of each file read, which the loaders fill."""

    def __init__(self, command, seed=None):
        self.command = command
        self.seed = seed
        self.inputs = {}
        self.outcome = {}
        self.lines = []
        self._t0 = time.monotonic()

    def say(self, text):
        self.lines.append(text)

    def emit(self, fmt):
        if fmt == "machine":
            doc = {
                "command": self.command,
                "inputs": self.inputs,
                "outcome": _round9(self.outcome),
                "version": __version__,
            }
            if self.seed is not None:
                doc["seed"] = self.seed
            print(json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False))
        else:
            for line in self.lines:
                print(line)
            ms = (time.monotonic() - self._t0) * 1000.0
            print(f"[{self.command}] done in {ms:.1f} ms")


# ---------------------------------------------------------------------------
# Shared argument helpers
# ---------------------------------------------------------------------------


def _vector(text):
    try:
        v = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise SchemaError(f"cannot parse vector {text!r} (expected comma floats)")
    if not np.isfinite(v).all():
        raise SchemaError(f"vector {text!r} has an entry that is not finite")
    return v


def _target_from_args(args, inputs):
    """Build the target space selected by --space and its companion flags;
    a file it reads is digested into ``inputs``."""
    from . import spaces

    if args.space == "hilbert":
        if args.e is None:
            raise SchemaError("--space hilbert requires --e")
        e = _vector(args.e)
        norm = float(np.linalg.norm(e))
        if norm == 0:
            raise SchemaError("--e must be nonzero")
        e = e / norm
        if args.cone is not None:
            cone = files.load_cone(args.cone, inputs)
        else:
            # Default: the ray cone generated by e itself (e is then
            # automatically in the cone and its dual).
            cone = cones.ConeOrder(dim=e.shape[0], generators=e[None, :])
        return spaces.HilbertRay(dim=e.shape[0], e=e, cone=cone)
    if args.space == "halfspace":
        n = args.n
        if n is None:
            point = getattr(args, "point", None)  # certify takes no --point
            if point is None:
                raise SchemaError("--space halfspace requires --n (busemann: or --point)")
            n = len(_vector(point))
        return spaces.HalfSpaceHn(n=n)
    if args.tree is None:  # --space tree, the last choice
        raise SchemaError("--space tree requires --tree")
    return files.load_tree(args.tree, inputs)


def _tree_point(tree, text):
    """Parse a tree point: vertex id, 'edge:u:v:offset', or 'ray:t'.

    A vertex is named by its text, so integer ids (as ``gen tree`` writes
    them) are named as digits; a string id wins over another id that
    prints the same.
    """
    ids = {str(v): v for v in tree.vertices if not isinstance(v, str)}
    ids.update((v, v) for v in tree.vertices if isinstance(v, str))
    parts = text.split(":")
    try:
        if parts[0] == "edge" and len(parts) == 4:
            u, v = (ids.get(x, x) for x in parts[1:3])
            return tree.canon(("edge", u, v, float(parts[3])))
        if parts[0] == "ray" and len(parts) == 2:
            return tree.canon(("ray", float(parts[1])))
    except ValueError:
        raise SchemaError(f"cannot parse tree point {text!r}")
    return tree.canon(ids.get(text, text))


def _witness_doc(poset, w):
    return {
        "kind": w.kind,
        "triple": list(w.triple),
        "labels": [poset.labels[i] for i in w.triple],
        "lhs": w.lhs,
        "rhs": w.rhs,
        "ratio": w.ratio,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args, report):
    poset = files.load_poset(args.poset, report.inputs)
    ver = poset_mod.validate(poset, tol=args.tol)
    report.outcome = {
        "ok": ver.ok,
        "violations": [
            {"kind": v.kind, "indices": list(v.indices), "detail": v.detail}
            for v in ver.violations
        ],
    }
    if ver.ok:
        report.say(f"valid metric poset on {poset.n} points")
        return EXIT_OK
    for v in ver.violations:
        report.say(f"violation [{v.kind}] at {v.indices}: {v.detail}")
    return EXIT_NEGATIVE


def _cmd_radial(args, report):
    poset = files.load_poset(args.poset, report.inputs)
    w = poset_mod.check_radiality(poset, tol=args.tol)
    if w is None:
        report.outcome = {"radial": True}
        report.say("radial: no violating triple")
        return EXIT_OK
    report.outcome = {"radial": False, "witness": _witness_doc(poset, w)}
    report.say(
        f"{w.kind} witness at triple {w.triple} "
        f"({', '.join(poset.labels[i] for i in w.triple)}): "
        f"lhs={_fmt(w.lhs)}, rhs={_fmt(w.rhs)}"
    )
    return EXIT_NEGATIVE


def _result_doc(res):
    return {
        "status": res.status,
        "K": res.K,
        "values": res.values,
        "residuals": {
            "lipschitz": res.residuals.lipschitz,
            "order": res.residuals.order,
            "anchor": res.residuals.anchor,
        },
    }


def _cmd_extend(args, report):
    from . import extension

    problem = files.load_problem(args.problem, args.tol, report.inputs)
    if args.mode == "interpolate":
        # each label is its point's position x on the line, and the poset
        # must be the line's own: distances |x - y| and order x >= y
        try:
            x = np.array([float(lab) for lab in problem.domain.labels])
        except ValueError as exc:
            raise SchemaError(f"affine-interpolation mode needs numeric labels: {exc}")
        d = problem.domain.dist
        bad = ~(np.abs(d - np.abs(x[:, None] - x)) <= problem.tol * (1.0 + d))
        bad |= problem.domain.order_matrix != (x[:, None] >= x)
        if bad.any():
            a, b = (problem.domain.labels[i] for i in np.argwhere(bad)[0])
            raise SchemaError(
                "affine-interpolation mode needs the distances |x - y| and the order "
                f"x >= y of the labels' positions; the pair ({a!r}, {b!r}) breaks them"
            )
        queries = _vector(args.queries) if args.queries else x
        out = extension.line_extend(
            x[list(problem.subset)], problem.f, queries, problem.target, tol=problem.tol
        )
        report.outcome = {"status": "Feasible", "K": 1.0, "queries": queries, "values": out}
        for q, v in zip(queries, np.atleast_2d(out)):
            report.say(f"F({_fmt(q)}) = ({', '.join(_fmt(c) for c in v)})")
        return EXIT_OK
    if args.mode == "scalar":
        res = extension.scalar_extend(problem)
    elif args.mode == "componentwise":
        res = extension.componentwise_extend(problem)
    else:  # feasible
        if args.K is None:
            raise SchemaError("--mode feasible requires --K")
        max_iter = extension.MAX_ROUNDS if args.max_iter is None else args.max_iter
        res = extension.feasibility_at_K(problem, args.K, max_iter=max_iter)
    report.outcome = _result_doc(res)
    report.say(f"status: {res.status}, K = {_fmt(res.K)}")
    for lab, v in zip(problem.domain.labels, np.atleast_2d(res.values)):
        report.say(f"  {lab}: ({', '.join(_fmt(c) for c in v)})")
    if res.status == extension.FEASIBLE:
        return EXIT_OK
    if res.status == extension.INFEASIBLE:
        return EXIT_NEGATIVE
    return EXIT_NUMERIC


def _cmd_busemann(args, report):
    from . import spaces

    target = _target_from_args(args, report.inputs)
    if args.point is None:
        raise SchemaError("busemann requires --point")
    if args.space == "tree":
        point = _tree_point(target, args.point)
    else:
        point = _vector(args.point)
        target.check_point(point)
    label = args.point
    value = float(target.busemann(point))
    report.outcome = {"space": args.space, "point": label, "busemann": value}
    report.say(f"busemann({label}) = {_fmt(value)}")
    if args.limit:
        lim = spaces.busemann_limit(target, point, tol=args.tol)
        report.outcome["limit"] = lim.value
        report.outcome["horizon"] = lim.horizon
        report.outcome["limit_gap"] = abs(lim.value - value)
        report.say(
            f"limit oracle at T={_fmt(lim.horizon)}: {_fmt(lim.value)} "
            f"(gap {_fmt(abs(lim.value - value))})"
        )
    return EXIT_OK


def _cmd_certify(args, report):
    from . import obstruction

    poset = files.load_poset(args.poset, report.inputs)
    target = _target_from_args(args, report.inputs)
    bound, cert = obstruction.e2_lower_bound(poset, target, tol=args.tol)
    if cert is None:
        report.outcome = {"radial": True, "bound": 1.0}
        report.say("radial: no obstruction, lower bound 1")
        return EXIT_OK
    w = cert.witness
    report.outcome = {
        "radial": False,
        "bound": cert.bound,
        "target": cert.target,
        "witness": _witness_doc(poset, w),
    }
    report.say(
        f"{w.kind} witness at triple {w.triple}: lhs={_fmt(w.lhs)}, rhs={_fmt(w.rhs)}"
    )
    report.say(f"certified lower bound on the extension modulus: {_fmt(cert.bound)}")
    return EXIT_NEGATIVE


def _cmd_estimate_e(args, report):
    from . import extension

    max_iter = extension.MAX_ROUNDS if args.max_iter is None else args.max_iter
    problem = files.load_problem(args.problem, args.tol, report.inputs)
    if args.supremum:
        # f* lifted to f* u, u a unit monotone direction of the target: its
        # K is e on scalar targets and a lower bound on the vector supremum
        e, pair, f_star = extension.scalar_modulus(problem.domain, problem.subset, problem.tol)
        u = cones.monotone_direction(problem.target)
        problem = extension.ExtensionProblem(
            domain=problem.domain, subset=problem.subset, target=problem.target,
            f=f_star[:, None] * (u / cones.norm_value(u, problem.target.norm)), tol=problem.tol,
        )
    est = extension.estimate_e(problem, max_iter=max_iter)
    report.outcome = {"K": est.K, "lo": est.lo, "hi": est.hi, "conclusive": est.conclusive}
    if args.supremum:
        report.outcome.update(supremum=e, pair=list(pair), map=problem.f)
        a, b = (problem.domain.labels[i] for i in pair)
        report.say(
            f"supremum over admissible scalar maps: {_fmt(e)}, at a = {a!r}, "
            f"b = {b!r} (points {pair[0]}, {pair[1]}), by f*(s) = D*_S(a, s)"
        )
    report.say(
        f"estimated minimal Lipschitz constant: {_fmt(est.K)} "
        f"(bracket [{_fmt(est.lo)}, {_fmt(est.hi)}], "
        f"{'conclusive' if est.conclusive else 'INCONCLUSIVE'})"
    )
    return EXIT_OK if est.conclusive else EXIT_NUMERIC


def _cmd_gen_grid(args, report):
    poset_mod.check_grid_size(args.dim, args.side)  # before the dim x dim cone
    cone = cones.orthant(args.dim, norm=args.norm)
    poset = poset_mod.grid_instance(args.dim, args.side, args.spacing, cone)
    files.dump(files.poset_to_dict(poset), args.out)
    report.outcome = {"kind": "grid", "points": poset.n, "out": args.out}
    report.say(f"wrote {poset.n}-point grid poset to {args.out}")
    return EXIT_OK


def _cmd_gen_tree(args, report):
    from . import trees

    tree = trees.random_tree(args.vertices, np.random.default_rng(args.seed))
    files.dump(files.tree_to_dict(tree), args.out)
    report.outcome = {"kind": "tree", "vertices": len(tree.vertices), "out": args.out}
    report.say(f"wrote {len(tree.vertices)}-vertex tree to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser():
    # every command takes --format; each takes only the other flags it
    # reads, so --seed only gen tree
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"), default="human")
    tol = argparse.ArgumentParser(add_help=False, parents=[common])
    tol.add_argument("--tol", type=float, default=cones.DEFAULT_TOL)
    rounds = argparse.ArgumentParser(add_help=False, parents=[tol])
    rounds.add_argument(
        "--max-iter",
        type=int,
        default=None,
        dest="max_iter",
        help="cap on the cutting-plane rounds for L2 vector targets "
        "(default: extension.MAX_ROUNDS)",
    )

    parser = argparse.ArgumentParser(
        prog="monolip",
        description="Order-preserving Lipschitz extensions on finite metric posets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("validate", parents=[tol], help="check metric + order axioms")
    p.add_argument("poset")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("radial", parents=[tol], help="radiality check with witness")
    p.add_argument("poset")
    p.set_defaults(func=_cmd_radial)

    p = sub.add_parser("extend", parents=[rounds], help="solve an extension problem")
    p.add_argument("problem")
    p.add_argument(
        "--mode",
        choices=("interpolate", "scalar", "feasible", "componentwise"),
        default="scalar",
    )
    p.add_argument("--K", type=float, default=None, help="the K to decide (feasible mode)")
    p.add_argument("--queries", default=None, help="comma floats (interpolate mode)")
    p.set_defaults(func=_cmd_extend)

    def add_space_flags(p):
        p.add_argument("--space", choices=("hilbert", "halfspace", "tree"), required=True)
        p.add_argument("--e", default=None, help="ray direction (hilbert)")
        p.add_argument("--cone", default=None, help="cone file (hilbert)")
        p.add_argument("--n", type=int, default=None, help="dimension (halfspace)")
        p.add_argument("--tree", default=None, help="tree file")

    p = sub.add_parser("busemann", parents=[tol], help="evaluate a Busemann function")
    add_space_flags(p)
    p.add_argument("--point", default=None)
    p.add_argument("--limit", action="store_true", help="also run the limit oracle")
    p.set_defaults(func=_cmd_busemann)

    p = sub.add_parser("certify", parents=[tol], help="obstruction certificate")
    p.add_argument("poset")
    add_space_flags(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "estimate-e",
        parents=[rounds],
        help="minimal Lipschitz constant (exact; a cutting-plane bracket for L2 vector targets)",
    )
    p.add_argument("problem")
    p.add_argument(
        "--supremum", action="store_true", help="the exact supremum over admissible scalar maps"
    )
    p.set_defaults(func=_cmd_estimate_e)

    gen = sub.add_parser("gen", help="write generated instances")
    kinds = gen.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("grid", parents=[common], help="lattice poset ordered by the orthant")
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--side", type=int, default=2)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")
    p.set_defaults(func=_cmd_gen_grid)
    p = kinds.add_parser("tree", parents=[common], help="random R-tree with a marked end")
    p.add_argument("--out", required=True)
    p.add_argument("--vertices", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_tree)

    return parser


def _flag_error(args):
    """Why a flag is out of range, or is one the extend mode does not read, or None."""
    if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:
        return f"--tol must be finite and at least 0, got {args.tol}"
    if getattr(args, "max_iter", None) is not None and args.max_iter < 1:
        return f"--max-iter must be at least 1, got {args.max_iter}"
    # the extend flags that one --mode alone reads
    for dest, mode in (("K", "feasible"), ("queries", "interpolate"), ("max_iter", "feasible")):
        if args.subcommand == "extend" and getattr(args, dest) is not None and args.mode != mode:
            flag = "--" + dest.replace("_", "-")
            return f"{flag} is read only by --mode {mode}, not by --mode {args.mode}"
    return None


def dispatch(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    message = _flag_error(args)
    if message is not None:
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    report = Report(args.subcommand, seed=getattr(args, "seed", None))
    try:
        code = args.func(args, report)
    except RadialityRequiredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ConvergenceError, NumericInstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MonolipError as exc:  # SchemaError, SizeCapError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report.emit(args.format)
    return code


def main():
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
