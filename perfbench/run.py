"""Benchmark runner: one workload, one process, no worker threads.

    python3 perfbench/run.py --workload planar-scalar --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload in turn, each in a fresh process.

Run it from the root of a source checkout; it imports ``monolip`` from
``src/`` there and from nowhere else. Set-up (imports, input generation
from ``--seed`` and one untimed warm-up operation) is timed on its own.
Operations then run in a closed loop with one caller for ``--seconds``,
always finishing a whole block of the workload's pool. Every answer is
checked afterwards, outside the timed region. The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The exit code is 1 if any answer was wrong.

``--trace 1`` spends half the time untraced and half traced, and reports
per-operation call counts and self times of the functions in ``layers.py``
plus the ratio of the two throughputs. Spans are written as JSON lines to
``.perfbench/`` in the checkout. ``--smoke`` builds the first block of the
pool only, skips the warm-up and runs a few operations.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3  # set-ups per run (this process plus fresh children)
PROBE_REPEATS = 3  # fresh interpreters per cli.interpreter_s / cli.import_s
# BENCHMARK.json gates planar-scalar and cli only, so that each can have a
# long run in the time allowed; euclid-small and line-tree run here ungated.
WORKLOADS = ("planar-scalar", "euclid-small", "line-tree", "cli")
SMOKE_OPS = {"planar-scalar": 2, "euclid-small": 12, "line-tree": 1, "cli": 3}


def _import_package():
    """Import monolip from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "monolip", "__init__.py")):
        sys.exit(f"error: no monolip package under {SRC}")
    sys.path.insert(0, SRC)
    import monolip

    if os.path.dirname(os.path.dirname(os.path.abspath(monolip.__file__))) != SRC:
        sys.exit(f"error: monolip was imported from {monolip.__file__}, not {SRC}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few operations only")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _loop(wl, seconds, max_ops=None, recorder=None):
    """Closed loop over the pool in whole blocks; returns (samples, wall)."""
    samples = []  # (job index, answer or None, error or None, latency)
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        job = i % len(wl.jobs)
        if recorder is not None:
            recorder.op_id = i
        t = clock()
        try:
            answer, error = wl.run(job), None
        except Exception as exc:  # a failed operation is counted, not fatal
            answer, error = None, f"{type(exc).__name__}: {exc}"
        samples.append((job, answer, error, clock() - t))
        i += 1
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i % wl.block == 0 and clock() - start >= seconds:
            break
    return samples, clock() - start


def _judge(wl, samples):
    """(failed, decided, errors, undecided) over the samples, checked against
    the oracles; ``undecided`` counts Unknowns by instance class, for
    workloads that name one."""
    failed = decided = 0
    errors = []
    undecided = {}
    for job, answer, error, _ in samples:
        if error is None:
            try:
                ok, was_decided = wl.check(job, answer)
            except Exception as exc:  # a malformed answer is a failure
                ok, was_decided, error = False, True, f"check: {type(exc).__name__}: {exc}"
        else:
            ok, was_decided = False, True
        decided += was_decided
        if not was_decided and hasattr(wl, "kind"):
            undecided[wl.kind(job)] = undecided.get(wl.kind(job), 0) + 1
        if not ok:
            failed += 1
            errors.append(error or f"job {job}: wrong answer")
    return failed, decided, errors, undecided


def _tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    Falls back to the median when 20 samples or fewer leave no such
    percentile above the median. Returns (value, percentile, beyond).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n > 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return statistics.median(xs), 50.0, n // 2


def _peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _child(args):
    """Run this script again in a fresh interpreter; returns its last JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fresh_python(code):
    """Wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120)
    return time.perf_counter() - t


def _metadata(args):
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def _end_to_end(args, wl, setup_s, children_rss):
    max_ops = SMOKE_OPS[args.workload] if args.smoke else None
    samples, wall = _loop(wl, args.seconds, max_ops)
    peak = _peak_rss_mb(children_rss)
    failed, decided, errors, undecided = _judge(wl, samples)
    setups = [setup_s]
    if not args.smoke:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_child(["--workload", args.workload, "--seed", str(args.seed),
                                  "--setup-probe"])["setup_s"])
    latencies = [s[3] for s in samples]
    tail, pct, beyond = _tail(latencies)
    attempted = len(samples)
    metrics = {
        "problems_per_s": ((attempted - failed) / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "decided_ratio": (decided / attempted, "ratio"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {
        "error_rate": failed / attempted,
        "tail_percentile": pct, "tail_samples_beyond": beyond, "samples": attempted,
        "timed_wall_s": wall, "setup_samples_s": setups, "unknown_by_class": undecided,
        "errors": errors[:5],
    }
    return attempted, failed, metrics, info


def _per_layer(args, wl):
    import layers
    from spans import SpanRecorder

    max_ops = SMOKE_OPS[args.workload] if args.smoke else None
    if args.workload == "cli":
        wl.inprocess = True  # traced calls need the package in this process
    plain, plain_wall = _loop(wl, args.seconds / 2, max_ops)
    recorder = SpanRecorder((name, module, attr) for name, module, attr, *_ in layers.LAYERS)
    recorder.install()
    try:
        traced, traced_wall = _loop(wl, args.seconds / 2, max_ops, recorder)
    finally:
        recorder.uninstall()
    failed_plain, _, errors, _ = _judge(wl, plain)
    failed_traced, _, errors_t, _ = _judge(wl, traced)
    ops = len(traced)
    metrics = {}
    for name, *_ in layers.LAYERS:
        metrics[f"{name}.calls"] = (recorder.calls[name] / ops, "count/op")
        metrics[f"{name}.self_s"] = (recorder.self_s[name] / ops, "s/op")
    if args.workload == "cli":
        repeats = 1 if args.smoke else PROBE_REPEATS
        interp = statistics.median(_fresh_python("pass") for _ in range(repeats))
        imp = statistics.median(_fresh_python("import monolip") for _ in range(repeats))
    else:
        interp = imp = 0.0
    metrics["cli.interpreter_s"] = (interp, "s")
    metrics["cli.import_s"] = (imp, "s")
    pps_plain = (len(plain) - failed_plain) / plain_wall
    pps_traced = (ops - failed_traced) / traced_wall
    # with every traced operation failed the run is marked incorrect anyway
    metrics["trace.overhead_ratio"] = (pps_plain / pps_traced if pps_traced else 0.0, "ratio")

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    recorder.write_jsonl(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    attempted = len(plain) + ops
    failed = failed_plain + failed_traced
    info = {"error_rate": failed / attempted, "untraced_ops": len(plain), "traced_ops": ops,
            "dropped_spans": recorder.dropped, "errors": (errors + errors_t)[:5]}
    return attempted, failed, metrics, info


def _run_all(args):
    """Each workload in a fresh process; the worst exit code wins."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        code = subprocess.run([sys.executable, os.path.abspath(__file__), *argv], cwd=ROOT).returncode
        worst = max(worst, code)
    return worst


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, smoke=args.smoke)
    try:
        if not args.smoke:
            wl.run(0)  # untimed warm-up operation
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            attempted, failed, metrics, info = _per_layer(args, wl)
        else:
            attempted, failed, metrics, info = _end_to_end(
                args, wl, setup_s, children_rss=args.workload == "cli")
    finally:
        if hasattr(wl, "close"):
            wl.close()

    print(json.dumps({"meta": _metadata(args), **info}, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{'error_rate':40s} {info['error_rate']:14.6g} ratio")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
