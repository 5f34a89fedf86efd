"""Start-up cost: scipy is loaded only by the routes that use it."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
INSTANCES = os.path.join(ROOT, "instances")
WITNESS = os.path.join(INSTANCES, "witness_poset.json")
WITNESS_PROBLEM = os.path.join(INSTANCES, "witness_scalar_problem.json")
CHAIN_PROBLEM = os.path.join(INSTANCES, "chain_problem.json")

REPORT = "import sys\nprint(' '.join(m for m in sys.modules if m.startswith('scipy')))\n"


def run_fresh(code):
    """Stdout lines of ``code`` run in a fresh interpreter that sees the
    package's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.splitlines()


def test_import_loads_no_scipy_solver():
    (loaded,) = run_fresh("import monolip, monolip.cli\n" + REPORT)
    loaded = loaded.split()
    assert "scipy.optimize" not in loaded
    assert "scipy.sparse" not in loaded


def test_commands_without_solvers_skip_scipy_optimize():
    calls = [
        (["validate", WITNESS], 0),
        (["radial", WITNESS], 1),
        (["extend", os.path.join(INSTANCES, "chain_problem.json"),
          "--mode", "interpolate", "--queries=3,-5,10"], 0),
        (["busemann", "--space", "tree", "--tree", os.path.join(INSTANCES, "tripod_tree.json"),
          "--point", "leaf", "--limit"], 0),
        (["certify", WITNESS, "--space", "hilbert", "--e", "1,1"], 1),
    ]
    code = (
        "import contextlib, io\n"
        "from monolip import cli\n"
        "codes = []\n"
        f"for argv in {[argv for argv, _ in calls]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.dispatch(argv + ['--format', 'machine']))\n"
        "print(codes)\n" + REPORT
    )
    codes, loaded = run_fresh(code)
    assert codes == str([want for _, want in calls])
    assert "scipy.optimize" not in loaded.split()


def test_scalar_commands_load_no_scipy():
    calls = [
        (["certify", WITNESS, "--space", "hilbert", "--e", "1,1"], 1),
        (["extend", WITNESS_PROBLEM, "--mode", "scalar"], 1),
        (["extend", WITNESS_PROBLEM, "--mode", "feasible", "--K", "1"], 1),
        (["extend", CHAIN_PROBLEM, "--mode", "componentwise"], 0),
        (["estimate-e", WITNESS_PROBLEM], 0),
        (["estimate-e", WITNESS_PROBLEM, "--samples", "3", "--seed", "1"], 0),
    ]
    code = (
        "import contextlib, io\n"
        "from monolip import cli\n"
        "codes = []\n"
        f"for argv in {[argv for argv, _ in calls]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.dispatch(argv + ['--format', 'machine']))\n"
        "print(codes)\n" + REPORT
    )
    codes, loaded = run_fresh(code)
    assert codes == str([want for _, want in calls])
    assert loaded == ""


def test_halfspace_cone_membership_skips_scipy_optimize():
    code = (
        "from monolip import cones\n"
        "cone = cones.ConeOrder(dim=2, halfspaces=[[1, 0.2], [0.1, 1]])\n"
        "print(cones.contains_many(cone, [[1.0, 1.0], [-1.0, 0.0]]).tolist())\n" + REPORT
    )
    member, loaded = run_fresh(code)
    assert member == "[True, False]"
    assert "scipy.optimize" not in loaded.split()
