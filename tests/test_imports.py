"""Start-up cost: ``import monolip`` loads no submodule, each command
loads only the modules it runs, and scipy is loaded only by the routes
that use it."""

import json
import os
import subprocess
import sys

import pytest

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
        (["estimate-e", WITNESS_PROBLEM, "--supremum"], 0),
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


def test_componentwise_with_vector_targets_loads_no_scipy(tmp_path):
    # one shortest-path table for every coordinate, so m >= 2 needs no
    # more of scipy than the scalar route
    chain = os.path.abspath(os.path.join(INSTANCES, "chain_poset.json"))
    eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for name, norm in (("l2.json", "l2"), ("linf.json", "linf")):
        doc = {
            "poset": chain, "subset": [0, 1, 3], "f": [[0, 0, 0], [0.5, 0.5, 0.5], [1, 1.5, 0.5]],
            "target": {"kind": "cone", "cone": {"dim": 3, "generators": eye, "norm": norm}},
        }
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argvs = [["extend", str(tmp_path / name), "--mode", "componentwise"]
             for name in ("l2.json", "linf.json")]
    code = (
        "import contextlib, io\n"
        "from monolip import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.dispatch(argv + ['--format', 'machine']) for argv in {argvs!r}]\n"
        "print(codes)\n" + REPORT
    )
    codes, loaded = run_fresh(code)
    assert codes == "[0, 0]"
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


# the public names of ``monolip`` by the submodule that defines each, pinned
# here so that the lazy namespace keeps every one
EXPORTS = {
    "cones": [
        "ConeOrder", "MoreauSplit", "contains", "dominates", "dual_contains", "is_pointed",
        "monotone_direction", "moreau_split", "orthant", "project_cone", "scalar_cone",
        "trivial_cone",
    ],
    "extension": [
        "EstimateResult", "ExtensionProblem", "ExtensionResult", "componentwise_extend",
        "estimate_e", "feasibility_at_K", "min_lipschitz_lp", "scalar_extend", "line_extend",
        "scalar_modulus", "verify_extension",
    ],
    "obstruction": [
        "ObstructionCertificate", "build_test_map", "certify_obstruction", "e2_lower_bound",
    ],
    "poset": [
        "FiniteMetricPoset", "RadialityWitness", "chain_instance", "check_radiality",
        "grid_instance", "iter_radiality_witnesses", "poset_from_points", "validate",
    ],
    "spaces": ["BusemannValue", "HalfSpaceHn", "HilbertRay", "busemann_limit", "ray_order"],
    "trees": ["RTree", "random_tree", "tripod"],
}
SUBMODULES = sorted(EXPORTS) + ["errors"]


def test_import_monolip_loads_no_submodule_and_no_numpy():
    (loaded,) = run_fresh(
        "import sys\nimport monolip\n"
        "print(' '.join(m for m in sys.modules if m.startswith(('monolip.', 'numpy'))))\n"
    )
    assert loaded == ""


def test_every_export_resolves_to_its_modules_object():
    code = (
        "import importlib, json\n"
        "import monolip\n"
        f"exports, submodules = {EXPORTS!r}, {SUBMODULES!r}\n"
        "bad = [m for m in submodules\n"
        "       if getattr(monolip, m) is not importlib.import_module('monolip.' + m)]\n"
        "for module, names in exports.items():\n"
        "    own = importlib.import_module('monolip.' + module)\n"
        "    for name in names:\n"
        "        scope = {}\n"
        "        exec(f'from monolip import {name} as got', scope)\n"
        "        if not (scope['got'] is getattr(monolip, name) is getattr(own, name)):\n"
        "            bad.append(name)\n"
        "listed = set(dir(monolip))\n"
        "unlisted = [n for names in exports.values() for n in names if n not in listed]\n"
        "unlisted += [m for m in submodules if m not in listed]\n"
        "try:\n"
        "    monolip.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "star = {}\n"
        "exec('from monolip import *', star)\n"
        "print(json.dumps([bad, unlisted, unknown, sorted(set(star) - {'__builtins__'})]))\n"
    )
    (line,) = run_fresh(code)
    bad, unlisted, unknown, star = json.loads(line)
    assert bad == []
    assert unlisted == []
    assert star == sorted(SUBMODULES + [n for names in EXPORTS.values() for n in names])
    assert unknown == "module 'monolip' has no attribute 'no_such_name'"


BASE = ["cli", "cones", "errors", "files", "poset"]

# each command with its exit code and the exact set of monolip modules it loads
COMMAND_MODULES = {
    "validate": (["validate", WITNESS], 0, BASE),
    "radial": (["radial", WITNESS], 1, BASE),
    "certify": (
        ["certify", WITNESS, "--space", "hilbert", "--e", "1,1"], 1,
        BASE + ["obstruction", "spaces"],
    ),
    "extend-scalar": (["extend", WITNESS_PROBLEM, "--mode", "scalar"], 1, BASE + ["extension"]),
    # takes its round cap from --max-iter's default
    "extend-feasible": (
        ["extend", WITNESS_PROBLEM, "--mode", "feasible", "--K", "1"], 1, BASE + ["extension"],
    ),
    "estimate-e": (["estimate-e", WITNESS_PROBLEM], 0, BASE + ["extension"]),
}


@pytest.mark.parametrize("argv, want_code, want_modules", COMMAND_MODULES.values(),
                         ids=COMMAND_MODULES.keys())
def test_command_loads_only_the_modules_it_runs(argv, want_code, want_modules):
    code = (
        "import contextlib, io, sys\n"
        "from monolip import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.dispatch({argv + ['--format', 'machine']!r})\n"
        "print(code)\n"
        "print(' '.join(sorted(m[len('monolip.'):] for m in sys.modules\n"
        "                      if m.startswith('monolip.'))))\n"
    )
    exit_code, loaded = run_fresh(code)
    assert int(exit_code) == want_code
    assert loaded.split() == sorted(want_modules)
