"""Instance-file schemas and the command-line front end."""

import builtins
import collections
import json
import math
import os
import shutil
import tracemalloc

import numpy as np
import pytest

import monolip as ml
from monolip import cli, cones, files
from monolip.errors import SchemaError

from conftest import round_cap_problem

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, os.pardir, "instances")
WITNESS = os.path.join(INSTANCES, "witness_poset.json")
WITNESS_PROBLEM = os.path.join(INSTANCES, "witness_scalar_problem.json")
CHAIN_PROBLEM = os.path.join(INSTANCES, "chain_problem.json")
CHAIN_POSET = os.path.join(INSTANCES, "chain_poset.json")
TRIPOD = os.path.join(INSTANCES, "tripod_tree.json")


# ---------------------------------------------------------------------------
# file schemas
# ---------------------------------------------------------------------------


def test_poset_round_trip(tmp_path):
    p = ml.poset_from_points([(1.0, -2.0), (0.0, 0.0), (0.0, -1.0)], ml.orthant(2))
    path = tmp_path / "p.json"
    files.dump(files.poset_to_dict(p), path)
    q = files.load_poset(path)
    assert q.labels == p.labels and q.order == p.order
    np.testing.assert_allclose(q.dist, p.dist, atol=0)


def test_poset_schema_nonsymmetric_names_entry(tmp_path):
    doc = {
        "labels": ["a", "b"],
        "dist": [[0.0, 1.0], [2.0, 0.0]],
        "order": [[0, 0], [1, 1]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"\(0, 1\)"):
        files.load_poset(path)


def test_tree_schema_cycle(tmp_path):
    doc = {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b", 1.0], ["b", "c", 1.0], ["c", "a", 1.0]],
        "root": "a",
        "end": "c",
    }
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="acyclic"):
        files.load_tree(path)


def test_problem_missing_field(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"subset": [0]}))
    with pytest.raises(SchemaError, match="poset"):
        files.load_problem(path)


def test_problem_relative_poset_path():
    problem = files.load_problem(WITNESS_PROBLEM)
    assert problem.domain.n == 3
    assert problem.subset == (0, 1)


def test_cone_round_trip(tmp_path):
    c = ml.ConeOrder(dim=2, generators=np.array([[1.0, 0.0], [1.0, 1.0]]), norm="linf")
    path = tmp_path / "c.json"
    files.dump(files.cone_to_dict(c), path)
    q = files.load_cone(path)
    assert q.norm == "linf"
    np.testing.assert_allclose(q.generators, c.generators, atol=0)


# ---------------------------------------------------------------------------
# CLI exit codes and outputs
# ---------------------------------------------------------------------------


def test_cli_radial_witness(capsys):
    code = cli.dispatch(["radial", WITNESS])
    out = capsys.readouterr().out
    assert code == 1
    assert "RD1" in out and "1.41421356" in out and "2.23606798" in out


def test_cli_radial_on_radial_poset(tmp_path, capsys):
    p = ml.chain_instance([0.0, 1.0, 3.0])
    path = tmp_path / "chain.json"
    files.dump(files.poset_to_dict(p), path)
    assert cli.dispatch(["radial", str(path)]) == 0


def test_cli_busemann_hilbert(capsys):
    code = cli.dispatch(
        ["busemann", "--space", "hilbert", "--e", "0,1", "--point", "3,4"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "-4" in out


def test_cli_certify_witness(capsys):
    code = cli.dispatch(["certify", WITNESS, "--space", "hilbert", "--e", "0,1"])
    out = capsys.readouterr().out
    assert code == 1 and "1.58113883" in out


def test_cli_estimate_e(capsys):
    code = cli.dispatch(["estimate-e", WITNESS_PROBLEM])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split("constant:")[1].split()[0])
    assert value == pytest.approx(math.sqrt(2.5), abs=1e-3)


def test_cli_extend_feasible_exit_codes():
    assert cli.dispatch(["extend", WITNESS_PROBLEM, "--mode", "feasible", "--K", "1.0"]) == 1
    assert cli.dispatch(["extend", WITNESS_PROBLEM, "--mode", "feasible", "--K", "1.6"]) == 0


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


def test_machine_output_is_strict_json_with_null_for_non_finite_values(capsys):
    # infeasible at K = 1: the residuals of the missing extension are infinite
    argv = ["extend", WITNESS_PROBLEM, "--mode", "feasible", "--K", "1", "--format", "machine"]
    assert cli.dispatch(argv) == 1
    doc = _strict_json(capsys.readouterr().out)
    assert doc["outcome"]["residuals"] == {"anchor": None, "lipschitz": None, "order": None}
    argv = ["busemann", "--space", "halfspace", "--point", "0,1e300", "--limit", "--format", "machine"]
    assert cli.dispatch(argv) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["outcome"]["limit"] == doc["outcome"]["busemann"] == -690.775528


def test_round9_writes_non_finite_floats_as_none():
    assert cli._round9({"a": [math.inf, -math.inf, math.nan, 1.23456789012]}) == {
        "a": [None, None, None, 1.23456789]
    }
    assert cli._round9(np.float64(np.nan)) is None


def test_cli_busemann_tree(capsys):
    code = cli.dispatch(
        ["busemann", "--space", "tree", "--tree", TRIPOD, "--point", "leaf", "--limit"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "busemann(leaf) = 1" in out


def test_cli_busemann_names_integer_tree_vertices(tmp_path, capsys):
    """``gen tree`` writes integer vertex ids; ``--point`` names them by their digits."""
    path = tmp_path / "t.json"
    assert cli.dispatch(["gen", "tree", "--vertices", "8", "--seed", "4", "--out", str(path)]) == 0
    tree = files.load_tree(path)
    assert 3 in tree.vertices and tree.edge_length(1, 3) > 0.3
    capsys.readouterr()
    busemann = ["busemann", "--space", "tree", "--tree", str(path), "--format", "machine"]
    for text, point in (("3", 3), ("edge:1:3:0.3", ("edge", 1, 3, 0.3))):
        code = cli.dispatch(busemann + ["--point", text])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["outcome"]["point"] == text
        assert doc["outcome"]["busemann"] == float(f"{tree.busemann(point):.9g}")
    assert cli.dispatch(busemann + ["--point", "99"]) == 2
    assert "unknown vertex '99'" in capsys.readouterr().err
    assert cli.dispatch(busemann + ["--point", "ray:x"]) == 2
    assert "cannot parse tree point" in capsys.readouterr().err


def test_cli_unknown_subcommand(capsys):
    assert cli.dispatch(["nosuch"]) == 2


def test_cli_schema_error_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.dispatch(["radial", str(path)]) == 2


def test_cli_feasible_mode_requires_K(capsys):
    assert cli.dispatch(["extend", WITNESS_PROBLEM, "--mode", "feasible"]) == 2


def _usage_error(argv, capsys):
    """The one stderr line of a call that must exit 2 and print nothing."""
    assert cli.dispatch(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    return line


INTERPOLATE = ["extend", CHAIN_PROBLEM, "--mode", "interpolate"]


@pytest.mark.parametrize(
    "argv",
    [
        [*INTERPOLATE, "--queries=a,b"],
        [*INTERPOLATE, "--queries=1,", "--format", "machine"],
        [*INTERPOLATE, "--queries=nan,inf", "--format", "machine"],
        ["busemann", "--space", "hilbert", "--e", "1,1", "--point", "1,nan", "--format", "machine"],
        ["busemann", "--space", "hilbert", "--e", "inf,1", "--point", "1,1"],
        ["busemann", "--space", "halfspace", "--point", "0,-inf,1"],
    ],
    ids=["queries-text", "queries-empty", "queries-nan", "point-nan", "e-inf", "point-inf"],
)
def test_cli_malformed_vector_flags_are_usage_errors(argv, capsys):
    _usage_error(argv, capsys)


def _triangle_breaker(tmp_path):
    """A three-point chain with d(0, 2) = 5 > d(0, 1) + d(1, 2) = 2."""
    dist = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    order = [(0, 0), (1, 1), (2, 2), (1, 0), (2, 1), (2, 0)]
    p = ml.FiniteMetricPoset(("a", "b", "c"), dist, order)
    path = tmp_path / "broken.json"
    files.dump(files.poset_to_dict(p), path)
    return str(path)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "nan"], "error: --tol must be finite and at least 0, got nan"),
        (["--tol", "inf"], "error: --tol must be finite and at least 0, got inf"),
        (["--tol", "-1"], "error: --tol must be finite and at least 0, got -1.0"),
    ],
    ids=["nan", "inf", "negative"],
)
@pytest.mark.parametrize("command", ["validate", "radial"])
def test_cli_tol_must_be_finite_and_nonnegative(command, flags, message, tmp_path, capsys):
    broken = _triangle_breaker(tmp_path)
    assert _usage_error([command, broken, *flags], capsys) == message
    assert _usage_error([command, WITNESS, *flags], capsys) == message


def test_cli_tol_zero_still_checks(tmp_path, capsys):
    assert cli.dispatch(["validate", _triangle_breaker(tmp_path), "--tol", "0"]) == 1
    assert "triangle inequality" in capsys.readouterr().out
    assert cli.dispatch(["validate", WITNESS, "--tol", "0"]) == 0
    assert cli.dispatch(["radial", WITNESS, "--tol", "0"]) == 1


def test_cli_non_finite_spacing_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "grid.json"
    argv = ["gen", "grid", "--out", str(out), "--spacing", "inf"]
    assert _usage_error(argv, capsys) == "error: spacing must be finite, got inf"
    assert not out.exists()


def test_cli_negative_samples_is_a_usage_error(capsys):
    # the sampler is gone: --samples, of any count, is a flag nothing reads
    for count in ("-3", "3"):
        assert cli.dispatch(["estimate-e", WITNESS_PROBLEM, "--samples", count]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", WITNESS_PROBLEM, "--mode", "scalar", "--max-iter", "-5"],
        ["extend", WITNESS_PROBLEM, "--mode", "feasible", "--K", "2", "--max-iter", "0"],
        ["estimate-e", WITNESS_PROBLEM, "--max-iter", "0"],
        ["estimate-e", WITNESS_PROBLEM, "--supremum", "--max-iter", "0"],
    ],
    ids=["extend-scalar", "extend-feasible", "estimate-e", "estimate-e-supremum"],
)
def test_cli_max_iter_below_one_is_a_usage_error(argv, capsys):
    # scalar problems run no rounds, yet the cap is refused as for vectors
    line = _usage_error(argv, capsys)
    assert line == f"error: --max-iter must be at least 1, got {argv[-1]}"


def _problem_file(tmp_path, name, poset, subset, f, target):
    path = tmp_path / name
    files.dump({"poset": files.poset_to_dict(poset), "subset": subset, "target": target, "f": f}, path)
    return str(path)


def test_cli_interpolate_refuses_a_poset_its_labels_do_not_place(tmp_path, capsys):
    # a chain at 0, 2, 2.1, 3 labelled "0" .. "3": the labels would put
    # "1" and "2" 1 apart where d = 0.1, and call f = 0, 1, 2, 3 1-Lipschitz
    x = np.array([0.0, 2.0, 2.1, 3.0])
    chain = ml.FiniteMetricPoset(
        ("0", "1", "2", "3"), np.abs(x[:, None] - x), x[:, None] >= x
    )
    scalar = {"kind": "scalar"}
    path = _problem_file(tmp_path, "placed.json", chain, [0, 3], [[0.0], [3.0]], scalar)
    line = _usage_error(["extend", path, "--mode", "interpolate", "--format", "machine"], capsys)
    assert "the pair ('0', '1') breaks them" in line
    # the distances of the labels, but the order reversed
    y = np.array([0.0, 1.0, 2.0, 3.0])
    reversed_chain = ml.FiniteMetricPoset(("0", "1", "2", "3"), np.abs(y[:, None] - y), y[:, None] <= y)
    path = _problem_file(tmp_path, "reversed.json", reversed_chain, [0, 3], [[3.0], [0.0]], scalar)
    line = _usage_error(["extend", path, "--mode", "interpolate"], capsys)
    assert "the pair ('0', '1') breaks them" in line
    # the line itself passes
    line_chain = ml.FiniteMetricPoset(("0", "1", "2", "3"), np.abs(y[:, None] - y), y[:, None] >= y)
    path = _problem_file(tmp_path, "line.json", line_chain, [0, 3], [[0.0], [3.0]], scalar)
    assert cli.dispatch(["extend", path, "--mode", "interpolate", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"]["values"] == [[0.0], [1.0], [2.0], [3.0]]


def test_cli_interpolate_orders_values_by_the_problems_own_cone(tmp_path, capsys):
    # on the reversed ray R-, f falls along the line; it was checked against R+
    y = np.array([0.0, 1.0, 2.0, 3.0])
    chain = ml.FiniteMetricPoset(("0", "1", "2", "3"), np.abs(y[:, None] - y), y[:, None] >= y)
    reversed_ray = {"kind": "cone", "cone": {"dim": 1, "generators": [[-1.0]]}}
    path = _problem_file(tmp_path, "falling.json", chain, [0, 3], [[3.0], [0.0]], reversed_ray)
    assert cli.dispatch(["extend", path, "--mode", "interpolate", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"]["values"] == [[3.0], [2.0], [1.0], [0.0]]


def test_cli_componentwise_honours_tol_as_scalar_does(tmp_path, capsys):
    # f(1) = 1 + 1e-7 at d(0, 1) = 1 is admissible within --tol 1e-6
    with open(CHAIN_PROBLEM, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["f"][1] = [1.0 + 1e-7]
    doc["poset"] = CHAIN_POSET
    path = str(tmp_path / "problem.json")
    files.dump(doc, path)
    for mode in (["scalar"], ["componentwise"], ["interpolate"], ["feasible", "--K", "1"]):
        assert cli.dispatch(["extend", path, "--mode", *mode, "--tol", "1e-6"]) == 0
        assert cli.dispatch(["extend", path, "--mode", *mode]) == 2
    capsys.readouterr()


def test_cli_machine_output_deterministic(capsys):
    cli.dispatch(["radial", WITNESS, "--format", "machine"])
    first = capsys.readouterr().out
    cli.dispatch(["radial", WITNESS, "--format", "machine"])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["command"] == "radial"
    assert doc["outcome"]["witness"]["lhs"] == pytest.approx(1.41421356, abs=1e-8)
    assert WITNESS in doc["inputs"]


def test_cli_machine_floats_9_significant_digits(capsys):
    cli.dispatch(["radial", WITNESS, "--format", "machine"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["outcome"]["witness"]["rhs"] == float(f"{math.sqrt(5):.9g}")


def test_cli_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "grid.json"
    assert cli.dispatch(["gen", "grid", "--dim", "2", "--side", "2", "--out", str(out)]) == 0
    p = files.load_poset(out)
    assert p.n == 4
    tree_out = tmp_path / "tree.json"
    assert (
        cli.dispatch(["gen", "tree", "--vertices", "9", "--seed", "4", "--out", str(tree_out)])
        == 0
    )
    t = files.load_tree(tree_out)
    assert len(t.vertices) == 9


def test_cli_estimate_e_supremum_on_the_witness(capsys):
    argv = ["estimate-e", WITNESS_PROBLEM, "--supremum", "--format", "machine"]
    assert cli.dispatch(argv) == 0
    outcome = _strict_json(capsys.readouterr().out)["outcome"]
    e = float(f"{math.sqrt(2.5):.9g}")
    assert outcome == {
        "K": e, "lo": e, "hi": e, "conclusive": True,
        "supremum": e, "pair": [1, 0], "map": [[2.23606798], [0.0]],
    }
    assert cli.dispatch(["estimate-e", WITNESS_PROBLEM, "--supremum"]) == 0
    out = capsys.readouterr().out
    assert "supremum over admissible scalar maps: 1.58113883, at a = '0,0'" in out


def _anchored_problem(tmp_path, cone, order=None, seed=3):
    """8 planar points ordered by ``order`` (default ``cone``), five of
    them anchored at 0 in the target ``cone``."""
    rng = np.random.default_rng(seed)
    p = ml.poset_from_points(np.round(rng.uniform(-3.0, 3.0, size=(8, 2)), 3), order or cone)
    target = {"kind": "cone", "cone": files.cone_to_dict(cone)}
    return _problem_file(tmp_path, "problem.json", p, [0, 1, 2, 3, 4], [[0.0] * cone.dim] * 5, target)


def _supremum(path, capsys):
    code = cli.dispatch(["estimate-e", path, "--supremum", "--format", "machine"])
    return code, json.loads(capsys.readouterr().out)["outcome"]


@pytest.mark.parametrize(
    "cone",
    [
        ml.orthant(3, "l2"),
        ml.orthant(3, "l1"),
        ml.orthant(3, "linf"),
        ml.ConeOrder(dim=3, generators=[[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.2, 0.1, 1.0]]),
    ],
    ids=["l2", "l1", "linf", "generated"],
)
def test_cli_estimate_e_supremum_lift_attains_e(tmp_path, capsys, cone):
    # f* u, u a unit monotone direction in the target's norm: its K is a
    # lower bound on the vector supremum, and on these targets e itself
    path = _anchored_problem(tmp_path, cone, order=ml.orthant(2))
    problem = files.load_problem(path)
    e, pair, f_star = ml.scalar_modulus(problem.domain, problem.subset)
    assert e > 1.0
    code, outcome = _supremum(path, capsys)
    assert code == 0 and outcome["conclusive"]
    assert outcome["supremum"] == float(f"{e:.9g}") and outcome["pair"] == list(pair)
    assert outcome["K"] == pytest.approx(e, rel=1e-4)
    lifted = np.array(outcome["map"])
    np.testing.assert_allclose(cones.norm_many(lifted, cone.norm), f_star, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize(
    "cone",
    [
        ml.ConeOrder(dim=2, generators=[[1.0, 0.3], [0.3, 1.0]]),
        ml.ConeOrder(dim=2, halfspaces=[[1.0, -0.3], [-0.3, 1.0]]),
    ],
    ids=["generated", "halfspace"],
)
def test_cli_estimate_e_supremum_on_a_cone_in_the_plane(tmp_path, capsys, cone):
    # on an L2 target, <F, u> is a scalar extension of f* for any extension
    # F of f* u, so the bracket holds e, whichever form the cone is given in
    path = _anchored_problem(tmp_path, cone)
    code, outcome = _supremum(path, capsys)
    assert code == 0
    assert outcome["lo"] <= outcome["supremum"] * (1.0 + 1e-8)
    assert outcome["hi"] >= outcome["supremum"] * (1.0 - 1e-8)


@pytest.mark.parametrize(
    "cone",
    [ml.trivial_cone(2), ml.ConeOrder(dim=2, halfspaces=np.vstack([np.eye(2), -np.eye(2)]))],
    ids=["trivial", "trivial-halfspace"],
)
def test_cli_estimate_e_supremum_on_the_trivial_cone_is_a_usage_error(tmp_path, capsys, cone):
    # {0} has no monotone direction to lift f* along
    path = _anchored_problem(tmp_path, cone, order=ml.orthant(2))
    line = _usage_error(["estimate-e", path, "--supremum"], capsys)
    assert "no monotone direction" in line


# ---------------------------------------------------------------------------
# posets past a hundred points; the grid generator's inputs
# ---------------------------------------------------------------------------


def _largest_witness_ratio(p, tol=1e-9):
    """max rhs / lhs over every radiality witness, one x at a time, from
    the definitions."""
    d, g, strict = p.dist, p.order_matrix, p.strict_matrix
    lhs = d[:, None, :]  # [x, 0, z] -> d(x, z)
    best = -np.inf
    for x in range(p.n):
        for allowed, rhs in (
            (~g[:, x, None] & strict, d[x, :, None]),  # RD1: x >=* y > z, rhs d(x, y)
            (strict[x, :, None] & ~g.T, d),  # RD2: x > y >=* z, rhs d(y, z)
        ):
            hit = allowed & (lhs[x] < rhs - tol)
            ratio = np.divide(rhs, lhs[x], out=np.full(hit.shape, -np.inf), where=hit)
            best = max(best, float(ratio.max()))
    return best


def test_cli_radial_and_certify_on_150_points(tmp_path, capsys):
    pts = np.round(np.random.default_rng(150).uniform(-5.0, 5.0, size=(150, 2)), 3)
    path = str(tmp_path / "planar.json")
    files.dump(files.poset_to_dict(ml.poset_from_points(pts, ml.orthant(2))), path)
    p = files.load_poset(path)
    assert cli.dispatch(["radial", path, "--format", "machine"]) == 1
    witness = json.loads(capsys.readouterr().out)["outcome"]["witness"]
    first = next(ml.iter_radiality_witnesses(p))
    assert (witness["kind"], tuple(witness["triple"])) == (first.kind, first.triple)
    argv = ["certify", path, "--space", "hilbert", "--e", "1,1", "--format", "machine"]
    assert cli.dispatch(argv) == 1
    bound = json.loads(capsys.readouterr().out)["outcome"]["bound"]
    assert bound == float(format(_largest_witness_ratio(p), ".9g")) > 1.0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dim", "-1"], "cone dimension must be positive"),
        (["--dim", "0"], "cone dimension must be positive"),
        (["--side", "0"], "grid needs dim >= 1 and side >= 1, got 2 and 0"),
        (["--side", "-2"], "grid needs dim >= 1 and side >= 1, got 2 and -2"),
        (["--spacing", "0"], "spacing must be positive, got 0.0"),
        (["--side", "46"], "a grid of side 46 in dim 2 exceeds 2048 points"),
    ],
    ids=["dim-1", "dim0", "side0", "side-2", "spacing0", "side46"],
)
def test_cli_gen_grid_refuses_bad_shapes(flags, message, tmp_path, capsys):
    out = tmp_path / "grid.json"
    argv = ["gen", "grid", "--out", str(out), *flags]
    assert _usage_error(argv, capsys) == f"error: {message}"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the files a report names, the flags each command reads, the solver states
# ---------------------------------------------------------------------------


def _cone_file(tmp_path):
    path = str(tmp_path / "cone.json")
    files.dump(files.cone_to_dict(ml.orthant(2)), path)
    return path


OPENED_ONCE = {
    "validate": lambda tmp_path: ["validate", WITNESS],
    "extend-scalar": lambda tmp_path: ["extend", WITNESS_PROBLEM],
    "extend-interpolate": lambda tmp_path: ["extend", CHAIN_PROBLEM, "--mode", "interpolate"],
    "certify-cone": lambda tmp_path: [
        "certify", WITNESS, "--space", "hilbert", "--e", "1,1", "--cone", _cone_file(tmp_path)
    ],
}


@pytest.mark.parametrize("make_argv", OPENED_ONCE.values(), ids=OPENED_ONCE.keys())
def test_cli_opens_each_input_file_once_and_digests_it(make_argv, tmp_path, monkeypatch, capsys):
    argv = make_argv(tmp_path) + ["--format", "machine"]
    opened = collections.Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".json"):
            opened[file] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    cli.dispatch(argv)
    monkeypatch.undo()
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert dict(opened) == dict.fromkeys(inputs, 1)


def test_cli_inputs_digest_the_poset_a_problem_references(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(WITNESS_PROBLEM, "problem.json")  # names "witness_poset.json"
    shutil.copy(WITNESS, "witness_poset.json")
    argv = ["extend", "problem.json", "--format", "machine"]
    assert cli.dispatch(argv) == 1
    before = json.loads(capsys.readouterr().out)["inputs"]
    with open("witness_poset.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["dist"] = [[2.0 * x for x in row] for row in doc["dist"]]
    files.dump(doc, "witness_poset.json")
    assert cli.dispatch(argv) == 0  # twice the distances: K = 1 now extends
    after = json.loads(capsys.readouterr().out)["inputs"]
    assert sorted(before) == sorted(after) == ["problem.json", "witness_poset.json"]
    assert before["problem.json"] == after["problem.json"]
    assert before["witness_poset.json"] != after["witness_poset.json"]


def test_cli_certify_halfspace_needs_no_ray_point_past_e700(tmp_path, capsys):
    # the anchors sit 1000 * sqrt 5 apart, and e^t overflows past t = 700
    big = str(tmp_path / "big.json")
    argv = ["gen", "grid", "--dim", "2", "--side", "3", "--spacing", "1000", "--out", big]
    assert cli.dispatch(argv) == 0
    capsys.readouterr()
    bounds = []
    for space in (["--space", "halfspace", "--n", "2"], ["--space", "hilbert", "--e", "1,1"]):
        assert cli.dispatch(["certify", big, *space, "--format", "machine"]) == 1
        bounds.append(json.loads(capsys.readouterr().out)["outcome"]["bound"])
    assert bounds == [2.23606798, 2.23606798]


@pytest.mark.parametrize("command", [["certify", WITNESS], ["busemann"]])
def test_cli_halfspace_without_its_dimension_is_a_usage_error(command, capsys):
    # certify has no --point to take the dimension from
    line = _usage_error([*command, "--space", "halfspace"], capsys)
    assert line == "error: --space halfspace requires --n (busemann: or --point)"


def test_cli_certify_on_a_radial_poset(capsys):
    argv = ["certify", CHAIN_POSET, "--space", "hilbert", "--e", "1,1", "--format", "machine"]
    assert cli.dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == {"bound": 1.0, "radial": True}


def test_cli_gen_grid_refuses_a_dim_past_the_limit_before_allocating(tmp_path, capsys):
    # one point in any dim, but the orthant alone holds dim^2 entries
    out = tmp_path / "grid.json"
    tracemalloc.start()
    try:
        line = _usage_error(["gen", "grid", "--side", "1", "--dim", "2049", "--out", str(out)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert line == "error: a grid in dim 2049 exceeds the dimension limit 2048"
    assert not out.exists()
    assert peak < 100_000


UNREAD_FLAGS = {
    "validate-max-iter": ["validate", WITNESS, "--max-iter", "3"],
    "radial-max-iter": ["radial", WITNESS, "--max-iter", "3"],
    "busemann-max-iter": ["busemann", "--space", "hilbert", "--e", "0,1", "--point", "3,4",
                          "--max-iter", "3"],
    "certify-max-iter": ["certify", WITNESS, "--space", "hilbert", "--e", "1,1", "--max-iter", "3"],
    "gen-grid-max-iter": ["gen", "grid", "--max-iter", "3"],
    "gen-grid-tol": ["gen", "grid", "--tol", "0.1"],
    "gen-grid-vertices": ["gen", "grid", "--vertices", "5"],
    "gen-tree-dim": ["gen", "tree", "--vertices", "5", "--dim", "9"],
    "gen-tree-side": ["gen", "tree", "--side", "3"],
    "gen-tree-spacing": ["gen", "tree", "--spacing", "2"],
    "gen-tree-norm": ["gen", "tree", "--norm", "l1"],
    "validate-seed": ["validate", WITNESS, "--seed", "1"],
    "extend-seed": ["extend", WITNESS_PROBLEM, "--seed", "1"],
    "estimate-e-seed": ["estimate-e", WITNESS_PROBLEM, "--seed", "1"],
    "certify-seed": ["certify", WITNESS, "--space", "hilbert", "--e", "1,1", "--seed", "1"],
    "gen-grid-seed": ["gen", "grid", "--seed", "1"],
}


@pytest.mark.parametrize("argv", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS.keys())
def test_cli_refuses_a_flag_its_command_does_not_read(argv, tmp_path, capsys):
    out = tmp_path / "t.json"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out)]
    assert cli.dispatch(argv) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and "unrecognized arguments" in stderr
    assert not out.exists()


UNREAD_MODE_FLAGS = {
    "scalar-K": (["--mode", "scalar", "--K", "5"], "--K", "feasible"),
    "default-mode-K": (["--K", "5"], "--K", "feasible"),
    "interpolate-K": (["--mode", "interpolate", "--K", "0.5"], "--K", "feasible"),
    "scalar-queries": (["--mode", "scalar", "--queries=1,2"], "--queries", "interpolate"),
    "feasible-queries": (["--mode", "feasible", "--K", "1", "--queries=1"], "--queries",
                         "interpolate"),
    "componentwise-max-iter": (["--mode", "componentwise", "--max-iter", "3"], "--max-iter",
                               "feasible"),
}


@pytest.mark.parametrize(
    "tail, flag, mode", UNREAD_MODE_FLAGS.values(), ids=UNREAD_MODE_FLAGS.keys()
)
def test_cli_extend_refuses_a_flag_its_mode_does_not_read(tail, flag, mode, capsys):
    problem = CHAIN_PROBLEM if "interpolate" in tail else WITNESS_PROBLEM
    assert cli.dispatch(["extend", problem, *tail]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr.startswith(f"error: {flag} is read only by --mode {mode}, not by --mode ")


def test_cli_extend_feasible_is_unknown_at_the_round_cap(tmp_path):
    p = round_cap_problem()
    path = str(tmp_path / "problem.json")
    doc = {
        "poset": files.poset_to_dict(p.domain),
        "subset": list(p.subset),
        "target": {"kind": "cone", "cone": files.cone_to_dict(p.target)},
        "f": p.f.tolist(),
    }
    files.dump(doc, path)
    argv = ["extend", path, "--mode", "feasible", "--K", repr(1.001 * ml.estimate_e(p).lo)]
    assert cli.dispatch(argv + ["--max-iter", "1"]) == 3
    assert cli.dispatch(argv) == 0
