"""Instance-file schemas and the command-line front end."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import monolip as ml
from monolip import cli, files
from monolip.errors import SchemaError

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, os.pardir, "instances")
WITNESS = os.path.join(INSTANCES, "witness_poset.json")
WITNESS_PROBLEM = os.path.join(INSTANCES, "witness_scalar_problem.json")
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
        assert doc["outcome"]["busemann"] == float(f"{ml.rtree_busemann(tree, point):.9g}")
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


def test_cli_estimate_e_with_samples(capsys):
    code = cli.dispatch(["estimate-e", WITNESS_PROBLEM, "--samples", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lower bound" in out


# ---------------------------------------------------------------------------
# size caps from the environment
# ---------------------------------------------------------------------------


def _cli_process(argv, **env):
    """(exit code, stderr) of the CLI run in a fresh interpreter."""
    full = dict(os.environ, **env)
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(HERE, os.pardir, "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "monolip.cli", *argv],
        env=full, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr


def test_malformed_triple_cap_is_a_usage_error():
    code, err = _cli_process(["validate", WITNESS], MONOLIP_TRIPLE_CAP="abc")
    assert code == 2
    assert err.strip() == "error: MONOLIP_TRIPLE_CAP must be a positive integer"


def test_negative_size_cap_is_a_usage_error(tmp_path):
    out = str(tmp_path / "grid.json")
    code, err = _cli_process(["gen", "grid", "--dim", "2", "--out", out], MONOLIP_SIZE_CAP="-5")
    assert code == 2
    assert err.strip() == "error: MONOLIP_SIZE_CAP must be a positive integer"
    assert not os.path.exists(out)


@pytest.mark.parametrize("var", ["MONOLIP_TRIPLE_CAP", "MONOLIP_SIZE_CAP"])
@pytest.mark.parametrize("value", ["x", "0", "-5", "1.5", ""])
def test_cap_variables_must_be_positive_integers(var, value, monkeypatch, capsys):
    monkeypatch.setenv(var, value)
    assert cli.dispatch(["radial", WITNESS]) == 2
    assert capsys.readouterr().err.strip() == f"error: {var} must be a positive integer"


def test_cap_variables_set_the_caps(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("MONOLIP_TRIPLE_CAP", "26")  # the witness poset has 27 triples
    assert cli.dispatch(["radial", WITNESS]) == 2
    assert "exceed the cap of 26" in capsys.readouterr().err
    monkeypatch.setenv("MONOLIP_TRIPLE_CAP", "27")
    monkeypatch.setenv("MONOLIP_SIZE_CAP", "7")
    assert cli.dispatch(["radial", WITNESS]) == 1
    out = str(tmp_path / "grid.json")
    assert cli.dispatch(["gen", "grid", "--dim", "2", "--side", "2", "--out", out]) == 2
    assert "exceeds cap 7" in capsys.readouterr().err
