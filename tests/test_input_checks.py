"""Construction and file loading refuse non-finite numbers and non-integer
indices instead of computing with them."""

import json
import math
import os

import numpy as np
import pytest

import monolip as ml
from monolip import cli, files
from monolip.errors import SchemaError, StructureError

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, os.pardir, "instances")
WITNESS_PROBLEM = os.path.join(INSTANCES, "witness_scalar_problem.json")


def _witness_poset():
    return ml.poset_from_points([(1.0, -2.0), (0.0, 0.0), (0.0, -1.0)], ml.orthant(2))


def _scalar_problem(f):
    return ml.ExtensionProblem(
        domain=_witness_poset(), subset=(0, 1), target=ml.scalar_cone(), f=f
    )


NON_FINITE_INPUTS = {
    "distance": lambda x: ml.FiniteMetricPoset(("a", "b"), [[0.0, x], [x, 0.0]], {(0, 0), (1, 1)}),
    "map": lambda x: _scalar_problem([[x], [0.0]]),
    "generator": lambda x: ml.ConeOrder(dim=2, generators=[[1.0, 0.0], [x, 1.0]]),
    "halfspace": lambda x: ml.ConeOrder(dim=2, halfspaces=[[1.0, x]]),
    "K": lambda x: ml.feasibility_at_K(_scalar_problem([[1.0], [0.0]]), x),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", sorted(NON_FINITE_INPUTS))
def test_non_finite_numbers_are_refused(where, bad):
    with pytest.raises(StructureError, match="finite"):
        NON_FINITE_INPUTS[where](bad)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))  # writes NaN, which json.load reads back
    return str(path)


def test_cli_refuses_non_finite_inputs(tmp_path, capsys):
    with open(WITNESS_PROBLEM, encoding="utf-8") as fh:
        problem = json.load(fh)
    problem["poset"] = files.poset_to_dict(_witness_poset())
    problem["f"] = [[math.nan], [0.0]]
    assert cli.dispatch(["estimate-e", _write(tmp_path, "f.json", problem)]) == 2
    poset = files.poset_to_dict(_witness_poset())
    poset["dist"][0][1] = poset["dist"][1][0] = math.nan
    assert cli.dispatch(["validate", _write(tmp_path, "p.json", poset)]) == 2
    poset["dist"][0][1] = poset["dist"][1][0] = math.inf
    assert cli.dispatch(["validate", _write(tmp_path, "q.json", poset)]) == 2
    assert cli.dispatch(["extend", WITNESS_PROBLEM, "--mode", "feasible", "--K", "nan"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subset, bad", [([0, 1.7], "1.7"), ([0, True], "True"), (["0", "1"], "'0'")]
)
def test_problem_subset_needs_integer_indices(subset, bad):
    doc = {
        "poset": files.poset_to_dict(_witness_poset()),
        "subset": subset,
        "target": {"kind": "scalar"},
        "f": [[1.0], [0.0]],
    }
    with pytest.raises(SchemaError, match=f"subset entries must be integers, got {bad}"):
        files.problem_from_dict(doc)


def test_poset_order_needs_integer_indices():
    doc = files.poset_to_dict(_witness_poset())
    doc["order"].append([True, False])
    with pytest.raises(SchemaError, match=r"\[True, False\]"):
        files.poset_from_dict(doc)


@pytest.mark.parametrize(
    "pair", [(1.7, "0"), (0, 1.0), ("0", "1"), (True, False), (np.float64(1.0), 0)]
)
def test_poset_order_pairs_need_integer_indices(pair):
    with pytest.raises(StructureError, match="integer pairs"):
        ml.FiniteMetricPoset(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], {(0, 0), (1, 1), pair})


def test_poset_order_pairs_take_numpy_integers():
    pairs = np.array([[0, 0], [1, 1], [1, 0]])
    p = ml.FiniteMetricPoset(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], [tuple(r) for r in pairs])
    assert p.order == {(0, 0), (1, 1), (1, 0)}


def _tripod_doc(branch):
    return {
        "vertices": ["root", "p", "end", "leaf"],
        "edges": [["root", "p", 2.0], ["p", "end", 5.0], ["p", "leaf", branch]],
        "root": "root",
        "end": "end",
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_tree_edge_lengths_must_be_positive_and_finite(bad):
    with pytest.raises(StructureError, match="positive finite length"):
        ml.RTree(**_tripod_doc(bad))
    with pytest.raises(SchemaError, match="positive finite length"):
        files.tree_from_dict(_tripod_doc(bad))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cli_refuses_non_finite_edge_lengths(tmp_path, capsys, bad):
    path = _write(tmp_path, "t.json", _tripod_doc(bad))
    code = cli.dispatch(["busemann", "--space", "tree", "--tree", path, "--point", "leaf"])
    assert code == 2
    assert "positive finite length" in capsys.readouterr().err
