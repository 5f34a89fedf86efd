"""Construction and file loading refuse non-finite numbers and non-integer
indices instead of computing with them, and the CLI reports an unreadable
or malformed file in one error line. The classes that hold arrays compare
and hash by identity."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import monolip as ml
from monolip import cli, files
from monolip.errors import SchemaError, StructureError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
INSTANCES = os.path.join(ROOT, "instances")
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


@pytest.mark.parametrize("tol", [-1e-9, math.nan])
def test_problem_tol_must_be_at_least_zero(tol):
    """A scalar result is Feasible iff its K is exactly 1, which needs tol >= 0."""
    with pytest.raises(StructureError, match="tol must be at least 0"):
        ml.ExtensionProblem(
            domain=_witness_poset(),
            subset=(0, 1),
            target=ml.scalar_cone(),
            f=[[1.0], [0.0]],
            tol=tol,
        )


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


def _problem_doc(f):
    return {
        "poset": files.poset_to_dict(_witness_poset()),
        "subset": [0, 1],
        "target": {"kind": "scalar"},
        "f": f,
    }


def _file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


# unreadable files and malformed documents: (command, file maker)
BAD_FILES = {
    "missing": ("validate", lambda tmp: str(tmp / "missing.json")),
    "directory": ("validate", str),  # the temporary directory itself
    "not-utf8": ("validate", lambda tmp: _file(tmp, "p.json", b'\xff\xfe{"labels": []}')),
    "not-an-object": ("validate", lambda tmp: _file(tmp, "p.json", b"5")),
    "ragged-f": ("extend", lambda tmp: _write(tmp, "f.json", _problem_doc([[1], [2, 3]]))),
    "non-numeric-f": ("extend", lambda tmp: _write(tmp, "f.json", _problem_doc([["x"], [2]]))),
}


def _assert_cli_error_line(*args):
    """``python -m monolip.cli *args`` exits 2 with one ``error:`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "monolip.cli", *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("command, make", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_cli_reports_a_bad_file_in_one_error_line(tmp_path, command, make):
    _assert_cli_error_line(command, make(tmp_path))


@pytest.mark.parametrize(
    "subset, bad", [([0, 1.7], "1.7"), ([0, True], "True"), (["0", "1"], "'0'")]
)
def test_problem_subset_needs_integer_indices(subset, bad):
    doc = dict(_problem_doc([[1.0], [0.0]]), subset=subset)
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
    p = ml.FiniteMetricPoset(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], pairs)  # rows are arrays
    assert p.order == {(0, 0), (1, 1), (1, 0)}


def test_poset_order_pairs_may_come_from_an_iterator():
    pairs = iter([(0, 0), (1, 1), (1, 0)])
    p = ml.FiniteMetricPoset(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], pairs)
    assert p.order == {(0, 0), (1, 1), (1, 0)}


# one check, in the constructor, for the API and for poset files: integers,
# strings, one-index lists, floats and booleans
BAD_ORDERS = [[1, 2], ["ab"], [[0]], [[0, 1.0]], [[True, 0]]]


@pytest.mark.parametrize("order", BAD_ORDERS)
def test_poset_order_entries_are_checked_once_for_api_and_files(order, tmp_path):
    dist = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(StructureError, match="order entries must be"):
        ml.FiniteMetricPoset(("a", "b"), dist, order)
    path = _write(tmp_path, "p.json", {"labels": ["a", "b"], "dist": dist, "order": order})
    with pytest.raises(SchemaError, match="order entries must be"):
        files.load_poset(path)


# a set or a dict is no (i, j) pair, though it has two integer entries
@pytest.mark.parametrize(
    "order",
    [
        [(0, 1, 2), (3,)],
        [(0, 0), (1,), (2, 2, 3)],
        [(), (0, 0)],
        [(0, 0), {0, 1}],
        [(0, 0), {0: 1, 1: 0}],
        [(0, 0), None],
    ],
)
def test_poset_order_entries_are_not_re_paired(order):
    dist = np.ones((4, 4)) - np.eye(4)
    with pytest.raises(StructureError, match=r"\(i, j\) pairs"):
        ml.FiniteMetricPoset(("a", "b", "c", "d"), dist, order)


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


def _tripod_with(**edits):
    """The shipped tripod tree file with ``edits`` applied to its fields."""
    with open(os.path.join(INSTANCES, "tripod_tree.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(edits)
    return doc


# an edge length that is no JSON number, and an unhashable vertex and root
MALFORMED_TREES = {
    "string-length": lambda: _tripod_with(
        edges=[["root", "p", "x"], ["p", "end", 5.0], ["p", "leaf", 3.0]]
    ),
    "list-vertex-and-root": lambda: _tripod_with(
        vertices=[["root"], "p", "end", "leaf"], root=["root"]
    ),
}


@pytest.mark.parametrize("make", MALFORMED_TREES.values(), ids=MALFORMED_TREES.keys())
def test_cli_reports_a_malformed_tree_file_in_one_error_line(tmp_path, make):
    with pytest.raises(SchemaError):
        files.tree_from_dict(make())
    path = _write(tmp_path, "t.json", make())
    _assert_cli_error_line("busemann", "--space", "tree", "--point", "leaf", "--tree", path)


def _ray():
    return ml.HilbertRay(dim=2, e=np.array([1.0, 0.0]), cone=ml.orthant(2))


def _certificate(build=ml.certify_obstruction):
    poset = _witness_poset()
    return build(poset, ml.check_radiality(poset), _ray())


ARRAY_HOLDERS = {
    "ConeOrder": lambda: ml.ConeOrder(dim=2, generators=np.eye(2)),
    "FiniteMetricPoset": _witness_poset,
    "HilbertRay": _ray,
    "ExtensionProblem": lambda: _scalar_problem([[1.0], [0.0]]),
    "ExtensionResult": lambda: ml.feasibility_at_K(_scalar_problem([[1.0], [0.0]]), 2.0),
    "MoreauSplit": lambda: ml.moreau_split(ml.orthant(2), np.array([1.0, -1.0])),
    "TestMap": lambda: _certificate(ml.build_test_map),
    "ObstructionCertificate": _certificate,
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2
