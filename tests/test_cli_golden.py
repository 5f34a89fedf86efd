"""Byte-identical ``--format machine`` output of the command-line front end.

Runs the seven-command mix (validate, radial, certify, extend scalar and
interpolate, busemann on a tree, estimate-e) on the shipped ``instances/``
files, and ``validate`` on ``golden/violations_poset.json``, which holds
triangle, symmetry and transitivity violations. Each call's exit code and
stdout must equal the golden in ``golden/cli_machine.json``. Input paths are
given relative to the repository root, which is the working directory of
every call, so the digests in the output are keyed the same on any checkout.

The goldens change only when an output change is intended. Rewrite them
from the repository root with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os

import pytest

from monolip import cli

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli_machine.json")

WITNESS = "instances/witness_poset.json"
SCALAR = "instances/witness_scalar_problem.json"
CALLS = {
    "validate": ["validate", WITNESS],
    "radial": ["radial", WITNESS],
    "certify": ["certify", WITNESS, "--space", "hilbert", "--e", "1,1"],
    "extend-scalar": ["extend", SCALAR, "--mode", "scalar"],
    "extend-interpolate": [
        "extend",
        "instances/chain_problem.json",
        "--mode",
        "interpolate",
        "--queries=3,-5,10",
    ],
    "busemann-tree": [
        "busemann",
        "--space",
        "tree",
        "--tree",
        "instances/tripod_tree.json",
        "--point",
        "leaf",
        "--limit",
    ],
    "estimate-e": ["estimate-e", SCALAR],
    # the file loader allows asymmetry up to 1e-12, so the tolerance is lower
    "validate-violations": ["validate", "tests/golden/violations_poset.json", "--tol", "1e-13"],
}


def _run(argv):
    """(exit code, stdout) of one machine-format call from the repository root."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.dispatch(argv + ["--format", "machine"])
    return code, out.getvalue()


def _goldens():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_goldens_cover_every_call():
    assert sorted(_goldens()) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_machine_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, stdout = _run(CALLS[name])
    golden = _goldens()[name]
    assert code == golden["exit"]
    assert stdout == golden["stdout"]


if __name__ == "__main__":
    os.chdir(ROOT)
    docs = {}
    for name, argv in CALLS.items():
        code, stdout = _run(argv)
        docs[name] = {"exit": code, "stdout": stdout}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(docs, fh, indent=1, sort_keys=True)
        fh.write("\n")
