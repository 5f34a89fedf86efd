"""Smoke test of the benchmark: a few operations per workload.

Asserts that every metric named in ``BENCHMARK.json`` is emitted, untraced
and traced, and that no operation fails.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


# every workload of run.py: the gated ones of BENCHMARK.json and the ungated rest
WORKLOADS = ("planar-scalar", "euclid-small", "line-tree", "cli")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_without_errors(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        info, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert info["error_rate"] == 0.0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
