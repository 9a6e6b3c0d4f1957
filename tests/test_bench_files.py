"""Schema of the BENCH_*.json files at the repository root: each records
alternating parent/change benchmark pairs, and its summaries must agree
with the per-pair values it lists."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
# summaries are written rounded to six decimals
ROUNDING = 5.000001e-7


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    doc = json.loads(path.read_text())
    for key in ("description", "parent", "python", "numpy", "scipy"):
        assert isinstance(doc.get(key), str) and doc[key], f"{path.name}: {key}"
    assert doc["workloads"], f"{path.name}: no workloads"
    for name, workload in doc["workloads"].items():
        where = f"{path.name} {name}"
        assert workload["correct"] is True, where
        assert workload["failed"] == 0, where
        assert workload["metrics"], where
        for metric, m in workload["metrics"].items():
            at = f"{where} {metric}"
            parent, change = m["parent"], m["change"]
            assert parent and len(parent) == len(change), at
            for side, values in (("parent", parent), ("change", change)):
                median = m[f"{side}_median"]
                assert abs(statistics.median(values) - median) <= ROUNDING, f"{at} {side}"
                # only the bracket: the files differ in quantile method
                low, high = m[f"{side}_quartiles"]
                assert low <= median <= high, f"{at} {side} quartiles"
            lower = sum(c < p for p, c in zip(parent, change))
            assert m["change_lower_in_pairs"] == lower, at
