"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

For each workload: every metric named in BENCHMARK.json is printed with its
unit, the traced spans nest, the output checks pass, and the deterministic
results (records.csv bytes, mean_p_r_db, oracle_excess_*) repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    stem = f"{workload}_seed{SEED}_trace{trace}"
    full = json.loads((HERE / "out" / f"{stem}.json").read_text())
    return lines, last, full, HERE / "out" / f"{stem}.spans.jsonl"


def _assert_metrics(lines, last, specs):
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0, lines
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def _assert_spans_nest(path):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    child = [0.0] * len(spans)
    for i, _, start, end, parent, _ in spans:
        assert end >= start
        if parent >= 0:
            p = spans[parent]
            assert parent < i and p[2] <= start and end <= p[3], (spans[parent], spans[i])
            child[parent] += end - start
    for i, _, start, end, _, _ in spans:
        assert end - start - child[i] >= -1e-9, spans[i]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload(workload):
    lines, last, first, _ = _result(workload, 0)
    _assert_metrics(lines, last, BENCH["end_to_end"])
    _, again_last, again, _ = _result(workload, 0)
    assert again["records_csv_sha256"] == first["records_csv_sha256"]
    assert again_last["metrics"]["mean_p_r_db"] == last["metrics"]["mean_p_r_db"]
    for name in ("oracle_excess_db_max", "oracle_excess_db_mean"):
        assert again["info"][name] == first["info"][name]

    lines, last, _, spans = _result(workload, 1)
    _assert_metrics(lines, last, BENCH["per_layer"])
    _assert_spans_nest(spans)
    layers = last["metrics"]
    if workload == "fixed-vector-pc":
        assert layers["sdp.solve_sdp.calls"]["value"] == 0
    if workload == "oracle-n2":
        assert layers["harness.oracle_grid.calls"]["value"] > 0


def test_refuses_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("fig2-snr", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
