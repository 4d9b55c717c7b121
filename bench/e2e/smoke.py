#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (registered with ctest).

    python3 smoke.py BENCH_E2E_BINARY BENCHMARK_JSON

Runs every workload of BENCHMARK.json untraced and traced at --scale 0.05
for a fraction of a second, parses both output lines with json.loads and
asserts that every metric BENCHMARK.json names is present and finite, that
all correctness checks pass, that traced and untraced runs print the same
fingerprints, and that serve-10k-shards4 elects serve-10k's sequence.
"""
import json
import math
import subprocess
import sys


def run(binary, workload, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "42", "--seconds", "0.1",
         "--scale", "0.05", "--trace", str(trace)],
        capture_output=True, text=True, timeout=60)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    assert len(lines) >= 2, f"{workload} trace {trace}: expected a record and a summary line"
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(where, metrics, expected):
    for m in expected:
        assert m["name"] in metrics, f"{where}: missing metric {m['name']}"
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], \
            f"{where}: {m['name']} unit {entry['unit']} != {m['unit']}"
        assert math.isfinite(entry["value"]), f"{where}: {m['name']} is not finite"
    assert set(metrics) == {m["name"] for m in expected}, f"{where}: unexpected metrics"


def main():
    binary, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    fingerprints = {}
    for w in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            record, summary = run(binary, w, trace)
            where = f"{w} trace {trace}"
            assert set(summary) == {"correct", "attempted", "failed", "metrics"}, where
            assert summary["correct"] is True, f"{where}: {record['checks']['failures']}"
            assert record["checks"]["passed"] is True, where
            assert summary["attempted"] >= 1 and summary["failed"] == 0, where
            check_metrics(where, summary["metrics"], expected)
            check_metrics(where + " record", {k: v for k, v in record["metrics"].items()
                                              if k in {m["name"] for m in expected}}, expected)
            prints = json.dumps(record["fingerprints"], sort_keys=True)
            fingerprints.setdefault(w, set()).add(prints)
        assert len(fingerprints[w]) == 1, f"{w}: traced and untraced fingerprints differ"
    serial = json.loads(fingerprints["serve-10k"].pop())
    sharded = json.loads(fingerprints["serve-10k-shards4"].pop())
    assert serial["elected"] == sharded["elected"], "shards4 elected a different sequence"
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
