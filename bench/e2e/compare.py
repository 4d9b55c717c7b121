#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs.

    python3 bench/e2e/compare.py SET_A SET_B

A set is a file holding the stdout of any number of runs (bench/e2e/run.sh
output appended run after run); only the "record" lines are read.  A is the baseline (the parent commit), B the
change.

For each workload and metric it prints both medians, both quartile pairs
and the relative difference, and for end-to-end metrics a verdict against
the metric's bound in BENCHMARK.json:

    worse       B's median is worse than A's by more than the bound
    unresolved  a set's spread (quartile distance / median) exceeds the
                bound, and not every run of B beats every run of A
    better      B's median beats A's by more than A's own spread, and B
                beats A in at least 9 of 10 (run of A, run of B) pairs
    same        otherwise

Per-layer metrics, and metrics only the record prints (latency_p90_us),
have no bound and get no verdict.  Fingerprints are compared per workload
and seed across every run of both sets, traced and untraced.  Exits 1 when
any end-to-end metric is worse or a fingerprint differs.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path):
    records = []
    with open(path) as f:
        for line in f:
            if line.startswith('{"record": "bench_e2e"'):
                records.append(json.loads(line))
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """Verdict for B against A; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    wins = [sign * (y - x) < 0 for x in a for y in b]
    if max(spread(a), spread(b)) > bound:
        return "better" if all(wins) else "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread(a) and sum(wins) >= 0.9 * len(wins):
        return "better"
    return "same"


def metric_values(records, workload, trace, name):
    return [r["metrics"][name]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace and name in r["metrics"]]


def fmt(x):
    return f"{x:.6g}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    set_a, set_b = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failed = False
    header = f"{'workload':<20} {'metric':<32} {'median A':>12} {'q1..q3 A':>23} " \
             f"{'median B':>12} {'q1..q3 B':>23} {'diff':>8}  verdict"
    present = {r["workload"] for r in set_a + set_b}
    for w in (w["name"] for w in bench["workloads"] if w["name"] in present):
        print(header)
        known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
        record_only = sorted({n for r in set_a + set_b if r["workload"] == w and r["trace"] == 0
                              for n in r["metrics"]} - known)
        rows = [(m["name"], 0, m) for m in bench["end_to_end"]] + \
               [(n, 0, None) for n in record_only] + \
               [(m["name"], 1, None) for m in bench["per_layer"]]
        for name, trace, gated in rows:
            a = metric_values(set_a, w, trace, name)
            b = metric_values(set_b, w, trace, name)
            if not a or not b:
                print(f"{w:<20} {name:<32} missing in {'A' if not a else 'B'}")
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = (med_b - med_a) / abs(med_a) if med_a else 0.0
            qa, qb = quartiles(a), quartiles(b)
            v = verdict(a, b, gated["better"], gated["bound"]) if gated else "-"
            failed |= v == "worse"
            print(f"{w:<20} {name:<32} {fmt(med_a):>12} "
                  f"{fmt(qa[0]) + '..' + fmt(qa[1]):>23} {fmt(med_b):>12} "
                  f"{fmt(qb[0]) + '..' + fmt(qb[1]):>23} {diff:>+8.2%}  {v}")
        for seed in sorted({r["seed"] for r in set_a + set_b if r["workload"] == w}):
            prints = {json.dumps(r["fingerprints"], sort_keys=True)
                      for r in set_a + set_b if r["workload"] == w and r["seed"] == seed}
            if len(prints) > 1:
                failed = True
                print(f"{w} seed {seed}: fingerprints differ across runs:")
                for p in sorted(prints):
                    print(f"    {p}")
            else:
                print(f"{w} seed {seed}: fingerprints match {prints.pop()}")
        print()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
