#!/usr/bin/env python3
"""Do two sets of benchmark runs agree within the benchmark's bounds?

    python bench/agree.py A.jsonl B.jsonl

Each file holds the JSON lines ``bench/run.py --out FILE`` appends, one
per untraced workload run (traced runs are skipped).  For every
(workload, end-to-end metric) pair the tool prints each set's median and
quartiles, the spread (quartile distance over median) and the relative
difference of the medians, and exits 1 when a difference exceeds the
metric's ``bound`` in ``BENCHMARK.json`` or a set has fewer than five
runs of a pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_RUNS = 5


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, from one result set."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a: Dict, b: Dict,
            bounds: Dict[str, float]) -> Tuple[List[str], List[str]]:
    """Report lines and failures for every pair both sets measured."""
    lines = [f"{'workload':<16} {'metric':<12} {'n':>5} "
             f"{'median A [q1, q3]':>28} {'median B [q1, q3]':>28} "
             f"{'sprA':>6} {'sprB':>6} {'diff':>7} {'bound':>6}"]
    failures = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in bounds:
            continue
        qa, qb = quartiles(a[key]), quartiles(b[key])
        diff = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
        spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
        bound = bounds[name]
        verdict = ""
        if min(len(a[key]), len(b[key])) < MIN_RUNS:
            verdict = "  too few runs"
        elif abs(diff) > bound:
            verdict = "  DIFFERS"
        if verdict:
            failures.append(f"{workload} {name}:{verdict.strip().lower()}")
        lines.append(
            f"{workload:<16} {name:<12} {len(a[key]):>2}/{len(b[key]):<2} "
            f"{qa[1]:>9.4g} [{qa[0]:.4g}, {qa[2]:.4g}] "
            f"{qb[1]:>9.4g} [{qb[0]:.4g}, {qb[2]:.4g}] "
            f"{spread_a:>6.1%} {spread_b:>6.1%} {diff:>+7.1%} "
            f"{bound:>6.0%}{verdict}")
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="result set A (JSON lines)")
    parser.add_argument("b", help="result set B (JSON lines)")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = load(args.a), load(args.b)
    lines, failures = compare(a, b, bounds)
    print("\n".join(lines))
    if not set(a) & set(b):
        failures.append("the two sets share no (workload, metric) pair")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
