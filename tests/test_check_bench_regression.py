#!/usr/bin/env python3
"""Exit-status tests of scripts/check_bench_regression.py.

Writes a baseline and a fresh BENCH_fleet.json into a temporary
directory per case and runs the checker on them.

Usage: test_check_bench_regression.py <path to check_bench_regression.py>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

CHECKER = sys.argv[1]

BASELINE = {
    "context": {"date": "2026-01-01T00:00:00Z", "commit": "0123456789ab",
                "build_type": "Release", "compiler": "13.2.0",
                "hw_threads": 4},
    "benchmarks": [
        {"name": "hosts=1000/churn=7/incremental_ms", "value": 2.0,
         "unit": "ms"},
        {"name": "hosts=1000/churn=7/speedup", "value": 6.0, "unit": "x"},
        {"name": "hosts=1000/churn=7/identical_decisions", "value": 1,
         "unit": "bool"},
    ],
}


def run(fresh):
    with tempfile.TemporaryDirectory() as tmp:
        for sub, doc in (("base", BASELINE), ("fresh", fresh)):
            os.mkdir(os.path.join(tmp, sub))
            with open(os.path.join(tmp, sub, "BENCH_fleet.json"), "w",
                      encoding="utf-8") as f:
                json.dump(doc, f)
        return subprocess.run(
            [sys.executable, CHECKER, "--families", "fleet",
             "--baseline-dir", os.path.join(tmp, "base"),
             "--fresh-dir", os.path.join(tmp, "fresh"),
             "--threshold", "0.25"],
            capture_output=True, text=True, check=False).returncode


def fresh_with(**changes):
    """A copy of BASELINE; each entry whose name ends in a keyword takes
    that keyword's value."""
    doc = copy.deepcopy(BASELINE)
    for suffix, value in changes.items():
        for b in doc["benchmarks"]:
            if b["name"].endswith(suffix):
                b["value"] = value
    return doc


def main():
    renamed = copy.deepcopy(BASELINE)
    for b in renamed["benchmarks"]:
        b["name"] = "renamed/" + b["name"]
    debug = copy.deepcopy(BASELINE)
    debug["context"]["build_type"] = "Debug"

    cases = [
        ("identical files", BASELINE, 0),
        ("timing within the threshold, ungated ratio moved",
         fresh_with(incremental_ms=2.4, speedup=1.0), 0),
        ("timing above baseline x (1 + threshold)",
         fresh_with(incremental_ms=2.6), 1),
        ("bool entry equal to 0", fresh_with(identical_decisions=0), 1),
        ("no metric name in common", renamed, 1),
        ("build type other than Release", debug, 1),
    ]
    failed = 0
    for what, fresh, want in cases:
        got = run(fresh)
        print(f"{'ok  ' if got == want else 'FAIL'} {what}: exit {got}, "
              f"want {want}")
        failed += got != want
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
