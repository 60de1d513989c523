#!/usr/bin/env python3
"""Compare freshly generated benchmark JSON against the committed baselines.

Families (one per committed BENCH_*.json):

  fleet  — BENCH_fleet.json (bench_fleet --json): per (hosts, churn) row,
           the incremental scheduling round's median ms. The fresh file
           must also report identical_decisions on every row — a speedup
           bought with different decisions is a bug, not a regression, and
           fails regardless of threshold.
  solver — BENCH_solver.json (google-benchmark): per-benchmark median
           real_time (falls back to the plain entries when the file was
           generated without repetitions). Files whose context reports a
           debug google-benchmark library are skipped with a warning —
           timings through a debug harness are not comparable.
  sim    — BENCH_sim.json (bench_event_queue --json under an "after"
           key): per benchmark name, the value. Older files also carry a
           "before" half from a second build; it is ignored.

Only names present in both files are compared, so a reduced fresh run
(fewer sizes, fewer rounds) checks just the overlap. A family whose two
files share no metric name is an error: an empty overlap means the schema
drifted, and passing it would check nothing. A fresh value is a
regression when it exceeds baseline * (1 + threshold); faster is never
flagged. Exit status 1 names every regression; 0 otherwise.

stdlib only — runs anywhere the repo checks out.

Usage:
  scripts/check_bench_regression.py --fresh-dir build-bench \\
      [--baseline-dir .] [--threshold 0.25] [--families fleet,solver,sim]
"""

import argparse
import json
import os
import sys


def load(path):
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def gbench_medians(doc):
    """name -> median real_time from a google-benchmark JSON document."""
    out = {}
    plain = {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b.get("name"))
        if b.get("aggregate_name") == "median":
            out[name] = float(b["real_time"])
        elif "aggregate_name" not in b:
            plain[name] = float(b["real_time"])
    return out or plain


def solver_metrics(doc, label, warnings):
    if doc.get("context", {}).get("library_build_type") == "debug":
        warnings.append(
            f"solver: {label} file was produced against a debug "
            "google-benchmark library; family skipped"
        )
        return None
    return gbench_medians(doc)


def fleet_metrics(doc, label, errors):
    out = {}
    for row in doc.get("rows", []):
        key = f"hosts={row['hosts']}/churn={row['churn']}"
        out[key] = float(row["incremental_ms"]["median"])
        if label == "fresh" and not row.get("identical_decisions", False):
            errors.append(
                f"fleet: {key}: incremental and reference variants made "
                "different decisions (identical_decisions is false)"
            )
    return out


def sim_metrics(doc):
    return {
        b["name"]: float(b["value"])
        for b in doc.get("after", {}).get("benchmarks", [])
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh-dir", required=True,
                    help="directory holding the freshly generated BENCH_*.json")
    ap.add_argument("--baseline-dir", default=".",
                    help="directory holding the committed baselines "
                         "(default: current directory)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional slowdown before a metric is a "
                         "regression (default 0.25 = 25%%; wall-clock "
                         "benches on shared machines are noisy)")
    ap.add_argument("--families", default="fleet,solver,sim",
                    help="comma-separated subset of fleet,solver,sim")
    args = ap.parse_args()

    files = {
        "fleet": "BENCH_fleet.json",
        "solver": "BENCH_solver.json",
        "sim": "BENCH_sim.json",
    }
    regressions, errors, warnings = [], [], []
    compared = 0

    for family in [f.strip() for f in args.families.split(",") if f.strip()]:
        if family not in files:
            errors.append(f"unknown family {family!r} "
                          f"(expected one of {', '.join(files)})")
            continue
        base_doc = load(os.path.join(args.baseline_dir, files[family]))
        fresh_doc = load(os.path.join(args.fresh_dir, files[family]))
        if base_doc is None or fresh_doc is None:
            which = "baseline" if base_doc is None else "fresh"
            warnings.append(f"{family}: no {which} {files[family]}; skipped")
            continue
        if family == "solver":
            base = solver_metrics(base_doc, "baseline", warnings)
            fresh = solver_metrics(fresh_doc, "fresh", warnings)
            if base is None or fresh is None:
                continue
        elif family == "fleet":
            base = fleet_metrics(base_doc, "baseline", errors)
            fresh = fleet_metrics(fresh_doc, "fresh", errors)
        else:
            base = sim_metrics(base_doc)
            fresh = sim_metrics(fresh_doc)

        common = sorted(set(base) & set(fresh))
        if not common:
            errors.append(
                f"{family}: baseline and fresh {files[family]} share no "
                f"metric (baseline {len(base)}, fresh {len(fresh)}); "
                "schema drift?"
            )
        for name in common:
            compared += 1
            b, f = base[name], fresh[name]
            if b > 0 and f > b * (1.0 + args.threshold):
                regressions.append(
                    f"{family}: {name}: {f:.3f} vs baseline {b:.3f} "
                    f"(+{(f / b - 1.0) * 100.0:.1f}%, "
                    f"allowed +{args.threshold * 100.0:.0f}%)"
                )

    for w in warnings:
        print(f"note: {w}")
    for e in errors:
        print(f"ERROR: {e}", file=sys.stderr)
    if regressions:
        print(f"{len(regressions)} benchmark regression(s):", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
    if errors or regressions:
        return 1
    print(f"bench regression check OK ({compared} metrics compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
