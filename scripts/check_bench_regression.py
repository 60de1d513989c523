#!/usr/bin/env python3
"""Compare freshly generated benchmark JSON against the committed baselines.

Families, one per committed BENCH_*.json: fleet (bench_fleet --json),
solver (bench_micro --json) and sim (bench_event_queue --json). All three
share one document: a "context" block and a "benchmarks" list of
{"name", "value", "unit"} entries.

--fresh-dir may be given several times, one directory per fresh run.
Every file, baseline or fresh, must come from a Release build
(context.build_type); timings from any other build are not comparable. In
every fresh file an entry of unit "bool" must be 1: fleet's
identical_decisions, for one, since a speedup bought with different
decisions is a bug, not a regression, and fails whatever the threshold.

Only names present in the baseline and in at least one fresh file are
compared, so a reduced fresh run (fewer sizes, fewer rounds) checks just
the overlap. Timings (units ns and ms) are gated at their fastest fresh
value: other load on the machine only ever slows a run down, so the
minimum over several runs is the least noisy estimate. That value is a
regression when it exceeds baseline * (1 + threshold); faster is never
flagged. Ratios, rates and counts are derived from those timings or are
outputs of the program, and are not gated. A family whose files share no
timing is an error: an empty overlap means the schema drifted, and passing
it would check nothing. Exit status 1 names every regression and error;
0 otherwise.

stdlib only — runs anywhere the repo checks out.

Usage:
  scripts/check_bench_regression.py --fresh-dir run1 [--fresh-dir run2 ...] \\
      [--baseline-dir .] [--threshold 0.25] [--families fleet,solver,sim]
"""

import argparse
import json
import os
import sys

FILES = {
    "fleet": "BENCH_fleet.json",
    "solver": "BENCH_solver.json",
    "sim": "BENCH_sim.json",
}
TIME_UNITS = {"ns", "ms"}


def load(path):
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_metrics(doc):
    """name -> (value, unit) of one BENCH_*.json document."""
    return {
        b["name"]: (float(b["value"]), b["unit"])
        for b in doc.get("benchmarks", [])
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh-dir", required=True, action="append",
                    help="directory holding one fresh run's BENCH_*.json; "
                         "repeat for several runs")
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

    regressions, errors, warnings = [], [], []
    compared = {}

    for family in [f.strip() for f in args.families.split(",") if f.strip()]:
        if family not in FILES:
            errors.append(f"unknown family {family!r} "
                          f"(expected one of {', '.join(FILES)})")
            continue
        docs = {"baseline": load(os.path.join(args.baseline_dir,
                                              FILES[family]))}
        for d in args.fresh_dir:
            doc = load(os.path.join(d, FILES[family]))
            if doc is not None:
                docs[os.path.join(d, FILES[family])] = doc
        if docs["baseline"] is None or len(docs) == 1:
            which = "baseline" if docs["baseline"] is None else "fresh"
            warnings.append(f"{family}: no {which} {FILES[family]}; skipped")
            continue
        for label, doc in docs.items():
            build_type = doc.get("context", {}).get("build_type")
            if build_type != "Release":
                errors.append(f"{family}: {label} comes from build type "
                              f"{build_type!r}, not 'Release'")
        base = read_metrics(docs.pop("baseline"))
        fresh = {}  # name -> (fastest value over the fresh runs, unit)
        for label, doc in docs.items():
            for name, (value, unit) in sorted(read_metrics(doc).items()):
                if unit == "bool" and value != 1:
                    errors.append(f"{family}: {name} is {value:g} in "
                                  f"{label}; it must hold (1)")
                if name not in fresh or value < fresh[name][0]:
                    fresh[name] = (value, unit)

        common = [name for name in sorted(set(base) & set(fresh))
                  if base[name][1] in TIME_UNITS]
        compared[family] = len(common)
        if not common:
            errors.append(
                f"{family}: baseline and fresh {FILES[family]} share no "
                f"timing (baseline {len(base)}, fresh {len(fresh)} "
                "metrics); schema drift?"
            )
        for name in common:
            (b, unit), (f, _) = base[name], fresh[name]
            if b > 0 and f > b * (1.0 + args.threshold):
                regressions.append(
                    f"{family}: {name}: fastest {f:.3f} vs baseline "
                    f"{b:.3f} {unit} (+{(f / b - 1.0) * 100.0:.1f}%, "
                    f"allowed +{args.threshold * 100.0:.0f}%)"
                )

    counts = ", ".join(f"{family} {n}" for family, n in compared.items())
    print(f"timings compared: {counts or 'none'}")
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
    print("bench regression check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
