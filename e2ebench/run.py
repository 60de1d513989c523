#!/usr/bin/env python3
"""Build and run the whole-run benchmark for one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload paper_week --seed 1 --seconds 10 --trace 0

It configures and builds e2ebench/ (Release, into .bench_build/e2ebench),
then runs the e2ebench binary. Build output goes to stderr.

With --trace 0 the window is split between WORKERS processes that run one
after another, each on the same inputs. On a shared host the program runs
up to 1.9x slower in spells of seconds to minutes, and a process often
keeps one speed for its whole life, so one process measures the host as
much as the program. Each worker writes, per input, the fastest time of
every piece of a run and of every round over its repeats; this script
keeps the fastest over all workers and computes run_s and the decision
percentiles from those, the way the binary does for one process. setup_s
is the smallest over the workers: other tenants only ever slow a worker
down. Other metrics are the median over the workers. With --trace 1 one
process runs the whole window.

The last stdout line is the JSON result. The exit code is 0 when every
correctness check passed (in every worker, and the workers agree), 1 when
one failed, 2 on a refused environment.
"""

import argparse
import array
import hashlib
import json
import os
import signal
import statistics
import struct
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
WORKERS = 10


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: library sources (src/) not found next to e2ebench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_id():
    """The git commit when the root is a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def read_samples(path):
    """Per input, the (pieces, rounds) a worker wrote with --samples."""
    with open(path, "rb") as f:
        data = f.read()
    out, at = [], 0
    while at < len(data):
        pair = []
        for _ in range(2):
            (n,) = struct.unpack_from("=Q", data, at)
            at += 8
            values = array.array("d")
            values.frombytes(data[at:at + 8 * n])
            at += 8 * n
            pair.append(values.tolist())
        out.append(tuple(pair))
    return out


def pool_fastest(per_worker):
    """Element-wise minimum over the workers; None if their shapes differ."""
    per_worker = iter(per_worker)
    best = next(per_worker)
    for other in per_worker:
        if len(other) != len(best) or any(
                len(a) != len(b) for mine, theirs in zip(best, other)
                for a, b in zip(mine, theirs)):
            return None
        best = [tuple(list(map(min, a, b)) for a, b in zip(mine, theirs))
                for mine, theirs in zip(best, other)]
    return best


def percentile(values, p):
    """Linear interpolation between ranks, as support::percentile."""
    values = sorted(values)
    rank = p / 100 * (len(values) - 1)
    lo = min(int(rank), len(values) - 1)
    hi = min(lo + 1, len(values) - 1)
    frac = rank - lo
    return values[lo] * (1 - frac) + values[hi] * frac


def main():
    # subprocess.run kills and waits for its child on any exception, so a
    # SIGTERM that exits through Python leaves no build or worker behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20071001)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"e2ebench: build failed: {e}")
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ, EASCHED_SOLVER_THREADS="1")
    workers = 1 if args.trace else WORKERS
    cmd = [os.path.join(BUILD, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / workers), "--trace", str(args.trace),
           "--out", OUT, "--reference", os.path.join(HERE, "reference.txt"),
           "--commit", source_id()]
    results = []
    samples = []
    try:
        for k in range(workers):
            worker_cmd = list(cmd)
            if workers > 1:
                samples.append(os.path.join(
                    OUT, f"{args.workload}-seed{args.seed}.worker{k}.samples"))
                worker_cmd += ["--samples", samples[-1]]
            sys.stdout.flush()
            proc = subprocess.run(worker_cmd, env=env, stdout=subprocess.PIPE,
                                  text=True)
            print(f"worker {k}:")
            print(proc.stdout, end="")
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 2 or not lines:
                return proc.returncode or 1
            reference = [l for l in lines if l.startswith("reference: ")]
            results.append((proc.returncode, reference, json.loads(lines[-1])))
        if workers == 1:
            return results[0][0]
        pooled = pool_fastest(read_samples(path) for path in samples)
    finally:
        for path in samples:
            if os.path.exists(path):
                os.remove(path)

    correct = all(code == 0 and r["correct"] for code, _, r in results)
    # Workers run the same inputs, so they must reach the same outcomes and
    # cut their runs into the same pieces.
    agree = (pooled is not None and
             len({tuple(ref) for _, ref, _ in results}) == 1 and
             all(r["metrics"][m]["value"] == results[0][2]["metrics"][m]["value"]
                 for _, _, r in results
                 for m in ("energy_kwh", "satisfaction_pct")))
    if not agree:
        print("check failed: the workers' fingerprints or runs differ")
        correct = False
    attempted = sum(r["attempted"] for _, _, r in results)
    failed = sum(r["failed"] for _, _, r in results)
    metrics = {}
    for name, first in results[0][2]["metrics"].items():
        values = [r["metrics"][name]["value"] for _, _, r in results]
        value = min(values) if name == "setup_s" else statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    if pooled is not None:
        rounds = [ms for _, input_rounds in pooled for ms in input_rounds]
        for name, value in (
                ("run_s", statistics.fmean(sum(p) for p, _ in pooled)),
                ("decide_p50_ms", percentile(rounds, 50)),
                ("decide_p99_ms", percentile(rounds, 99))):
            metrics[name]["value"] = value
    print("end-to-end metrics over %d workers:" % workers)
    for name, m in metrics.items():
        print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
