#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and records provenance.

Runs the command in BENCHMARK.json several times per workload, each time
with another seed, and reports for every end-to-end metric its median,
quartiles, and the distance between the quartiles as a share of the
median, against the metric's bound; the same for the unscaled host
seconds and calibration kernel times the benchmark prints on standard
error. Appends the figures, the host
fingerprint and the commit measured to perfbench/PROVENANCE.json, and
checks each median against the previous set there: it may not be worse
by more than the metric's bound.

    python3 perfbench/spread.py [--runs 10] [--seed-base 1000] [--workloads figures,fuzz]

Run it from the repository root on an otherwise idle host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "os": platform.platform(),
        "rustc": out(["rustc", "-V"]),
        "commit": out(["git", "rev-parse", "HEAD"]),
        "worktree_clean": out(["git", "status", "--porcelain", "--untracked-files=no"]) == "",
    }


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}\n{proc.stderr[-2000:]}")
    host = {}
    for line in proc.stderr.splitlines():
        if line.startswith("host: "):
            host = {k: float(v) for k, v in (kv.split("=") for kv in line[6:].split())}
    return result, host, elapsed


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]
    path = os.path.join(ROOT, "perfbench", "PROVENANCE.json")
    provenance = {"sets": []}
    if os.path.exists(path):
        with open(path) as f:
            provenance = json.load(f)
    sets = provenance["sets"]
    previous = sets[-1]["workloads"] if sets else {}

    report = {"host": host_fingerprint(),
              "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "run_seconds": bench["run_seconds"], "runs_per_workload": args.runs,
              "seed_base": args.seed_base, "workloads": {}}
    ok = True
    for name in names:
        values = {m["name"]: [] for m in metrics}
        host_values = {}
        longest = 0.0
        for i in range(args.runs):
            result, host, elapsed = run_once(bench, name, args.seed_base + i)
            longest = max(longest, elapsed)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            for k, v in host.items():
                host_values.setdefault(k, []).append(v)
        stats = {}
        for m in metrics:
            s = summary(values[m["name"]])
            s["unit"] = m["unit"]
            s["bound"] = m["bound"]
            stats[m["name"]] = s
            within = s["iqr_share"] <= m["bound"]
            steady = s["iqr_share"] <= m["bound"] / 3
            ok = ok and within
            print(f"{name:8} {m['name']:14} median {s['median']:.6g} {m['unit']:5} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {100 * s['iqr_share']:5.2f}% "
                  f"(bound {100 * m['bound']:.0f}%) {'ok' if within else 'OVER'}"
                  f"{'' if steady else ' (above a third of the bound)'}")
            # Against the previous set: the median may not be worse by
            # more than the bound.
            before = previous.get(name, {}).get("metrics", {}).get(m["name"])
            if before:
                change = s["median"] / before["median"] - 1
                worse = change if m["better"] == "lower" else -change
                agrees = worse <= m["bound"]
                ok = ok and agrees
                print(f"{name:8} {m['name']:14} median {100 * change:+.2f}% against the "
                      f"previous set {'ok' if agrees else 'WORSE'}")
        # The same runs' unscaled host seconds and calibration kernel
        # medians, which the benchmark prints on standard error.
        host_stats = {k: summary(v) for k, v in host_values.items()}
        for k, s in host_stats.items():
            print(f"{name:8} host {k:9} median {s['median']:.6g} s     "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {100 * s['iqr_share']:5.2f}%")
            before = previous.get(name, {}).get("host_seconds", {}).get(k)
            if before:
                print(f"{name:8} host {k:9} median {100 * (s['median'] / before['median'] - 1):+.2f}% "
                      f"against the previous set")
        report["workloads"][name] = {"metrics": stats, "host_seconds": host_stats,
                                     "longest_run_s": longest}
        print(f"{name:8} longest run {longest:.1f} s")

    with open(path, "w") as f:
        sets.append(report)
        json.dump(provenance, f, indent=2)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
