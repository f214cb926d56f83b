#!/usr/bin/env python3
"""Builds and runs bench_hgserve, or compares two sets of its results.

Run one workload (from the repository root):

    python3 hgserve/run.py --workload serve_hot --seed 1 --seconds 25 --trace 0

The benchmark is built from source into $CARGO_TARGET_DIR/hgserve (default
.bench_build/hgserve). The run's full JSON report lands in --out-dir (default
<build dir>/runs), and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer split of a traced run.

Compare two result directories, one row per workload and metric:

    python3 hgserve/run.py compare hgserve/baseline <new results dir>
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "Release"


def build(build_dir):
    """Configures (once) and builds bench_hgserve; returns its path."""
    log = sys.stderr.fileno()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-G", generator,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       stdout=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "bench_hgserve"],
                   stdout=log, check=True)
    return os.path.join(build_dir, "bench_hgserve")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def run(args):
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hgserve")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1

    out_dir = args.out_dir or os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(report):
        os.remove(report)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", report]
    if args.trace:
        cmd.append("--traced")
    # The program reads HISTGRAPH_* knobs from the environment; the benchmark
    # runs it with none set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HISTGRAPH_")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        print("bench_hgserve timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    if not os.path.exists(report):
        print("bench_hgserve exited %d without a report" % proc.returncode, file=sys.stderr)
        return 1

    with open(report) as f:
        result = json.load(f)
    result["env"] = {"nproc": os.cpu_count(), "commit": commit(), "build_type": BUILD_TYPE}
    with open(report, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")

    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


def load_runs(directory):
    """{(workload, traced): {metric: ([values], unit)}} over every report in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        key = (r["workload"], bool(r["traced"]))
        for name, m in r["metrics"].items():
            values, _ = runs.setdefault(key, {}).setdefault(name, ([], m["unit"]))
            values.append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    bounds = {}
    if os.path.exists(args.bench):
        with open(args.bench) as f:
            spec = json.load(f)
        for m in spec.get("end_to_end", []):
            bounds[m["name"]] = (m["better"], m["bound"])
        for m in spec.get("per_layer", []):
            bounds.setdefault(m["name"], (m["better"], None))
    base, new = load_runs(args.base), load_runs(args.new)
    header = "%-14s %-30s %-30s %-30s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "delta", "bound",
        "verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        for name in sorted(set(base[key]) & set(new[key])):
            b_q1, b_med, b_q3 = quartiles(base[key][name][0])
            n_q1, n_med, n_q3 = quartiles(new[key][name][0])
            better, bound = bounds.get(name, ("lower", None))
            # Positive delta = worse, whichever way the metric improves.
            delta = (n_med - b_med) / abs(b_med) if b_med else 0.0
            if better == "higher":
                delta = -delta
            spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                         (n_q3 - n_q1) / abs(n_med) if n_med else 0.0)
            if bound is None:
                verdict = "per-layer" if traced else "-"
            elif name != "setup_s" and spread > bound:
                verdict = "unresolved (spread %.1f%%)" % (100 * spread)
            elif delta > bound:
                verdict = "REGRESSED"
            elif -delta > bound:
                verdict = "improved"
            else:
                verdict = "ok"
            print("%-14s %-30s %-30s %-30s %+7.1f%% %6s  %s" % (
                workload, name + (" [traced]" if traced else ""),
                "%.4g [%.4g, %.4g]" % (b_med, b_q1, b_q3),
                "%.4g [%.4g, %.4g]" % (n_med, n_q1, n_q3),
                100 * delta, "%.0f%%" % (100 * bound) if bound is not None else "-", verdict))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare",
                                    description="Compare two directories of run reports.")
        p.add_argument("base")
        p.add_argument("new")
        p.add_argument("--bench", default="BENCHMARK.json",
                       help="bounds and directions (default: ./BENCHMARK.json)")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description="Build and run one bench_hgserve workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", help="where the run's JSON report goes")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
