#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload report|serve|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

A single workload prints `# ` note lines (seed, samples, lines of code per
src/ module) and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. `all` runs every workload untraced and
traced, prints each metric with its unit, the tracing overhead and the layer
dominance check.

The library and the benchmark binary are compiled from source with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use. Durable databases live
under that directory too, and traced runs write spans-<workload>.tsv and
layers-<workload>.json into its trace/ subdirectory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["report", "serve", "ingest"]
RUN_TIMEOUT_S = 170

# Dominance check: (layer, workload doing most of its work, workload doing
# little of it). The layer's timed-phase self-time share must be larger in
# the first. task_graph has no spans; it compares parallel tasks per request.
DOMINANCE = [
    ("rel.exec", "report", "ingest"),
    ("xml.serialize", "report", "serve"),
    ("task_graph", "report", "serve"),
    ("task_graph", "report", "ingest"),
    ("plan_cache", "serve", "report"),
    ("prepare", "serve", "report"),
    ("prepare", "ingest", "report"),
    ("server", "serve", "report"),
    ("shred", "ingest", "report"),
    ("shred", "ingest", "serve"),
    ("wal", "ingest", "report"),
    ("wal", "ingest", "serve"),
]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures once, then builds incrementally. Output goes to stderr."""
    source = os.path.join(root, "perfbench")
    binary_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", binary_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(binary_dir, "xdb_perfbench")


def lines_of_code(root):
    """Lines per src/ module (informational, not gated)."""
    src = os.path.join(root, "src")
    counts = {}
    for module in sorted(os.listdir(src)):
        path = os.path.join(src, module)
        if not os.path.isdir(path):
            continue
        total = 0
        for name in os.listdir(path):
            if name.endswith((".h", ".cc")):
                with open(os.path.join(path, name), encoding="utf-8",
                          errors="replace") as f:
                    total += sum(1 for _ in f)
        counts[module] = total
    return counts


def run_one(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (note lines, result dict)."""
    tmp = os.path.join(build_dir, "tmp", "run-%d" % os.getpid())
    trace_dir = os.path.join(build_dir, "trace")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def dominance_report(build_dir):
    """Dominance check over the latest traced run of every workload."""
    tables = {}
    for w in WORKLOADS:
        path = os.path.join(build_dir, "trace", "layers-%s.json" % w)
        if not os.path.exists(path):
            return ["dominance check skipped: no traced run of " + w]
        with open(path, encoding="utf-8") as f:
            tables[w] = json.load(f)

    def share(w, layer):
        if layer == "task_graph":
            return tables[w]["metrics"]["task_graph.par_tasks_per_req"]["value"]
        return tables[w]["groups"][layer]

    out = []
    held = 0
    for layer, most, little in DOMINANCE:
        a, b = share(most, layer), share(little, layer)
        ok = a > b
        held += ok
        out.append("dominance %-13s %-6s %.6f > %-6s %.6f  %s"
                   % (layer, most, a, little, b, "holds" if ok else "FAILS"))
    out.append("dominance %d of %d hold" % (held, len(DOMINANCE)))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the root of a source checkout (%s is missing)"
                 % needed)
    stray = sorted(k for k in os.environ if k.startswith("XDB_"))
    if stray:
        fail("refusing to run with %s set" % ", ".join(stray))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    binary = build(root, build_dir)
    loc = lines_of_code(root)
    loc_notes = ["loc src/%s %d" % (m, n) for m, n in loc.items()]
    loc_notes.append("loc src total %d" % sum(loc.values()))

    if args.workload != "all":
        notes, result = run_one(binary, build_dir, args.workload, args.seed,
                                args.seconds, args.trace == 1)
        for line in notes:
            print(line)
        for line in loc_notes:
            print("# " + line)
        if args.trace == 1:
            for line in dominance_report(build_dir):
                print("# " + line)
        print(json.dumps(result))
        return

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        for trace in (False, True):
            notes, result = run_one(binary, build_dir, w, args.seed,
                                    args.seconds, trace)
            print("== %s (%s), seed %d" % (w, "traced" if trace else "untraced",
                                         args.seed))
            for line in notes:
                print(line)
            print("correct %s attempted %d failed %d"
                  % (result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            if not trace:
                for name, m in result["metrics"].items():
                    summary["metrics"]["%s.%s" % (w, name)] = m
    print("== layers")
    for line in dominance_report(build_dir):
        print(line)
    for line in loc_notes:
        print(line)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
