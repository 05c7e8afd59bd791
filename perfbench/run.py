#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds perfbench (the simulator library from src/ plus
perfbench/perfbench.cc, Release) into the build directory and runs one
workload. The last line of stdout is the result JSON. The build
directory is $CARGO_TARGET_DIR when set, else .bench_build, relative to
the current directory.

The second form builds, then checks the benchmark itself at a tiny size
(see README.md, "Self-test").
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["figure_sbrp", "figure_baselines", "crash_campaign",
             "mc_corpus"]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))


def run_quiet(cmd):
    """Runs a build step; on failure echoes its output to stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n"
                         % " ".join(cmd))
    return proc.returncode == 0


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", out, "-j", jobs,
                      "--target", "perfbench"]):
        return None
    return os.path.join(out, "perfbench")


def run_json(exe, args):
    """Runs perfbench and parses its last stdout line."""
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("perfbench %s exited %d: %s"
                             % (" ".join(args), proc.returncode,
                                proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_test(exe):
    """The benchmark's own checks at a tiny size (one pass, test scale)."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    exact = ["gpu.issue_attempts", "gpu.sim_cycles", "gpu.model_retries",
             "mc.schedules_explored", "crashtest.points_failed",
             "crashtest.points_run", "exact.sim_cycles",
             "exact.fingerprint"]
    problems = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    def tiny(workload, trace, *extra):
        return run_json(exe, ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace),
                              "--tiny"] + list(extra))

    for w in WORKLOADS:
        plain = tiny(w, 0)
        check(set(plain) == {"correct", "attempted", "failed", "metrics"},
              "%s: result has exactly the four keys" % w)
        check(plain["correct"] and plain["attempted"] >= 1,
              "%s: correct, %d attempted" % (w, plain["attempted"]))
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        check(got == e2e, "%s: every end-to-end metric, with its unit" % w)
        check(all(plain["metrics"][k]["value"] > 0 for k in e2e),
              "%s: no end-to-end metric is 0" % w)

        a, b = tiny(w, 1), tiny(w, 1)
        got = {k: v["unit"] for k, v in a["metrics"].items()}
        check(got == layer, "%s: every per-layer metric, with its unit" % w)
        same = [k for k in exact
                if a["metrics"][k]["value"] == b["metrics"][k]["value"]]
        check(same == exact and a["failed"] == b["failed"],
              "%s: exact counts repeat with the same seed" % w)
        # The traced run makes two passes, the plain one a single pass.
        check(a["attempted"] == plain["attempted"],
              "%s: attempted does not depend on the number of passes" % w)

    # The seeded persist-order bug must surface as failed operations,
    # never as dropped ones.
    for w in ("figure_sbrp", "crash_campaign"):
        base = tiny(w, 0)
        bug = tiny(w, 0, "--unsafe-relaxed-order")
        check(bug["attempted"] == base["attempted"] and bug["failed"] > 0,
              "%s: relaxed persist order -> %d/%d failed (correct "
              "model: %d/%d)" % (w, bug["failed"], bug["attempted"],
                                 base["failed"], base["attempted"]))

    print("self-test: %s" % ("PASS" if not problems else
                             "%d FAILED" % len(problems)))
    return 0 if not problems else 1


def main(argv):
    exe = build()
    if exe is None:
        return 2
    if argv == ["--self-test"]:
        return self_test(exe)
    return subprocess.call([exe] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
