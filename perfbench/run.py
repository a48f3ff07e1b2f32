#!/usr/bin/env python3
"""End-to-end benchmark of the SFTree stack.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the repository's library and the benchmark program from source (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload and prints its result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, and writes the run's spans next to the build. A failed
build or correctness check exits non-zero without a result line.

--self-test runs every workload at a tiny size in both modes, checks that
each emits exactly the metrics and units BENCHMARK.json names, and checks
that every correctness check fails when fed a deliberately wrong count.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170

# Correctness checks the benchmark program can be told to feed a wrong
# count, per workload (see expectCount in src/support.cpp).
FAULTS = {
    "update_small": ["conservation", "tree", "ckpt_newest", "ckpt_restore"],
    "read_large": ["conservation", "tree", "ckpt_newest", "ckpt_restore"],
    "serve_open": ["conservation", "tree", "ckpt_newest", "ckpt_restore"],
    "ckpt_writes": ["conservation", "tree", "tokens", "ckpt_newest",
                    "ckpt_restore"],
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing "
             "next to " + BENCH_DIR)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--out-dir=" + runs] + list(extra)
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, [], "timed out after %d s" % RUN_TIMEOUT_S
    return p.returncode, p.stdout.splitlines(), p.stderr


def parse_result(lines, spec, trace):
    """The result line, or an error string."""
    if not lines:
        return None, "no output"
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON: " + lines[-1][:200]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are " + ", ".join(sorted(res))
    if res["correct"] is not True or res["attempted"] < 1:
        return None, "run not correct or attempted nothing"
    want = expected_metrics(spec, trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return None, ("metrics differ from BENCHMARK.json: missing %s, "
                      "unexpected %s, wrong unit %s" % (missing, extra, units))
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            return None, "metric %s has no finite value" % k
    return res, None


def self_test(binary, spec):
    names = [w["name"] for w in spec["workloads"]]
    bad = 0
    for w in names:
        for trace in (0, 1):
            rc, lines, err = run_binary(binary, w, 1, 1, trace, ["--tiny"])
            res, why = (None, "exit %d: %s" % (rc, err.strip()[-300:])) \
                if rc != 0 else parse_result(lines, spec, trace)
            ok = res is not None
            bad += not ok
            print("%-4s %s trace=%d%s" % ("ok" if ok else "FAIL", w, trace,
                                          "" if ok else ": " + why))
        for check in FAULTS.get(w, []):
            rc, lines, err = run_binary(binary, w, 1, 1, 0,
                                        ["--tiny", "--fault=" + check])
            printed = any(l.startswith("{") for l in lines)
            ok = rc == 2 and not printed and check in err
            bad += not ok
            print("%-4s %s fault=%s%s" % (
                "ok" if ok else "FAIL", w, check,
                "" if ok else " (exit %d, result printed: %s)" % (rc, printed)))
    print("self-test: %s" % ("passed" if bad == 0 else "%d FAILED" % bad))
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    binary = build()
    if args.self_test:
        sys.exit(self_test(binary, spec))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    rc, lines, err = run_binary(binary, args.workload, args.seed,
                                args.seconds, args.trace)
    sys.stderr.write(err)
    if rc != 0:
        fail("workload %s exited with status %d" % (args.workload, rc))
    res, why = parse_result(lines, spec, args.trace)
    if res is None:
        fail(why)
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
