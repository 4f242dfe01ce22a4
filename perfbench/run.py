#!/usr/bin/env python3
"""Repository benchmark: build lockbench from source, run one workload, and
print the result as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload read_mostly|write_heavy|index \
        --seed N --seconds S --trace 0|1 [--confirm-seed M]
    python3 perfbench/run.py --selftest

Run from the repository root.  The build goes to .bench_build/perfbench;
traced runs also write their span dump there.  See perfbench/README.md for
the workloads, the metrics and the layer each one measures.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lockbench")
WORKLOADS = ("read_mostly", "write_heavy", "index")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "factory.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return "unknown", None
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def run_once(workload, seed, seconds, trace):
    """Run lockbench once; returns (metrics, attempted, failed, provenance)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--span-dump",
                os.path.join(spans_dir, "%s-seed%d.csv" % (workload, seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("lockbench did not finish within %d s" % RUN_TIMEOUT_S, 3)
    sys.stderr.write(r.stderr)
    metrics, check, prov = {}, None, {}
    for line in r.stdout.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric":
            if len(parts) != 4 or parts[1] in metrics:
                fail("bad or repeated metric line: " + line, 3)
            metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
            continue  # printed below, with its direction
        print("# " + line)
        if parts[0] == "check":
            check = dict(p.split("=", 1) for p in parts[1:])
        elif parts[0] == "provenance":
            prov = dict(p.split("=", 1) for p in parts[1:])
    # Exit 1 with a check line means operations failed; anything else
    # (crash, hang report, bad usage) leaves no result to report.
    if check is None or r.returncode not in (0, 1):
        fail("lockbench exited with %d" % r.returncode, 3)
    return metrics, int(check["attempted"]), int(check["failed"]), prov


def missing_or_wrong(metrics, wanted):
    """Names in `wanted` (list of spec entries) absent or with another unit,
    plus metrics printed that the spec does not name."""
    problems = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing " + m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("%s unit %s, want %s" % (m["name"], got["unit"], m["unit"]))
    names = {m["name"] for m in wanted}
    problems += ["unexpected " + n for n in metrics if n not in names]
    return problems


def measure(spec, workload, seed, seconds, trace):
    metrics, attempted, failed, prov = run_once(workload, seed, seconds, trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    problems = missing_or_wrong(metrics, wanted)
    for p in problems:
        log("perfbench: " + p)
    sha, dirty = git_state()
    prov.update({"git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(),
                 "cpu_model": cpu_model(), "workload": workload, "seed": seed,
                 "seconds": seconds, "trace": trace})
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print("# failed_frac %.6g (%d failed of %d attempted)"
          % (failed / max(attempted, 1), failed, attempted))
    for m in wanted:
        if m["name"] in metrics:
            print("# %-44s %16.6g %-9s (%s is better)" % (
                m["name"], metrics[m["name"]]["value"], m["unit"], m["better"]))
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: metrics[m["name"]] for m in wanted
                          if m["name"] in metrics}}
    return result


def selftest(spec):
    """Short runs of every workload in both modes: every named metric must
    be printed with its unit, no operation may fail, and the exact sim
    counts must agree across workloads."""
    ok = True
    sims = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = measure(spec, workload, 1, 1.5, trace)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            good = res["correct"] and len(res["metrics"]) == len(wanted)
            log("selftest %-12s trace=%d: %s (%d metrics, %d failed)" % (
                workload, trace, "ok" if good else "FAIL",
                len(res["metrics"]), res["failed"]))
            ok = ok and good
            if trace:
                sims[workload] = {k: v["value"] for k, v in res["metrics"].items()
                                  if k.startswith("sim.")}
    if len({json.dumps(s, sort_keys=True) for s in sims.values()}) != 1:
        log("selftest: sim counts differ between workloads")
        ok = False
    log("selftest: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--confirm-seed", type=int,
                    help="repeat the run on a second seed; both must pass")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    build()
    if args.selftest:
        return selftest(spec)
    if args.workload is None:
        fail("--workload is required")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    result = measure(spec, args.workload, args.seed, seconds, args.trace)
    if args.confirm_seed is not None:
        confirm = measure(spec, args.workload, args.confirm_seed, seconds,
                          args.trace)
        print("# confirm-seed %d result %s" % (args.confirm_seed,
                                               json.dumps(confirm)))
        result["correct"] = result["correct"] and confirm["correct"]
        result["attempted"] += confirm["attempted"]
        result["failed"] += confirm["failed"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
