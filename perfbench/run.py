#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload daemon-mixed --seed 7 --seconds 5 --trace 1
    python3 perfbench/run.py --workload search-fine-halving --smoke

Run from the root of a checkout. The first run builds the library, the
daemon and the harness from source into .bench_build/perfbench (Release);
later runs reuse that build. With --trace 0 the result's metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer ones.
--out FILE also writes the full record (provenance, exact work counters,
distributions) for `perfbench/suite.py compare`. Exits 1 when a correctness
check fails and 2 when the benchmark cannot run here (no sources, build
failure, timeout) — without printing a result then.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sweep-cold", "search-fine-halving", "daemon-mixed")
HARNESS_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def build():
    """Configure (once) and build the benchmark package; returns binary paths."""
    for need in ("src/dse/sweep.hpp", "examples/apsq_dsed.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("no APSQ sources here (missing %s); run from a full checkout" % need)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                die("cmake configure failed")
        cmd = ["cmake", "--build", BUILD, "-j", str(nproc())]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            die("build failed (log: %s)" % log_path)
    return os.path.join(BUILD, "perfbench_harness"), os.path.join(BUILD, "apsq_dsed")


def source_digest():
    """sha256 over the library, daemon and benchmark sources (provenance)."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files
                      if f.endswith((".cpp", ".hpp", ".py", ".txt"))]
    paths.append(os.path.join(ROOT, "examples", "apsq_dsed.cpp"))
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """The result object must match the contract and BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys %s" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            return "metrics differ from BENCHMARK.json (missing %s, extra %s)" % (missing, extra)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long run with every check on (the benchmark's tests)")
    ap.add_argument("--out", help="also write the full record here (JSON)")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    harness, daemon = build()
    workdir = os.path.join(ROOT, ".bench_build", "perfbench-work", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [harness, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon, "--workdir", workdir,
           "--commit", commit(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group: on a timeout the harness and the daemon it spawned
    # are killed together, and both are reaped before we exit.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("harness did not finish in %d s" % HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        die("harness printed no result (exit %d)" % proc.returncode)
    problem = validate(result, args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("invalid result: " + problem)

    record = {}
    for line in lines:
        if line.startswith("PERFBENCH_RECORD "):
            record = json.loads(line[len("PERFBENCH_RECORD "):])
    if args.out:
        record["result"] = result
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
