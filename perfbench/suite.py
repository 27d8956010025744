#!/usr/bin/env python3
"""Drive perfbench/run.py across workloads and seeds.

    python3 perfbench/suite.py all [--seconds S] [--seed N] [--trace 0|1] [--smoke]
        Run every workload once; print each end-to-end (or per-layer) metric
        by name and unit. Exits 1 if any correctness check failed.

    python3 perfbench/suite.py steady --workload W --seeds 1,2,3,4,5
                                      [--seconds S] [--out SET.json]
                                      [--against EARLIER_SET.json]
        Steadiness check: one run per seed plus a repeat of the first seed.
        Per end-to-end metric, the quartile spread (Q3 - Q1) / median over the
        seeds against the metric's bound; the exact work counters of the
        repeated seed must be identical to its first run. With --against,
        each median must also be no worse than the earlier set's by more than
        the bound. Exits 1 when a spread exceeds its bound, a median
        regressed past it, or a counter changed.

    python3 perfbench/suite.py compare A.json B.json
        Compare two records written by `run.py --out`. Refuses, with a plain
        message, records from different host classes (nproc, compiler,
        build type).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("sweep-cold", "search-fine-halving", "daemon-mixed")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, smoke=False, echo=False):
    """One run.py invocation → its record (with "result"), or None on failure."""
    scratch = os.path.join(ROOT, ".bench_build", "suite")
    os.makedirs(scratch, exist_ok=True)
    out = os.path.join(scratch, "%s-%d-%d.json" % (workload, seed, os.getpid()))
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if echo:
        sys.stdout.write("".join(l + "\n" for l in proc.stdout.splitlines()
                                 if not l.startswith(("PERFBENCH_RECORD", "{"))))
    try:
        with open(out) as f:
            record = json.load(f)
    except (OSError, ValueError):
        record = None
    finally:
        if os.path.exists(out):
            os.unlink(out)
    if record is None or proc.returncode != 0:
        print("run failed: %s seed %s (exit %d)" % (workload, seed, proc.returncode))
        if record:
            for f in record.get("failures", []):
                print("  CHECK FAILED: " + f)
        return None
    return record


def cmd_all(args):
    ok = True
    for w in WORKLOADS:
        print("== %s (seed %d, %s s, trace %d)" % (w, args.seed, args.seconds, args.trace))
        if run_once(w, args.seed, args.seconds, args.trace, args.smoke, echo=True) is None:
            ok = False
    return 0 if ok else 1


def quartile_spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def cmd_steady(args):
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    records = []
    for s in seeds:
        rec = run_once(args.workload, s, args.seconds, 0)
        if rec is None:
            return 1
        records.append(rec)
        vals = {k: round(v["value"], 4) for k, v in rec["result"]["metrics"].items()}
        print("seed %d: %s" % (s, json.dumps(vals, sort_keys=True)))
    repeat = run_once(args.workload, seeds[0], args.seconds, 0)
    if repeat is None:
        return 1
    vals = {k: round(v["value"], 4) for k, v in repeat["result"]["metrics"].items()}
    print("seed %d again: %s" % (seeds[0], json.dumps(vals, sort_keys=True)))
    failed = False
    if repeat["counters"] != records[0]["counters"]:
        failed = True
        diff = {k: (records[0]["counters"].get(k), repeat["counters"].get(k))
                for k in set(records[0]["counters"]) | set(repeat["counters"])
                if records[0]["counters"].get(k) != repeat["counters"].get(k)}
        print("BEHAVIOUR CHANGE: counters of seed %d differ between runs: %s" % (seeds[0], diff))
    else:
        print("counters of seed %d identical across runs (%d counters)"
              % (seeds[0], len(repeat["counters"])))
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    summary = {"workload": args.workload, "seeds": seeds, "medians": {},
               "host_class": records[0]["provenance"]["host_class"]}
    if earlier is not None and earlier["host_class"] != summary["host_class"]:
        print("refusing to compare results from different host classes:\n  %s: %s\n  this run: %s"
              % (args.against, earlier["host_class"], summary["host_class"]))
        return 2
    print("%-16s %14s %8s %8s  %s" % ("metric", "median", "spread", "bound", "verdict"))
    for name, m in sorted(bounds.items()):
        values = [r["result"]["metrics"][name]["value"] for r in records]
        med, spread = quartile_spread(values)
        summary["medians"][name] = med
        verdict = "steady" if spread < m["bound"] / 3 else (
            "within bound" if spread <= m["bound"] else "UNSTEADY")
        if verdict == "UNSTEADY":
            failed = True
        if earlier is not None:
            prev = earlier["medians"][name]
            worse = (med - prev) / prev if m["better"] == "lower" else (prev - med) / prev
            verdict += "; vs earlier %+.1f%%" % (100 * worse)
            if worse > m["bound"]:
                verdict += " REGRESSED"
                failed = True
        print("%-16s %14.6g %7.1f%% %7.1f%%  %s" % (name, med, 100 * spread, 100 * m["bound"], verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
    return 1 if failed else 0


def cmd_compare(args):
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    ha, hb = a["provenance"]["host_class"], b["provenance"]["host_class"]
    if ha != hb:
        print("refusing to compare results from different host classes:\n  %s: %s\n  %s: %s"
              % (args.a, ha, args.b, hb))
        return 2
    if a.get("workload") != b.get("workload"):
        print("refusing to compare different workloads: %s vs %s"
              % (a.get("workload"), b.get("workload")))
        return 2
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in sorted(set(ma) & set(mb)):
        va, vb = ma[name]["value"], mb[name]["value"]
        change = (vb - va) / va if va else 0.0
        m = bounds.get(name)
        note = ""
        if m:
            worse = change if m["better"] == "lower" else -change
            note = "worse than bound %.0f%%" % (100 * m["bound"]) if worse > m["bound"] else "ok"
        print("%-44s %14.6g %14.6g %+8.1f%%  %s" % (name, va, vb, 100 * change, note))
    if a["counters"] != b["counters"]:
        print("counters differ (a behaviour change if the seeds are equal)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p = sub.add_parser("steady")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--seconds", type=float, default=float(spec()["run_seconds"]))
    p.add_argument("--out")
    p.add_argument("--against")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args()
    return {"all": cmd_all, "steady": cmd_steady, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
