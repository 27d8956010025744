"""The benchmark's own tests: every workload at smoke length, all checks on.

    python3 -m unittest discover -s perfbench/tests

Runs from any directory; everything it writes stays under
.bench_build/perfbench-tests in the checkout.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-tests")
WORKLOADS = ("sweep-cold", "search-fine-halving", "daemon-mixed")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(workload, trace=0, seed=3):
    """Run one smoke-length run; returns (exit code, result, record)."""
    os.makedirs(SCRATCH, exist_ok=True)
    out = os.path.join(SCRATCH, "%s-%d-%d.json" % (workload, trace, seed))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke", "--out", out],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    with open(out) as f:
        record = json.load(f)
    return proc.returncode, result, record


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_its_checks_and_reports_every_e2e_metric(self):
        want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result, record = smoke(w)
                self.assertEqual(rc, 0, record.get("failures"))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, name)
                prov = record["provenance"]
                for key in ("nproc", "compiler", "build_type", "pool_width", "commit",
                            "seed", "traced", "host_class"):
                    self.assertIn(key, prov)
                self.assertTrue(record["counters"])

    def test_counters_repeat_exactly_for_a_seed(self):
        _, _, a = smoke("sweep-cold", seed=5)
        _, _, b = smoke("sweep-cold", seed=5)
        self.assertEqual(a["counters"], b["counters"])
        _, _, c = smoke("sweep-cold", seed=6)
        self.assertEqual(a["counters"]["points"], c["counters"]["points"])

    def test_traced_sweep_reports_every_layer_and_the_proxy_dominates(self):
        rc, result, record = smoke("sweep-cold", trace=1)
        self.assertEqual(rc, 0, record.get("failures"))
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(set(m), {x["name"] for x in spec()["per_layer"]})
        proxy = m["dse.accuracy_proxy.cpu_ms"]
        for other in ("energy.workload_energy.cpu_ms", "sim.performance.cpu_ms",
                      "rae.area.cpu_ms", "sim.run_workload.cpu_ms",
                      "dse.calibrate.fit_cpu_ms"):
            self.assertGreater(proxy, m[other], other)
        self.assertEqual(m["sim.run_workload.calls"], 0)
        self.assertEqual(m["dse.accuracy_proxy.calls"], 208)
        self.assertIn("plain.op_ms_p50", record["info"])
        self.assertIn("traced.op_ms_p50", record["info"])

    def test_traced_search_reports_sim_calibration_and_search_layers(self):
        rc, result, record = smoke("search-fine-halving", trace=1)
        self.assertEqual(rc, 0, record.get("failures"))
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(m["dse.search.explored"], 16384)
        self.assertEqual(m["dse.search.evaluated"], 1024)
        self.assertEqual(m["sim.run_workload.calls"], 1024)
        for name in ("sim.run_workload.cpu_ms", "sim.macs", "dse.calibrate.families",
                     "dse.calibrate.fit_cpu_ms", "dse.pareto.margins_ms",
                     "dse.config_space.decode_ns", "dse.accuracy_proxy.cpu_ms"):
            self.assertGreater(m[name], 0, name)

    def test_traced_daemon_reports_store_and_serve_layers(self):
        rc, result, record = smoke("daemon-mixed", trace=1)
        self.assertEqual(rc, 0, record.get("failures"))
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for name in ("dse.store.load_ms", "dse.store.bytes", "serve.protocol.handle_ms_p50",
                     "serve.dispatcher.query_ms_p50", "serve.dispatcher.store_hits"):
            self.assertGreater(m[name], 0, name)
        # Each cold search goes out on two connections: one leader computes
        # every point, the other copy reads them back (from the leader's
        # batch, or from the store if it arrived after the merge).
        c = record["counters"]
        self.assertGreater(c["cold.searches"], 0)
        self.assertEqual(c["cold.responses"], 2 * c["cold.searches"])
        self.assertEqual(c["cold.fresh"], c["cold.follower_rows"])
        self.assertEqual(2 * c["cold.fresh"], c["cold.points"])
        self.assertGreaterEqual(m["serve.dispatcher.coalesce_ratio"], 0.0)
        self.assertLessEqual(m["serve.dispatcher.coalesce_ratio"], 0.5)


class ContractTest(unittest.TestCase):
    def test_compare_refuses_different_host_classes(self):
        os.makedirs(SCRATCH, exist_ok=True)
        paths = []
        for i, host in enumerate(("nproc=4;compiler=GNU 12;build=Release",
                                  "nproc=1;compiler=GNU 12;build=Release")):
            p = os.path.join(SCRATCH, "host%d.json" % i)
            with open(p, "w") as f:
                json.dump({"provenance": {"host_class": host}, "workload": "sweep-cold",
                           "counters": {}, "result": {"metrics": {}}}, f)
            paths.append(p)
        proc = subprocess.run([sys.executable, os.path.join(BENCH, "suite.py"), "compare"] + paths,
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("different host classes", proc.stdout)

    def test_fails_without_printing_a_result_outside_a_checkout(self):
        alone = os.path.join(SCRATCH, "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(BENCH, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=alone, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
