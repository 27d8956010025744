// perfbench_harness — the benchmark's measuring process.
//
//   perfbench_harness run --workload W --seed N --seconds S --trace 0|1
//                         --daemon PATH --workdir DIR [--smoke]
//                         [--commit C] [--source-digest D]
//   perfbench_harness probe --workload W    (set-up probe child)
//
// perfbench/run.py builds this and calls it; see perfbench/README.md.
// Output: a human-readable table, one "PERFBENCH_RECORD {...}" line with
// provenance, exact work counters, distributions and failed checks, and —
// last — the result object {"correct", "attempted", "failed", "metrics"}.
// Exit status 1 when any correctness check failed.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench_harness: " << why << "\n"
            << "usage: perfbench_harness run --workload W --seed N --seconds S "
               "--trace 0|1 --daemon PATH --workdir DIR [--smoke]\n"
               "       perfbench_harness probe --workload W\n";
  return 2;
}

void print_record(const RunArgs& a, const std::map<std::string, std::string>& prov,
                  const Report& r) {
  std::ostringstream os;
  os << "PERFBENCH_RECORD {\"provenance\": {";
  bool first = true;
  for (const auto& [k, v] : prov) {
    os << (first ? "" : ", ") << str(k) << ": " << str(v);
    first = false;
  }
  os << "}, \"counters\": {";
  first = true;
  for (const auto& [k, v] : r.counters) {
    os << (first ? "" : ", ") << str(k) << ": " << v;
    first = false;
  }
  os << "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : r.info) {
    os << (first ? "" : ", ") << str(k) << ": " << str(v);
    first = false;
  }
  os << "}, \"failures\": [";
  for (size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? ", " : "") << str(r.failures[i]);
  os << "], \"workload\": " << str(a.workload) << "}";
  std::cout << os.str() << "\n";
}

void print_table(const Report& r) {
  std::cout << "metric                                              value  unit\n";
  for (const auto& [name, vu] : r.metrics) {
    char line[256];
    std::snprintf(line, sizeof line, "%-44s %14.6g  %s\n", name.c_str(),
                  vu.first, vu.second.c_str());
    std::cout << line;
  }
  const double err = r.attempted > 0 ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 0.0;
  char line[256];
  std::snprintf(line, sizeof line, "%-44s %14.6g  %s\n", "error_rate", err, "ratio");
  std::cout << line;
  // A traced run: its end-to-end numbers next to the plain half's.
  for (const auto& [key, plain] : r.info) {
    if (key.rfind("plain.", 0) != 0) continue;
    const std::string name = key.substr(6);
    const auto traced = r.info.find("traced." + name);
    const auto overhead = r.info.find("trace_overhead." + name);
    if (traced == r.info.end()) continue;
    std::snprintf(line, sizeof line, "e2e %-28s plain %12.6g  traced %12.6g  (%+.1f%%)\n",
                  name.c_str(), std::stod(plain), std::stod(traced->second),
                  overhead == r.info.end() ? 0.0 : 100 * std::stod(overhead->second));
    std::cout << line;
  }
  for (const std::string& f : r.failures) std::cout << "CHECK FAILED: " << f << "\n";
}

void print_result(const Report& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    os << (first ? "" : ", ") << str(name) << ": {\"value\": " << num(vu.first)
       << ", \"unit\": " << str(vu.second) << "}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing subcommand");
  const std::string cmd = argv[1];
  RunArgs a;
  a.self = argv[0];
  a.width = affinity_width();
  std::map<std::string, std::string> prov;
  std::string trace = "0";
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") trace = v;
      else if (k == "--daemon") a.daemon = v;
      else if (k == "--workdir") a.workdir = v;
      else if (k == "--commit") prov["commit"] = v;
      else if (k == "--source-digest") prov["source_digest"] = v;
      else return usage("unknown flag " + k);
    } catch (const std::exception&) {
      return usage("bad value for " + k + ": " + v);
    }
  }
  if (cmd == "probe") return probe_main(a.workload, a.width);
  if (cmd != "run") return usage("unknown subcommand " + cmd);
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  a.trace = trace == "1";
  if (!(a.seconds > 0)) return usage("--seconds must be > 0");
  if (a.smoke) a.seconds = std::min(a.seconds, 1.0);

  prov["nproc"] = std::to_string(a.width);
  prov["compiler"] = PERFBENCH_COMPILER;
  prov["build_type"] = PERFBENCH_BUILD_TYPE;
  prov["pool_width"] = std::to_string(a.width);
  prov["host_class"] = "nproc=" + prov["nproc"] + ";compiler=" + prov["compiler"] +
                       ";build=" + prov["build_type"];
  prov["seed"] = std::to_string(a.seed);
  prov["traced"] = a.trace ? "1" : "0";
  prov["smoke"] = a.smoke ? "1" : "0";
  prov["seconds"] = num(a.seconds);
  if (!prov.count("commit")) prov["commit"] = "unknown";

  // The pool width every workload (and the daemon) runs at.
  setenv("APSQ_POOL_THREADS", std::to_string(a.width).c_str(), 1);

  Report r;
  try {
    if (a.workload == "sweep-cold" || a.workload == "search-fine-halving") {
      run_inproc(a, r);
    } else if (a.workload == "daemon-mixed") {
      if (a.daemon.empty() || a.workdir.empty())
        return usage("daemon-mixed needs --daemon and --workdir");
      run_daemon_mixed(a, r);
    } else {
      return usage("unknown workload \"" + a.workload +
                   "\" (sweep-cold | search-fine-halving | daemon-mixed)");
    }
  } catch (const std::exception& e) {
    r.fail(std::string("run aborted: ") + e.what());
  }
  if (r.attempted < 1) {
    r.attempted = 1;
    r.failed = 1;
    r.fail("no operation was attempted");
  }
  print_table(r);
  print_record(a, prov, r);
  print_result(r);
  return r.correct ? 0 : 1;
}
