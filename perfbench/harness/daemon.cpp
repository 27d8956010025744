// daemon-mixed: the real apsq_dsed binary over localhost TCP.
//
// The daemon starts preloaded with a snapshot of several scoring
// identities over the paper space — analytic at eight seeds, and
// mixed-adaptive with pinned promote_objectives at two — all derived from
// the workload seed. `width` (= nproc) closed-loop client connections then
// send:
//   * warm re-slices: a fixed rotation of objective planes, `where`
//     filters and `top` over every identity (answered from the store);
//   * cold writes: clients 0 and 1 form the cold pair. Every
//     cold_period_ms they meet at a barrier and both send the same
//     fine-space evolve search at a fresh search seed — one leads, one
//     coalesces. Between rounds they send warm requests too.
// Every response is checked after the window: warm fronts byte-identical
// to an in-process SweepSession over the same snapshot, summed
// fresh_evaluations equal to the unique cold points, a repeated cold
// query answering with 0 fresh.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "common/annotations.hpp"
#include "common/json.hpp"
#include "dse/request.hpp"
#include "dse/store.hpp"
#include "dse/sweep.hpp"
#include "replay.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace apsq;
using namespace apsq::dse;

namespace {

constexpr int kAnalyticIdentities = 8;
constexpr int kMixedIdentities = 2;
constexpr i64 kColdBudget = 512;
constexpr int kColdTop = 10;
/// Cold rounds of the traced window start here, past any plain-window index.
constexpr i64 kTracedRoundOffset = 100000;
/// ... and those of the untimed warm-up here.
constexpr i64 kWarmupRoundOffset = 200000;

// ------------------------------------------------------------ the requests

struct Traffic {
  std::vector<std::string> identities;  ///< JSON members naming a scoring identity
  std::vector<std::string> warm;        ///< warm request lines ("w<k>" ids)
  u64 cold_seed = 0;
  u64 cold_search_base = 0;

  std::string cold(i64 j) const {
    std::ostringstream os;
    os << "{\"id\": \"c" << j << "\", \"space\": \"fine\", \"backend\": \"analytic\", "
       << "\"seed\": " << cold_seed << ", \"mode\": \"search\", \"strategy\": \"evolve\", "
       << "\"budget\": " << kColdBudget << ", \"search_seed\": "
       << derive_seed(cold_search_base, 21, static_cast<u64>(j))
       << ", \"top\": " << kColdTop << "}";
    return os.str();
  }
};

Traffic make_traffic(u64 seed) {
  Traffic t;
  for (int k = 0; k < kAnalyticIdentities; ++k)
    t.identities.push_back("\"space\": \"paper\", \"backend\": \"analytic\", \"seed\": " +
                           std::to_string(derive_seed(seed, 10, k)));
  for (int k = 0; k < kMixedIdentities; ++k)
    t.identities.push_back(
        "\"space\": \"paper\", \"backend\": \"mixed\", \"promote_adaptive\": true, "
        "\"promote_objectives\": \"energy,area,error,latency\", \"seed\": " +
        std::to_string(derive_seed(seed, 11, k)));
  static const char* const kPlanes[] = {
      "energy,area,error,latency", "energy,area", "energy,latency", "area,error",
      "energy,area,error", "energy,error,latency,pe_utilization",
      "area,latency,throughput_per_area", "energy,dram_bw_headroom"};
  static const char* const kWheres[] = {"", "area<=2e7", "latency<=1", "energy<=1e13"};
  static const int kTops[] = {5, 20, 50};
  // The mix is the same for every seed — the seed only picks the scoring
  // seeds — so runs at different seeds do the same kind of work; ten
  // scoring identities average out how front sizes vary with the seed.
  int k = 0;
  for (const std::string& id : t.identities)
    for (const char* plane : kPlanes) {
      std::ostringstream os;
      os << "{\"id\": \"w" << k << "\", " << id << ", \"objectives\": \"" << plane << "\"";
      const char* where = kWheres[k % 4];
      if (*where) os << ", \"where\": \"" << where << "\"";
      os << ", \"top\": " << kTops[k % 3] << "}";
      t.warm.push_back(os.str());
      ++k;
    }
  t.cold_seed = derive_seed(seed, 10, 0);
  t.cold_search_base = derive_seed(seed, 13, 0);
  return t;
}

/// A request line → the RequestSpec the daemon builds from it.
RequestSpec spec_of(const std::string& line) {
  const JsonValue doc = json_parse(line);
  RequestSpec req;
  for (const auto& [key, value] : doc.members()) {
    if (key == "id") continue;
    if (!apply_request_field(key, value, req, "request", "query"))
      request_error("request", "query", "unknown key \"" + key + "\"");
  }
  return req;
}

// ------------------------------------------------------------- responses

struct Response {
  bool ok = false;
  std::string line;
  double client_ms = 0;
  double wall_ms = 0;
  i64 store_hits = 0, fresh = 0, coalesced = 0, batches = 0, points = 0;
  i64 pool_runs = 0, pool_steals = 0;
};

/// Parse the fields a response carries. ok stays false on anything but
/// a well-formed ok:true query response.
void parse_response(Response& r) {
  r.ok = false;
  if (r.line.rfind("{\"schema_version\": 1, \"ok\": true", 0) != 0) return;
  const size_t s = r.line.find("\"stats\": {");
  const size_t p = r.line.find("\"points\": ");
  if (s == std::string::npos || p == std::string::npos || r.line.back() != '}') return;
  try {
    const JsonValue st = json_parse(r.line.substr(s + 9, r.line.size() - s - 10));
    r.wall_ms = st.get("wall_ms").as_number();
    r.store_hits = st.get("store_hits").as_i64();
    r.fresh = st.get("fresh_evaluations").as_i64();
    r.coalesced = st.get("coalesced").as_i64();
    r.batches = st.get("eval_batches").as_i64();
    r.pool_runs = st.get("pool_runs").as_i64();
    r.pool_steals = st.get("pool_steals").as_i64();
    r.points = std::stoll(r.line.substr(p + 10));
    r.ok = true;
  } catch (const std::exception&) {
  }
}

/// The `"front": [...]` payload of a response line.
std::string front_segment(const std::string& line) {
  const size_t b = line.find("\"front\": [");
  const size_t e = line.find("], \"stats\"");
  if (b == std::string::npos || e == std::string::npos || e < b + 10) return "<none>";
  return line.substr(b + 10, e - b - 10);
}

/// The first `top` (0 = all) front rows as the protocol renders them.
std::string render_front(const std::vector<EvalResult>& front, int top) {
  std::ostringstream rows;
  for (size_t i = 0; i < front.size(); ++i) {
    if (top > 0 && i >= static_cast<size_t>(top)) break;
    rows << (i == 0 ? "{" : ", {");
    append_result_json(rows, front[i]);
    rows << "}";
  }
  return rows.str();
}

i64 int_field(const std::string& line, const std::string& key) {
  const size_t p = line.find("\"" + key + "\": ");
  return p == std::string::npos ? -1 : std::stoll(line.substr(p + key.size() + 4));
}

// ------------------------------------------------------------- transport

/// One client connection: a line out, a line back.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    timeval tv{60, 0};  // a request that takes a minute counts as failed
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      close(fd_);
      throw std::runtime_error("connect: " + why);
    }
  }
  ~Conn() { close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Send one line and read one back; throws on a dropped connection or a
  /// timeout.
  std::string round_trip(const std::string& line) {
    const std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error(n == 0 ? "connection dropped" : "recv timeout");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

/// A running daemon: spawned, listening, answering.
struct Daemon {
  Child child;
  int port = 0;
};

/// Spawn the daemon and wait until a ping is answered; returns the
/// spawn-to-pong wall time in s.
double start_daemon(const RunArgs& a, const std::string& snapshot, int k, Daemon& d) {
  const std::string port_file = a.workdir + "/port" + std::to_string(k) + ".txt";
  unlink(port_file.c_str());
  const double t0 = wall_ms();
  d.child.spawn({a.daemon, "--store", snapshot, "--port-file", port_file, "--threads",
                 std::to_string(a.width)},
                /*capture_stdout=*/false, a.workdir + "/daemon.log");
  for (;;) {
    const std::string text = read_file(port_file);
    if (!text.empty() && text.back() == '\n') {
      d.port = std::stoi(text);
      break;
    }
    if (wall_ms() - t0 > 60e3) throw std::runtime_error("daemon did not start in 60 s");
    usleep(200);
  }
  Conn c(d.port);
  const std::string pong = c.round_trip("{\"cmd\": \"ping\"}");
  const double t1 = wall_ms();
  if (pong.find("\"ok\": true") == std::string::npos)
    throw std::runtime_error("daemon ping failed: " + pong);
  return (t1 - t0) / 1e3;
}

int stop_daemon(Daemon& d) {
  {
    Conn c(d.port);
    c.round_trip("{\"cmd\": \"shutdown\"}");
  }
  return d.child.wait();
}

// ---------------------------------------------------------------- clients

/// The two cold-writing clients meet here before each cold write, so
/// both send it at once.
struct Pair {
  Mutex mu;
  CondVar cv;
  int arrived APSQ_GUARDED_BY(mu) = 0;
  u64 generation APSQ_GUARDED_BY(mu) = 0;
  i64 decided APSQ_GUARDED_BY(mu) = -1;  ///< cold index of the current round, -1 = stop
  i64 rounds APSQ_GUARDED_BY(mu) = 0;    ///< cold rounds sent
  bool broken APSQ_GUARDED_BY(mu) = false;
};

/// Both clients arrive; the second decides for both: the next cold index,
/// or -1 when the window is over and enough cold rounds ran.
i64 rendezvous(Pair& p, const std::atomic<bool>& stop, i64 min_rounds) {
  MutexLock lk(p.mu);
  if (p.broken) return -1;
  const u64 gen = p.generation;
  if (++p.arrived == 2) {
    p.decided = stop.load() && p.rounds >= min_rounds ? -1 : p.rounds;
    if (p.decided >= 0) ++p.rounds;
    p.arrived = 0;
    ++p.generation;
    p.cv.notify_all();
    return p.decided;
  }
  while (p.generation == gen && !p.broken) p.cv.wait(p.mu);
  return p.broken ? -1 : p.decided;
}

void break_pair(Pair& p) {
  MutexLock lk(p.mu);
  p.broken = true;
  p.cv.notify_all();
}

struct ColdResponse {
  i64 index = 0;
  Response r;
};

/// What the clients of one window collected.
struct Window {
  Mutex mu;  ///< clients append under it; read after the clients are joined
  std::vector<double> warm_ms, cold_ms, all_ms, transport_ms, server_warm_ms;
  std::map<int, Response> first_warm;  ///< first response per warm variant
  std::vector<ColdResponse> colds;
  i64 attempted = 0, failed = 0;
  i64 rows_answered = 0;
  std::vector<std::string> errors;
  i64 pool_runs_min = -1, pool_runs_max = 0, pool_steals_min = -1, pool_steals_max = 0;

  void note_pool(const Response& r) {
    if (pool_runs_min < 0 || r.pool_runs < pool_runs_min) pool_runs_min = r.pool_runs;
    if (pool_steals_min < 0 || r.pool_steals < pool_steals_min) pool_steals_min = r.pool_steals;
    pool_runs_max = std::max(pool_runs_max, r.pool_runs);
    pool_steals_max = std::max(pool_steals_max, r.pool_steals);
  }
};

struct ClientPlan {
  /// Cold round k is due `k * cold_period_ms` into the window, so a window
  /// writes the same number of cold searches however fast the daemon is
  /// (the store and the daemon's memory grow by the same amount).
  double cold_period_ms = 1000;
  i64 min_rounds = 4;  ///< cold rounds a window always completes
};

/// One closed-loop client: warm requests, and — with a pair — the cold
/// write of each round once the round is due.
void client_loop(int c, int clients, int port, const Traffic& t, const ClientPlan& plan,
                 double start_ms, const std::atomic<bool>& stop, Pair* pair, Window& w) {
  std::unique_ptr<Conn> conn;
  const int v = static_cast<int>(t.warm.size());
  int next_warm = c * v / clients;
  auto send = [&](const std::string& line, Response& r) -> bool {
    const double t0 = wall_ms();
    try {
      if (!conn) conn = std::make_unique<Conn>(port);
      r.line = conn->round_trip(line);
    } catch (const std::exception& e) {
      conn.reset();
      MutexLock lk(w.mu);
      ++w.attempted;
      ++w.failed;
      w.errors.push_back(std::string("client: ") + e.what());
      return false;
    }
    r.client_ms = wall_ms() - t0;
    parse_response(r);
    MutexLock lk(w.mu);
    ++w.attempted;
    if (!r.ok) {
      ++w.failed;
      w.errors.push_back("bad response: " + r.line.substr(0, 300));
      return false;
    }
    w.all_ms.push_back(r.client_ms);
    w.rows_answered += r.store_hits + r.fresh + r.coalesced;
    w.note_pool(r);
    return true;
  };
  auto warm_once = [&] {
    const int variant = next_warm++ % v;
    Response r;
    if (!send(t.warm[static_cast<size_t>(variant)], r)) return;
    MutexLock lk(w.mu);
    w.warm_ms.push_back(r.client_ms);
    w.server_warm_ms.push_back(r.wall_ms);
    w.transport_ms.push_back(r.client_ms - r.wall_ms);
    if (!w.first_warm.count(variant)) w.first_warm[variant] = r;
  };
  try {
    while (pair == nullptr && !stop.load()) warm_once();
    for (i64 round = 0; pair != nullptr; ++round) {
      const double due = start_ms + static_cast<double>(round) * plan.cold_period_ms;
      while (!stop.load() && wall_ms() < due) warm_once();
      const i64 j = rendezvous(*pair, stop, plan.min_rounds);
      if (j < 0) break;
      Response r;
      if (!send(t.cold(j), r)) continue;
      MutexLock lk(w.mu);
      w.cold_ms.push_back(r.client_ms);
      w.colds.push_back({j, r});
    }
  } catch (const std::exception& e) {
    MutexLock lk(w.mu);
    w.errors.push_back(std::string("client aborted: ") + e.what());
    ++w.failed;
  }
  if (pair != nullptr) break_pair(*pair);
}

/// One closed-loop window of `seconds` (longer if the minimum cold
/// rounds have not completed). Returns the window's wall time in s.
double run_window(const RunArgs& a, int port, const Traffic& t, const ClientPlan& plan,
                  double seconds, i64 first_round, Window& w) {
  // Clients 0 and 1 are the cold pair; the rest only read. One cold
  // stream at a time keeps the contention a cold write meets the same
  // from round to round.
  const int clients = std::max(2, a.width);
  Pair pair;
  {
    MutexLock lk(pair.mu);
    pair.rounds = first_round;
  }
  std::atomic<bool> stop{false};
  ClientPlan window_plan = plan;
  window_plan.min_rounds = first_round + plan.min_rounds;
  const double t0 = wall_ms();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back(client_loop, c, clients, port, std::cref(t), std::cref(window_plan),
                         t0, std::cref(stop), c < 2 ? &pair : nullptr, std::ref(w));
  while (wall_ms() - t0 < seconds * 1e3) usleep(2000);
  stop = true;
  for (std::thread& th : threads) th.join();
  return (wall_ms() - t0) / 1e3;
}

void report_window(const Window& w, double window_s, Report& r) {
  // The daemon's op is the warm re-slice; cold writes have cold_ms.
  const Dist warm = summarize(w.warm_ms);
  r.dist("warm_ms", warm, true);
  r.dist("op_ms", warm, true);
  const Dist cold = summarize(w.cold_ms);
  r.dist("cold_ms", cold, false);
  r.metric("cold_ms_p50", cold.p50, "ms");
  r.metric("queries_per_s", static_cast<double>(w.all_ms.size()) / window_s, "1/s");
  r.metric("points_per_s", static_cast<double>(w.rows_answered) / window_s, "1/s");
}

// ----------------------------------------------------------------- checks

/// Warm fronts vs an in-process SweepSession over the same snapshot; cold
/// writes vs their own leader/follower accounting and in-process reruns.
void check_window(const Traffic& t, const std::string& snapshot, const Window& w,
                  int rerun_colds, Report& r, Tally* tally, Report* layers) {
  EvalStore store;
  store.load_file(snapshot);
  for (const auto& [variant, resp] : w.first_warm) {
    const std::string& line = t.warm[static_cast<size_t>(variant)];
    const RequestSpec req = spec_of(line);
    SweepSession s(req.config, &store);
    const SweepOutcome out = s.run();
    const std::string rows = render_front(out.front, req.top);
    const std::string tag = "warm variant w" + std::to_string(variant);
    r.check(out.fresh_evaluations == 0, tag + ": in-process session evaluated points");
    r.check(resp.fresh == 0, tag + ": daemon evaluated points on a warm query");
    r.check(front_segment(resp.line) == rows,
            tag + ": daemon front differs from the in-process SweepSession");
    r.check(int_field(resp.line, "front_size") == static_cast<i64>(out.front.size()) &&
                int_field(resp.line, "global_front_size") ==
                    static_cast<i64>(out.global_front_size),
            tag + ": front sizes differ from the in-process SweepSession");
  }

  // Cold writes: per index exactly one leader (fresh == points), every
  // other copy answered from its batch or the store with 0 fresh.
  std::map<i64, std::vector<const Response*>> by_index;
  for (const ColdResponse& cr : w.colds) by_index[cr.index].push_back(&cr.r);
  i64 fresh_sum = 0, unique_points = 0;
  for (const auto& [j, resps] : by_index) {
    int leaders = 0;
    for (const Response* x : resps) {
      fresh_sum += x->fresh;
      if (x->fresh > 0) {
        ++leaders;
        r.check(x->fresh == x->points, "cold c" + std::to_string(j) + ": fresh != points");
      } else {
        r.check(x->coalesced + x->store_hits == x->points,
                "cold c" + std::to_string(j) + ": follower rows != points");
      }
    }
    r.check(leaders == 1, "cold c" + std::to_string(j) + ": " + std::to_string(leaders) +
                              " leaders (expected 1)");
    unique_points += resps.front()->points;
  }
  r.check(fresh_sum == unique_points,
          "summed fresh_evaluations " + std::to_string(fresh_sum) +
              " != unique cold points " + std::to_string(unique_points));

  // In-process reruns of the first cold searches: same points, same front.
  int rerun = 0;
  for (const auto& [j, resps] : by_index) {
    if (rerun++ >= rerun_colds) break;
    const RequestSpec req = spec_of(t.cold(j));
    EvalStore fresh_store;
    const double cpu0 = process_cpu_ms();
    const double t0 = wall_ms();
    SweepSession s(req.config, &fresh_store);
    const SweepOutcome out = s.run();
    const double t1 = wall_ms();
    const double cpu1 = process_cpu_ms();
    const std::string tag = "cold c" + std::to_string(j);
    r.check(static_cast<i64>(out.results.size()) == resps.front()->points,
            tag + ": daemon points differ from the in-process search");
    const std::string rows = render_front(out.front, kColdTop);
    for (const Response* x : resps)
      r.check(front_segment(x->line) == rows,
              tag + ": daemon front differs from the in-process search");
    if (tally != nullptr && tally->ops == 0) {
      tally->ops = 1;
      tally->op_cpu += cpu1 - cpu0;
      tally->op_wall += t1 - t0;
      for (const auto& [name, cs] : tt_stats(s.evaluator())) tally->tt[name] = cs;
      replay(req.config, s, out, *tally);
      // The rows the daemon merged, for the merge_rows replay.
      const auto entry = fresh_store.find(config_space_hash(s.space()), req.config.scoring_key());
      if (entry != nullptr && layers != nullptr) {
        EvalStore target;
        target.load_file(snapshot);
        const double m0 = wall_ms();
        target.merge_rows(entry->space_hash, entry->scoring, entry->backend,
                          entry->space_points, entry->results);
        layers->metric("dse.store.merge_rows_ms", wall_ms() - m0, "ms");
      }
    }
  }
}

/// One connection sends every warm variant once, in order, outside the
/// timed windows: the deterministic pass the exact counters and the
/// per-variant counters rest on.
void coverage_pass(int port, const Traffic& t, Window& w) {
  Conn c(port);
  for (size_t k = 0; k < t.warm.size(); ++k) {
    Response r;
    const double t0 = wall_ms();
    r.line = c.round_trip(t.warm[k]);
    r.client_ms = wall_ms() - t0;
    parse_response(r);
    ++w.attempted;
    if (!r.ok) {
      ++w.failed;
      w.errors.push_back("bad response: " + r.line.substr(0, 300));
      continue;
    }
    w.all_ms.push_back(r.client_ms);
    w.first_warm[static_cast<int>(k)] = r;
  }
}

/// Exact counters over the deterministic part of the traffic: the
/// coverage pass and the first cold rounds of the window.
void count_window(const Window& coverage, const Window& w, i64 counted_colds, Report& r) {
  auto& c = r.counters;
  for (const auto& [variant, resp] : coverage.first_warm) {
    c["warm.store_hits"] += resp.store_hits;
    c["warm.points"] += resp.points;
    c["warm.front_rows"] += int_field(resp.line, "front_size");
    c["warm.fresh"] += resp.fresh;
  }
  std::map<i64, std::vector<const Response*>> by_index;
  for (const ColdResponse& cr : w.colds) by_index[cr.index].push_back(&cr.r);
  for (const auto& [j, resps] : by_index) {
    if (j >= counted_colds) break;
    c["cold.searches"] += 1;
    c["cold.responses"] += static_cast<i64>(resps.size());
    for (const Response* x : resps) {
      c["cold.points"] += x->points;
      c["cold.fresh"] += x->fresh;
      c["cold.follower_rows"] += x->coalesced + x->store_hits;
    }
  }
}

/// Per-layer store / json / serve metrics, from in-process calls on the
/// same snapshot and request lines, plus the window's server counters.
void store_and_serve_layers(const RunArgs& a, const Traffic& t, const std::string& snapshot,
                            const Window& coverage, const Window& w, i64 counted_colds,
                            Report& r) {
  const std::string text = read_file(snapshot);
  r.metric("dse.store.bytes", static_cast<double>(text.size()), "bytes");
  std::vector<double> load, parse;
  for (int k = 0; k < 3; ++k) {
    EvalStore s;
    double t0 = wall_ms();
    s.load_file(snapshot);
    load.push_back(wall_ms() - t0);
    t0 = wall_ms();
    const JsonValue doc = json_parse(text);
    parse.push_back(wall_ms() - t0);
  }
  r.metric("dse.store.load_ms", median(load), "ms");
  r.metric("common.json.parse_ms", median(parse), "ms");

  EvalStore store;
  store.load_file(snapshot);
  std::vector<double> find_ms, front_ms, req_us;
  for (const std::string& line : t.warm) {
    double t0 = wall_ms();
    size_t members = 0;
    for (int k = 0; k < 20; ++k) members += json_parse(line).members().size();
    req_us.push_back((wall_ms() - t0) * 1e3 / 20);
    if (members == 0) r.fail("empty request line " + line);
    const RequestSpec req = spec_of(line);
    const std::string hash = config_space_hash(req.config.make_space());
    const std::string scoring = req.config.scoring_key();
    t0 = wall_ms();
    std::shared_ptr<const EvalStore::Entry> e;
    for (int k = 0; k < 100; ++k) e = store.find(hash, scoring);
    find_ms.push_back((wall_ms() - t0) / 100);
    if (e == nullptr) {
      r.fail("snapshot has no entry for warm variant " + line);
      continue;
    }
    std::vector<EvalResult> rows;
    for (const auto& [i, row] : e->results) rows.push_back(row);
    const std::vector<Constraint> cs = parse_constraints(req.config.where);
    t0 = wall_ms();
    const std::vector<EvalResult> front = extract_front(req.config, cs, rows);
    front_ms.push_back(wall_ms() - t0);
  }
  r.metric("dse.store.find_ms", median(find_ms), "ms");
  r.metric("dse.pareto.front_ms", median(front_ms), "ms");
  r.metric("common.json.request_parse_us", median(req_us), "us");

  double t0 = wall_ms();
  store.save_file(a.workdir + "/save.json");
  r.metric("dse.store.save_ms", wall_ms() - t0, "ms");

  serve::Dispatcher dispatcher(store);
  std::vector<double> handle_ms;
  for (int round = 0; round < 3; ++round)
    for (const std::string& line : t.warm) {
      t0 = wall_ms();
      const serve::LineResult lr = serve::handle_request_line(dispatcher, line);
      handle_ms.push_back(wall_ms() - t0);
      if (!lr.ok) r.fail("in-process handle_request_line failed: " + lr.response);
    }
  r.metric("serve.protocol.handle_ms_p50", median(handle_ms), "ms");
  r.metric("serve.server.transport_ms_p50", median(w.transport_ms), "ms");
  r.metric("serve.dispatcher.query_ms_p50", median(w.server_warm_ms), "ms");

  i64 hits = 0, fresh = 0, coalesced = 0, batches = 0;
  for (const auto& [variant, resp] : coverage.first_warm) {
    hits += resp.store_hits;
    fresh += resp.fresh;
    coalesced += resp.coalesced;
    batches += resp.batches;
  }
  i64 cold_fresh = 0, cold_coalesced = 0;
  for (const ColdResponse& cr : w.colds) {
    if (cr.index >= counted_colds) continue;
    hits += cr.r.store_hits;
    fresh += cr.r.fresh;
    coalesced += cr.r.coalesced;
    batches += cr.r.batches;
    cold_fresh += cr.r.fresh;
    cold_coalesced += cr.r.coalesced;
  }
  r.metric("serve.dispatcher.store_hits", static_cast<double>(hits), "count");
  r.metric("serve.dispatcher.fresh_evaluations", static_cast<double>(fresh), "count");
  r.metric("serve.dispatcher.coalesced", static_cast<double>(coalesced), "count");
  r.metric("serve.dispatcher.eval_batches", static_cast<double>(batches), "count");
  r.metric("serve.dispatcher.coalesce_ratio",
           cold_fresh + cold_coalesced > 0
               ? static_cast<double>(cold_coalesced) /
                     static_cast<double>(cold_fresh + cold_coalesced)
               : 0.0,
           "ratio");
  r.metric("dse.store.rows_read", static_cast<double>(hits + coalesced), "count");
  r.metric("dse.store.rows_written", static_cast<double>(cold_fresh), "count");
}

}  // namespace

void run_daemon_mixed(const RunArgs& a, Report& r) {
  mkdir(a.workdir.c_str(), 0755);
  const Traffic t = make_traffic(a.seed);
  ClientPlan plan;
  plan.min_rounds = a.smoke ? 1 : 4;
  const i64 counted_colds = plan.min_rounds;

  // The preloaded snapshot: every identity swept in-process through the
  // same RequestSpec the warm requests use, so the scoring keys match.
  const std::string snapshot = a.workdir + "/snapshot.json";
  {
    EvalStore store;
    for (const std::string& id : t.identities) {
      SweepSession s(spec_of("{" + id + "}").config, &store);
      s.run();
    }
    if (!store.save_file(snapshot)) throw std::runtime_error("cannot write " + snapshot);
    r.counters["snapshot.entries"] = static_cast<i64>(store.entry_count());
    r.counters["snapshot.rows"] = store.result_count();
  }
  r.counters["snapshot.bytes"] = static_cast<i64>(read_file(snapshot).size());

  // Set-up: spawn until the first ping is answered with the snapshot
  // loaded, several times; the last daemon stays up for the load.
  const int starts = a.smoke ? 2 : 13;
  std::vector<double> setup;
  Daemon d;
  for (int k = 0; k < starts; ++k) {
    if (k > 0) {
      const int rc = stop_daemon(d);
      r.check(rc == 0, "daemon exited " + std::to_string(rc) + " on shutdown");
    }
    setup.push_back(start_daemon(a, snapshot, k, d));
  }
  r.metric("setup_s", median(setup), "s");
  r.info["setup.samples"] = std::to_string(setup.size());

  Window coverage;
  coverage_pass(d.port, t, coverage);
  r.check(coverage.first_warm.size() == t.warm.size(), "not every warm variant was answered");

  // Untimed warm-up traffic: the daemon's allocator, page cache and pool
  // settle before the window (its responses are still checked below).
  Window warmup;
  if (!a.smoke) {
    ClientPlan one_round = plan;
    one_round.min_rounds = 1;
    run_window(a, d.port, t, one_round, 2.0, kWarmupRoundOffset, warmup);
  }

  const double cpu0 = other_process_cpu_ms(d.child.pid());
  Window plain;
  const double plain_s = run_window(a, d.port, t, plan, a.trace ? a.seconds / 2 : a.seconds,
                                    0, plain);
  const double cpu1 = other_process_cpu_ms(d.child.pid());
  Window traced;
  double traced_s = 0.0;
  if (a.trace)
    traced_s = run_window(a, d.port, t, plan, a.seconds / 2,
                          kTracedRoundOffset, traced);

  // A repeat of a cold query answers from the store with 0 fresh.
  Response repeat;
  {
    Conn c(d.port);
    repeat.line = c.round_trip(t.cold(0));
    parse_response(repeat);
  }
  r.check(repeat.ok && repeat.fresh == 0 && repeat.store_hits == repeat.points,
          "repeated cold query was not answered from the store");
  std::string stats_line;
  {
    Conn c(d.port);
    stats_line = c.round_trip("{\"cmd\": \"stats\"}");
  }
  const double rss = peak_rss_mb(d.child.pid());
  const int rc = stop_daemon(d);
  r.check(rc == 0, "daemon exited " + std::to_string(rc) + " on shutdown");

  i64 fresh_total = 0, queries = 1;
  for (const Window* w : {&coverage, &warmup, &plain, &traced}) {
    for (const ColdResponse& cr : w->colds) fresh_total += cr.r.fresh;
    queries += static_cast<i64>(w->all_ms.size());
  }
  r.check(int_field(stats_line, "fresh_evaluations") == fresh_total,
          "cmd=stats fresh_evaluations differs from the summed responses");
  r.check(int_field(stats_line, "requests") == queries,
          "cmd=stats requests differs from the answered queries");

  for (const Window* w : {&coverage, &warmup, &plain, &traced}) {
    r.attempted += w->attempted;
    r.failed += w->failed;
    for (size_t i = 0; i < w->errors.size() && i < 5; ++i) r.fail(w->errors[i]);
  }
  r.attempted += 1;

  report_window(plain, plain_s, r);
  r.metric("peak_rss_mb", rss, "MB");
  count_window(coverage, plain, counted_colds, r);
  Tally tally;
  Report layers;
  zero_per_layer(layers);
  check_window(t, snapshot, plain, a.smoke ? 1 : 2, r, a.trace ? &tally : nullptr, &layers);
  check_window(t, snapshot, warmup, 0, r, nullptr, nullptr);
  check_window(t, snapshot, coverage, 0, r, nullptr, nullptr);
  if (!a.trace) return;

  check_window(t, snapshot, traced, 0, r, nullptr, nullptr);
  Report traced_e2e;
  report_window(traced, traced_s, traced_e2e);
  note_trace_overhead(r, traced_e2e);
  // Scoring layers: the first cold search, replayed in-process.
  report_tally(tally, a.width, layers);
  // The daemon's own pool over the plain window.
  layers.metric("common.thread_pool.runs",
                static_cast<double>(plain.pool_runs_max - plain.pool_runs_min), "count");
  layers.metric("common.thread_pool.steals",
                static_cast<double>(plain.pool_steals_max - plain.pool_steals_min), "count");
  layers.metric("common.thread_pool.parallel_efficiency",
                (cpu1 - cpu0) / (plain_s * 1e3 * a.width), "ratio");
  store_and_serve_layers(a, t, snapshot, coverage, plain, counted_colds, layers);
  kernel_rows(layers);
  r.metrics = layers.metrics;
  for (const std::string& f : layers.failures) r.fail(f);
}

}  // namespace perfbench
