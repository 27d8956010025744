// Request dispatcher — the daemon's core: one shared EvalStore, one
// shared worker pool, many concurrent front queries.
//
// A query is a RequestSpec (the same validated object a CLI invocation
// or a --jobs experiment deserializes into). The dispatcher answers it
// through the same functions a SweepSession does — store lookup under
// (space hash, scoring key), then dse::answer_from_store (the size and
// per-row canonical-key guards, the partial-mixed and sparse-search
// rules), batched evaluation of the misses, and front extraction through
// dse::extract_front — so a warm query never evaluates and every front is
// byte-identical to batch mode.
//
// What SweepSession doesn't have is the miss-coalescing layer: when
// several in-flight requests miss the store under the same scoring
// identity, their missing points are pooled and ONE evaluate_points call
// (through the process-wide shared pool) answers all of them. Per
// (space hash, scoring key) the dispatcher keeps a coalescing group — a
// pending set, an in-flight set, and a done map under one mutex. A
// request registers the misses nobody else has claimed, then either
// becomes the group's leader (evaluating everything pending in one
// batch) or waits for the results to be fanned back out. Two concurrent
// cold queries over overlapping slices therefore trigger exactly one
// evaluation of the shared points, and the summed fresh_evaluations
// across responses equals the number of unique cold points.
//
// Budgeted searches (mode=search) coalesce whole rather than
// point-wise: a search's scoring key pins (strategy, budget, seed,
// objective plane), so its sparse result set is the complete
// deterministic answer. The first cold query under the key becomes the
// search leader, runs the SearchDriver once, and merges the rows into
// the store; every concurrent and later query answers from that
// snapshot with zero fresh evaluations.
//
// Thread safety: query() is fully re-entrant — the store is internally
// synchronized, group state is guarded by the group's mutex, and the
// per-group Evaluator is only ever driven by the group's current leader.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "dse/request.hpp"

namespace apsq::dse {
class EvalStore;
}

namespace apsq::serve {

/// Telemetry of one answered query — the observability counters every
/// daemon response carries.
struct QueryStats {
  index_t store_hits = 0;  ///< points answered straight from the store
  /// Points this request evaluated as a coalescing-group leader. Summed
  /// across concurrent responses this equals the number of unique cold
  /// points — the miss-coalescing invariant.
  index_t fresh_evaluations = 0;
  /// Miss points answered by a batch another request led.
  index_t coalesced = 0;
  i64 eval_batches = 0;  ///< batches this request led (0 or 1 normally)
  double wall_ms = 0.0;
  int pool_threads = 0;
  i64 pool_runs = 0;
  i64 pool_steals = 0;
};

/// One answered query.
struct QueryResult {
  /// The scored points in enumeration order — what a "csv" output
  /// serializes. For a sweep that is every point of the space (store rows
  /// merged with fresh evaluations); for a budgeted search it is the
  /// sparse set of points the search evaluated, ascending by index.
  std::vector<dse::EvalResult> results;
  /// The per-workload front, truncated to the request's `top` (0 = all).
  std::vector<dse::EvalResult> front;
  size_t front_size = 0;         ///< untruncated per-workload front size
  size_t global_front_size = 0;  ///< cross-workload front size
  /// The FULL front as results_csv text — byte-identical to what a
  /// SweepSession running the same config would report (the daemon's
  /// correctness target, and what a front_csv output writes).
  std::string front_csv;
  QueryStats stats;
};

class Dispatcher {
 public:
  /// The store is the caller's (the daemon loads/saves it); the
  /// dispatcher only reads entries and records fresh sweeps back.
  explicit Dispatcher(dse::EvalStore& store);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Answer one request. Throws std::invalid_argument with the exact
  /// SweepConfig::validate() / parse_constraints message on an
  /// inconsistent config, and std::runtime_error on store-consistency
  /// failures (hash collisions, stale snapshots) — the same messages the
  /// batch path raises. Safe to call from any number of threads.
  QueryResult query(const dse::RequestSpec& req);

  /// The shared store (for the stats command and daemon save-on-exit).
  dse::EvalStore& store() { return store_; }

  /// Process-lifetime totals (across every request served).
  i64 total_requests() const { return total_requests_.load(); }
  i64 total_fresh_evaluations() const { return total_fresh_.load(); }
  i64 total_eval_batches() const { return total_batches_.load(); }

  /// Requests currently inside query() that have registered their misses
  /// with a coalescing group and not yet returned. Test hook: lets a
  /// concurrency test hold the leader until every racing request has
  /// joined the group.
  int inflight_requests() const { return inflight_.load(); }

  /// Test hook, called by a group leader after taking leadership and
  /// BEFORE freezing the batch (so a test can park the leader until
  /// other requests have registered their misses). Set once, before
  /// serving traffic; never called under a lock.
  void set_batch_hook(std::function<void()> hook) {
    batch_hook_ = std::move(hook);
  }

 private:
  struct Group;

  /// The coalescing group for (space hash, scoring key), created on
  /// first use with an Evaluator built from `req`'s options.
  Group& group_for(const std::string& hash, const std::string& scoring,
                   const dse::RequestSpec& req) APSQ_EXCLUDES(mu_);

  dse::EvalStore& store_;
  mutable Mutex mu_;
  /// key = space_hash + '\n' + scoring. Groups are never destroyed while
  /// the dispatcher lives (pointers handed out stay valid).
  std::map<std::string, std::unique_ptr<Group>> groups_ APSQ_GUARDED_BY(mu_);
  std::function<void()> batch_hook_;
  std::atomic<i64> total_requests_{0};
  std::atomic<i64> total_fresh_{0};
  std::atomic<i64> total_batches_{0};
  std::atomic<int> inflight_{0};
};

}  // namespace apsq::serve
