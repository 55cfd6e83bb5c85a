#pragma once
// The request executor: the concurrency heart of the service.
//
//   execute(query, done)
//     ├─ cache hit  ──────────────────────────────► done(answer), inline
//     ├─ identical query already in flight ───────► join it (single-flight)
//     ├─ draining ────────────────────────────────► done(shed): "overloaded:
//     │                                             draining", no hint
//     ├─ guard::Guard::admit refuses (count cap, ─► done(shed): "overloaded"
//     │  rate, cost budget, fair share)             + retry_after_ms hint;
//     │                                             a held client's when
//     │                                             its hold ends
//     └─ otherwise: run plan_query() on the pool through the fair
//        scheduler, store the result under its content address, and call
//        every waiter's done on the worker that publishes it.
//
// No thread ever blocks waiting for a flight: a waiter is a callback with a
// deadline, and the watchdog thread fires deadlines, hang limits and the
// ends of holds from one timer queue.
//
// Single-flight matters because the expensive queries are the memoizable
// ones: a thundering herd of identical `estimate` requests triggers exactly
// one packet simulation; the rest join the flight and share its result.
// Waiters honor a per-query deadline — a timed-out waiter gets an error
// response, but the computation still completes and still fills the cache.
//
// Resilience (netemu::faultline integration):
//  * a watchdog thread cancels flights older than hang_timeout_ms — waiters
//    get a "hung" error, the guard's charge is released immediately, AND the
//    flight's CancelSource fires so a cooperative compute unwinds within one
//    check quantum instead of burning a pool worker until completion;
//  * cooperative cancellation end-to-end (docs/LIFECYCLE.md): every flight
//    owns a CancelSource armed with the leader's deadline; compute stopped
//    mid-sweep surfaces completed trials as a degraded partial result (kept
//    out of the cache), watchdog abandonment / last-waiter deadline expiry /
//    cancel_trace (the {"op":"cancel"} verb) all convert to real compute
//    cancellation, and begin_drain() sheds new work while cancel_all()
//    reclaims what is still running;
//  * serve_stale_on_error: a recompute (refresh=true) that fails falls back
//    to the previous cached value, marked stale, instead of erroring;
//  * Options::faults routes worker stalls from a FaultInjector into the
//    compute path, so chaos tests exercise all of the above.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netemu/guard/fair_queue.hpp"
#include "netemu/guard/guard.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/thread_pool.hpp"

namespace netemu {

class FaultInjector;

struct Response {
  bool ok = false;
  bool cache_hit = false;
  bool stale = false;       ///< served from cache after a recompute failure
  bool overloaded = false;  ///< shed by admission control (when !ok)
  bool degraded = false;    ///< deadline-bounded partial result (when ok);
                            ///< never cached — a refresh recomputes in full
  std::string error;        ///< set when !ok
  std::string result;       ///< serialized result document (when ok)
  std::uint64_t key = 0;    ///< content address of the query
  std::uint64_t retry_after_ms = 0;  ///< backoff hint (when overloaded)
  double micros = 0.0;      ///< wall time inside execute()
  std::uint64_t trace_id = 0;  ///< scope trace id echoed back (0 = untraced)
};

class QueryExecutor {
 public:
  struct Options {
    std::size_t threads = 0;        ///< worker threads; 0 = hardware
    std::size_t max_queue = 64;     ///< max leader flights queued or
                                    ///< running (the guard's count cap)
    std::uint64_t default_deadline_ms = 30000;
    std::size_t cache_capacity = 4096;
    std::string cache_file;         ///< empty = memory-only cache
    bool load_cache = true;         ///< load cache_file on construction
    /// Write-ahead journal: fsync every put to `<cache_file>.wal` so a
    /// SIGKILL'd process rejoins warm (see ResultCache).  Needs cache_file.
    bool cache_journal = false;
    /// Flights older than this are cancelled by the watchdog (waiters get
    /// an error, the guard's charge is released).  0 disables only this
    /// cancellation; waiter deadlines always fire.
    std::uint64_t hang_timeout_ms = 0;
    /// Backoff hint attached to shed ("overloaded") responses.  Used as-is
    /// until the executor has completed at least one compute; after that the
    /// hint scales with backlog depth x observed drain rate (clamped),
    /// so a deep backlog tells clients to wait longer than a shallow one.
    std::uint64_t retry_after_hint_ms = 50;
    /// When a forced recompute fails, serve the previous cached value
    /// (marked stale) instead of the error.
    bool serve_stale_on_error = true;
    /// Fault injector for chaos testing (worker stalls + cache disk
    /// faults).  Not owned; must outlive the executor.  nullptr disables.
    FaultInjector* faults = nullptr;
    /// Compute function; defaults to plan_query with the executor's own
    /// pool passed down (estimate trials then run concurrently).  Tests
    /// inject counters and slow functions here.  The token is the flight's:
    /// armed with the leader's deadline, fired by the watchdog / the last
    /// departing waiter / cancel_trace / cancel_all.  Compute that honors
    /// it either throws CancelledError or returns a document with
    /// "degraded": true (see plan_query); compute that ignores it merely
    /// keeps the pre-cancellation behavior.
    std::function<Json(const Query&, const CancelToken&)> compute;
    /// The admission gate (netemu::guard), always on: the max_queue count
    /// cap, cost-model admission, per-client token buckets + fair-share
    /// caps, AIMD limit and brownout, with DRR dispatch to the pool.  With
    /// cost_budget == 0 the budget derives as 8 x max_queue cost units.
    guard::Options guard;
  };

  QueryExecutor();  // all-default Options
  explicit QueryExecutor(Options options);
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Answer `q` through `done`, exactly once: when the answer is
  /// available, the deadline (plus a grace of clamp(deadline/8, 10, 250) ms)
  /// passes, the watchdog cancels the flight, or the request is shed (a
  /// client the guard holds off gets its shed when the hold ends).  Never
  /// blocks, and never calls `done` under an executor lock; `done` may run
  /// inline, on a pool worker or on the watchdog thread.
  void execute(const Query& q, std::function<void(Response)> done);

  /// Blocking wrapper over the callback form (tests, one-shot tools).
  Response execute(const Query& q);

  /// Non-blocking fast path: answer `q` only if it is a plain cache hit
  /// (never for refresh=true).  A hit is accounted exactly as execute()
  /// would account it (request + cache-hit counters, spans, latency
  /// histogram); a miss touches no counters and returns nullopt — the
  /// caller then routes the query through execute().  Takes no executor
  /// lock; safe to call concurrently from event-loop shards.
  std::optional<Response> try_cached(const Query& q);

  /// This executor's metrics: every request, shed and compute it answers
  /// and every guard decision is counted once, here and nowhere else
  /// (docs/SCOPE.md).  The `stats` op renders it beside
  /// scope::Registry::global().
  scope::Registry& metrics() { return metrics_; }

  /// Read-only snapshot of the counters in metrics(), under the `stats`
  /// op's field names.
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t computed = 0;        ///< computes that produced an answer
    std::uint64_t dedup_joins = 0;     ///< requests that joined a flight
    std::uint64_t rejected = 0;        ///< shed (admission, drain, shutdown)
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t errors = 0;          ///< compute failures
    std::uint64_t hung = 0;            ///< flights cancelled by the watchdog
    std::uint64_t stale_served = 0;    ///< recompute failures served stale
    std::uint64_t cancelled = 0;       ///< computes stopped by cooperative
                                       ///< cancellation (degraded partials
                                       ///< included)
    std::uint64_t browned_out = 0;     ///< estimates admitted with a reduced
                                       ///< sweep by the guard's brownout
  };
  Stats stats() const;

  /// Fire the CancelSource of the flight carrying this trace id (the
  /// {"op":"cancel"} verb; hedge losers are cancelled this way).  Declined
  /// when the flight has more than one waiter — a dedup-joined flight is
  /// serving other clients.  Returns whether a cancellation was requested.
  bool cancel_trace(std::uint64_t trace_id);

  /// Fire every registered flight's CancelSource (drain).  Returns how many
  /// flights were signalled.
  std::size_t cancel_all();

  /// Enter drain mode: new queries that would start a flight are shed with
  /// an "overloaded" draining error (so fleet front doors fail over), cache
  /// hits and joins of already-running flights still serve.  Irreversible.
  void begin_drain();
  bool draining() const;

  /// Lifetime compute-time distribution (cache hits and shed requests
  /// excluded), read from this executor's netemu_compute_us histogram —
  /// bounded relative error (~4.5%), no sample window, no lock on the
  /// record path.
  struct ComputeTimes {
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t samples = 0;  ///< lifetime computed-query count
  };
  ComputeTimes compute_times() const;

  /// Leader flights queued or running (the guard's flight count).
  std::size_t pending() const;
  /// Flights currently registered (single-flight map size).
  std::size_t active_flights() const;
  /// Seconds since construction (for the health report).
  double uptime_seconds() const;

  const Options& options() const { return options_; }

  /// The admission gate; never null.
  const guard::Guard* overload_guard() const { return &guard_; }
  /// Admission pressure (Guard::pressure): >= 1.0 means the gate is
  /// effectively closed.
  double pressure() const { return guard_.pressure(); }

  ResultCache& cache() { return cache_; }
  ThreadPool& pool() { return pool_; }
  /// Persist the cache to its file (no-op without one).
  bool save_cache() { return cache_.save(); }

 private:
  using Clock = std::chrono::steady_clock;
  struct Flight;

  /// One request waiting for a flight: its callback and its deadline.
  struct Waiter {
    std::function<void(Response)> done;
    Clock::time_point start;
    std::uint64_t start_us = 0;  // trace clock (executor.execute span)
    std::uint64_t key = 0;
    std::uint64_t tid = 0;
    std::uint64_t deadline_ms = 0;
  };
  using WaiterPtr = std::shared_ptr<Waiter>;

  /// Fired by the watchdog thread: a waiter's deadline (both set), a
  /// flight's hang limit (waiter null), or the end of a held client's hold
  /// (flight null: the waiter gets `shed`).
  struct Timer {
    std::shared_ptr<Flight> flight;
    WaiterPtr waiter;
    Response shed;
  };
  using Timers = std::multimap<Clock::time_point, Timer>;

  struct Flight {
    std::uint64_t key = 0;          // immutable after creation
    std::uint64_t trace_id = 0;     // leader's trace id (immutable)
    std::uint64_t cost = 0;         // admission cost units (immutable)
    std::string client;             // leader's client identity (immutable)
    // Deadline armed at creation (before the compute task exists); fired by
    // the watchdog, the last departing waiter, cancel_trace, or cancel_all.
    CancelSource cancel;
    // Guarded by the executor mutex_.  A waiter leaves this list exactly
    // once — whoever takes it out answers it.
    std::vector<std::pair<WaiterPtr, Timers::iterator>> waiters;
    std::optional<Timers::iterator> hang_timer;
  };

  void watchdog_loop();
  /// try_cached, given the query's content address and the time the
  /// request arrived.
  std::optional<Response> try_cached(const Query& q, std::uint64_t key,
                                     Clock::time_point start);
  /// Add a waiter to `flight`, its deadline armed.  Caller holds mutex_.
  /// True when that deadline is now the earliest timer: wake the watchdog.
  bool add_waiter_locked(const std::shared_ptr<Flight>& flight,
                         Waiter waiter);
  /// Take a flight out of the single-flight map (cancelling its hang timer)
  /// and move its waiters into `waiters` (cancelling their deadlines), for
  /// the caller to answer once it has dropped mutex_.  False when the
  /// flight was gone from the map already (the watchdog abandoned it): its
  /// guard charge was released then, and must not be released twice.
  bool retire_locked(const std::shared_ptr<Flight>& flight,
                     std::vector<WaiterPtr>& waiters);
  /// Complete one request: stamp the waiter's key / trace id / residency,
  /// observe netemu_execute_us, close the executor.execute span, call done.
  void answer(Waiter& waiter, Response response, const char* note = "");
  /// Answer a queued-but-never-started flight (drain shed, pool refusal):
  /// unregister it, release its guard charge, and publish an
  /// overloaded/draining response to its waiters.
  void shed_unstarted_flight(const std::shared_ptr<Flight>& flight);
  /// The compute task of a leader flight, run on a pool worker.
  void run_flight(const std::shared_ptr<Flight>& flight, const Query& q,
                  std::uint64_t submit_us, unsigned brownout_trials);

  // This executor's metrics, registered in metrics_ at construction and
  // recorded lock-free from any thread (docs/SCOPE.md has the catalog).
  struct Meters {
    scope::Registry& r;
    scope::Counter& requests =
        r.counter("netemu_requests_total", "Requests accepted by the executor");
    scope::Counter& cache_hits = r.counter(
        "netemu_cache_hits_total", "Requests answered from the result cache");
    scope::Counter& cache_misses = r.counter(
        "netemu_cache_misses_total",
        "Requests whose result-cache probe missed (refreshes skip the probe)");
    scope::Counter& computed = r.counter(
        "netemu_computed_total",
        "Computes that produced an answer (full, degraded or brownout)");
    scope::Counter& dedup_joins = r.counter(
        "netemu_dedup_joins_total",
        "Requests that joined an identical in-flight query");
    scope::Counter& shed = r.counter(
        "netemu_shed_total",
        "Requests shed by admission control, drain or shutdown");
    scope::Counter& deadline_exceeded = r.counter(
        "netemu_deadline_exceeded_total",
        "Requests whose deadline passed before their answer");
    scope::Counter& errors =
        r.counter("netemu_compute_errors_total",
                  "Computes that failed (stale fallbacks included)");
    scope::Counter& hung =
        r.counter("netemu_watchdog_cancellations_total",
                  "Hung flights cancelled by the executor watchdog");
    scope::Counter& stale_served = r.counter(
        "netemu_stale_served_total",
        "Failed recomputes answered with the previous cached value");
    scope::Counter& cancelled = r.counter(
        "netemu_compute_cancelled_total",
        "Computes stopped mid-way by cooperative cancellation (degraded "
        "partial results included)");
    scope::Counter& reclaimed_cpu_ms = r.counter(
        "netemu_compute_reclaimed_cpu_ms_total",
        "Estimated CPU milliseconds returned to the pool by cancelling "
        "compute instead of letting it finish");
    scope::Histogram& compute_us = r.histogram(
        "netemu_compute_us", "Planner compute wall time per computed query");
    scope::Histogram& execute_us = r.histogram(
        "netemu_execute_us",
        "Executor residency per request (hits, sheds, and computes alike)");
  };

  Options options_;
  // Declared before everything that records into it (the guard too).
  scope::Registry metrics_;
  const Meters m_;
  ResultCache cache_;
  const Clock::time_point started_ = Clock::now();
  // The workers, then the gate and the dispatch in front of them (both are
  // built from the pool).  The destructor sheds sched_'s queue and drains
  // the pool before any member is destroyed, so no task outlives what it
  // publishes into.
  ThreadPool pool_;
  guard::Guard guard_;
  guard::FairScheduler sched_;

  // Guards flights_ and every flight's waiters, timers_, draining_ and
  // watchdog_stop_.
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<Flight>> flights_;
  bool draining_ = false;

  // Waiter deadlines and hang limits, earliest first; the watchdog thread
  // sleeps until the first one.
  Timers timers_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;
  std::thread watchdog_;
};

}  // namespace netemu
