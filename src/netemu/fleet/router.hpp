#pragma once
// FleetRouter: the replicated front door over N netemu_serve backends.
//
//   race(doc)
//     ├─ route: rendezvous-rank the backends on the query's content
//     │         address — the same key the result caches use, so every
//     │         backend sees a stable shard of the key space and its cache
//     │         stays hot (free affinity, no rebalancing on membership
//     │         change)
//     ├─ health: skip backends whose circuit breaker is open; a half-open
//     │          backend gets exactly one in-flight probe; a backend whose
//     │          probed guard pressure is at/above the sink threshold moves
//     │          to the back of the order (prefer lower-pressure peers)
//     ├─ failover: a refused connect, dropped connection, or shed response
//     │            moves to the next hash choice — safe because every query
//     │            op is idempotent (content-addressed results)
//     └─ hedging (optional): if the primary has not answered by the hedge
//        deadline (fixed, or a percentile of the router's own
//        netemu_fleet_request_us histogram), a timer fires the same
//        request at the next choice; the first answer wins and the loser
//        gets a {"op":"cancel"} verb — tail latency from one slow/stalled
//        backend stops being the fleet's tail
//
// A race is non-blocking: it runs on a Reactor — the Server shard that
// framed the client's line, or a loop a blocking caller drives — over
// that reactor's pooled non-blocking backend connections (ExchangePool),
// and its callback runs there when the backend's line arrives.  Each
// attempt at one backend is one exchange: client.max_attempts socket
// attempts with jittered backoff, attempt_timeout_ms and the request's
// deadline_ms budget, all reactor timers.  The blocking entry points
// (request, cancel_at) run the same race on a loop of their own and
// return when it is done; they must not be called from a shard.
//
// A background probe thread keeps health fresh: it sends {"op":"health"} to
// closed backends (liveness) and to half-open ones (recovery probes), so an
// ejected backend rejoins without waiting for live traffic to test it.
//
// Thread-safe: any number of shards and threads may race concurrently.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "netemu/fleet/health.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/reactor.hpp"
#include "netemu/util/json.hpp"

namespace netemu {

/// One backend's address.  `id` is its rendezvous identity; leave empty to
/// derive "127.0.0.1:<port>" (stable across restarts of the same port).
struct FleetBackendConfig {
  std::uint16_t port = 0;
  std::string id;
};

class FleetRouter {
 public:
  struct Options {
    std::vector<FleetBackendConfig> backends;
    BackendHealth::Options health;
    /// Per-exchange policy: max_attempts socket attempts at one backend,
    /// their backoff, attempt_timeout_ms.  retry_overloaded is forced
    /// off: a shed must surface immediately so the router can fail it
    /// over instead of waiting out the backend's own backoff hint.
    Client::RetryPolicy client;
    /// Probe thread period; 0 disables background probing.
    std::uint64_t probe_interval_ms = 200;
    /// Hedged requests: fire a second attempt when the primary is slower
    /// than the hedge deadline.
    bool hedge = false;
    /// Fixed hedge deadline; 0 = adaptive: this percentile of the
    /// router's lifetime netemu_fleet_request_us histogram.
    std::uint64_t hedge_fixed_ms = 0;
    double hedge_percentile = 0.95;
    std::uint64_t hedge_min_delay_ms = 2;
    std::uint64_t hedge_max_delay_ms = 1000;
    /// Adaptive hedging stays off until this many latency samples exist.
    std::size_t hedge_min_samples = 16;
    /// Idle connections kept per backend on each reactor (each Server
    /// shard and each blocking caller's loop has its own pool).
    std::size_t pool_per_backend = 8;
    /// Overload-aware routing: a backend whose last health probe reported
    /// guard pressure at or above this sinks to the back of its rendezvous
    /// order (still tried — affinity loses to overload, not to liveness).
    /// 0 disables the preference.
    double pressure_sink_threshold = 0.9;
  };

  struct Result {
    bool ok = false;   ///< a response document arrived (check doc["ok"])
    Json doc;          ///< the backend's response document (when ok)
    std::string error; ///< why no backend answered (when !ok)
    std::size_t backend = static_cast<std::size_t>(-1);  ///< responder index
    int backends_tried = 0;
    bool hedged = false;     ///< a hedge was fired for this request
    bool hedge_won = false;  ///< ... and the hedge answered first
    bool cancel_fired = false;  ///< hedge loser sent {"op":"cancel"}
  };

  explicit FleetRouter(Options options);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  using Done = std::function<void(Result)>;

  /// Race one request document on `reactor`; `done` runs there once with
  /// the result.  `key` is its route key (route_key()).
  ///
  /// Observability: when the document carries a "trace" field, the whole
  /// residency is recorded as a `fleet.route` span (note: responder + tries)
  /// and any hedge as a `fleet.hedge` span (note: won | lost) in this
  /// process's scope::TraceStore; every breaker transition and hedge
  /// outcome additionally lands in the scope flight recorder.
  void race(Reactor& reactor, Json request_doc, std::uint64_t key,
            std::optional<std::size_t> exclude_backend, Done done);

  /// Blocking wrapper of race(): route one request document and wait for
  /// its response.
  Result request(const Json& request_doc);

  /// request(), skipping one backend entirely (the scatterer's straggler
  /// retry must land somewhere OTHER than the backend presumed stuck).
  Result request(const Json& request_doc,
                 std::optional<std::size_t> exclude_backend);

  /// The route key: a query's content address (the key backends cache
  /// on), or for other ops (stats, health, ...) a hash of their dump.
  /// Pass the already-canonicalized query when there is one.
  static std::uint64_t route_key(const Json& request_doc,
                                 const std::optional<Query>& query);
  static std::uint64_t route_key(const Json& request_doc);

  /// Rendezvous rank of every backend for this document's content address
  /// (exposed for tests and the `fleet` op).
  std::vector<std::size_t> rank_for(const Json& request_doc) const;

  /// {"op":"cancel","trace":...} at one backend, sent on `reactor` and
  /// not waited for — the hedge-loser cancel and the scatterer's
  /// cancel-on-satisfied (docs/SCATTER.md).  No-op on an out-of-range
  /// index or zero id.
  void cancel_at(Reactor& reactor, std::size_t index, std::uint64_t trace_id);
  /// Blocking wrapper: returns once the verb is written.
  void cancel_at(std::size_t index, std::uint64_t trace_id);

  /// Backends currently worth scattering over: circuit breaker closed and
  /// (when the sink threshold is armed) probed guard pressure below it.
  /// The scatterer caps its fan-out here so sub-queries never pile onto
  /// sunk or ejected backends.
  std::size_t available_backends() const;

  /// Send one document to EVERY backend at once (ignoring breaker state —
  /// this is an admin fan-out for `trace`/`stats` merging, not a routed
  /// query) and collect the responses that arrived, in backend order.
  struct BroadcastReply {
    std::size_t backend = 0;
    Json doc;
  };
  void broadcast(Reactor& reactor, const Json& request_doc,
                 std::function<void(std::vector<BroadcastReply>)> done);

  /// Run `start(loop, finish)` on a loop this thread drives (one of the
  /// router's, with its own connection pool), until `finish` has been
  /// called and every request line started on the loop is written.  The
  /// blocking entry points are all built on it.
  void drive(
      const std::function<void(Reactor& loop, std::function<void()> finish)>&
          start);

  struct BackendStats {
    std::string id;
    std::uint16_t port = 0;
    BackendHealth::State state = BackendHealth::State::kClosed;
    double window_failure_rate = 0.0;
    std::uint64_t requests = 0;   ///< exchanges started at this backend
    std::uint64_t responses = 0;  ///< exchanges that returned a document
    std::uint64_t shed = 0;       ///< responses that were overload sheds
    std::uint64_t refused = 0;    ///< connect-refused failures
    std::uint64_t transport_failures = 0;  ///< drops/timeouts (incl. refused)
    std::uint64_t probes = 0;     ///< background health probes sent
    std::uint64_t ejections = 0;  ///< breaker open transitions
    /// Admission pressure from the last health probe (0 until one
    /// answers).
    double pressure = 0.0;
  };
  /// Read-only snapshot for the `fleet` op: the router-level counts come
  /// from metrics(), the per-backend ones from the breaker-locked fields.
  struct Stats {
    std::uint64_t requests = 0;    ///< races started
    std::uint64_t answered = 0;    ///< ... that returned a document
    std::uint64_t unanswered = 0;  ///< ... that exhausted every backend
    std::uint64_t failovers = 0;   ///< extra backends tried beyond the first
    std::uint64_t hedges_fired = 0;
    std::uint64_t hedges_won = 0;
    /// {"op":"cancel"} verbs fired at hedge losers the moment the winner's
    /// answer arrived (reclaims the loser's compute; see docs/LIFECYCLE.md).
    std::uint64_t cancels_fired = 0;
    std::vector<BackendStats> backends;
  };
  Stats stats() const;

  /// Races and broadcasts in flight (the fleet daemon's drain polls this
  /// until in-flight proxied work has landed).
  std::size_t inflight() const;

  /// Stop the probe thread; called by the destructor.
  void stop();

  const Options& options() const { return options_; }

  /// This router's metrics (docs/SCOPE.md): the netemu_fleet_* counters,
  /// the latency histogram adaptive hedging reads, and the
  /// netemu_scatter_* counters of any Scatterer over this router.
  scope::Registry& metrics() { return metrics_; }

 private:
  struct Backend {
    FleetBackendConfig config;
    BackendHealth health;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t shed = 0;
    std::uint64_t refused = 0;
    std::uint64_t transport_failures = 0;
    std::uint64_t probes = 0;
    /// Guard pressure parsed from the last health-probe response.
    double pressure = 0.0;
    /// Last breaker state seen by note_breaker_locked (event de-dup).
    BackendHealth::State last_state = BackendHealth::State::kClosed;
  };
  struct Lane;
  struct Race;

  std::uint64_t now_ms() const;
  /// This router's connection pool on `reactor`.
  Lane& lane(Reactor& reactor);
  /// One exchange at backend `index` with the breaker bookkeeping around
  /// it: counted at the start, its outcome recorded at the end.
  void exchange(Reactor& reactor, std::size_t index, std::string line,
                std::uint64_t budget_ms, std::uint64_t trace_id,
                std::function<void(Client::RequestOutcome)> done);
  void record_attempt_locked(Backend& b, const Client::RequestOutcome& a,
                             std::uint64_t now, std::uint64_t trace_id);
  /// Emit a flight-recorder kBreaker event if `b`'s breaker state changed
  /// since last observed.  Caller holds mutex_.
  void note_breaker_locked(Backend& b, std::uint64_t now,
                           std::uint64_t trace_id) const;
  /// Next allowed candidate in `order` strictly after position `pos`
  /// (reserves a half-open probe slot); nullopt when none.
  std::optional<std::size_t> next_allowed(
      const std::vector<std::size_t>& order, std::size_t& pos);
  std::optional<std::uint64_t> hedge_delay_ms() const;
  void probe_loop();

  // This router's metrics, registered in metrics_ at construction.
  struct Meters {
    scope::Registry& r;
    scope::Counter& requests =
        r.counter("netemu_fleet_requests_total", "Requests routed by the fleet");
    scope::Counter& answered = r.counter("netemu_fleet_answered_total",
                                         "Routed requests a backend answered");
    scope::Counter& unanswered = r.counter(
        "netemu_fleet_unanswered_total", "Routed requests no backend answered");
    scope::Counter& failovers =
        r.counter("netemu_fleet_failovers_total",
                  "Backends tried beyond the first, per request");
    scope::Counter& hedges_fired = r.counter(
        "netemu_fleet_hedges_fired_total", "Hedge attempts fired by the fleet");
    scope::Counter& hedges_won = r.counter(
        "netemu_fleet_hedges_won_total", "Hedge attempts that answered first");
    scope::Counter& cancels_fired = r.counter(
        "netemu_fleet_cancels_fired_total",
        "Cancel verbs fired at hedge losers and satisfied scatter twins");
    scope::Counter& breaker_transitions =
        r.counter("netemu_fleet_breaker_transitions_total",
                  "Circuit-breaker state transitions observed by the fleet");
    scope::Gauge& backend_connections =
        r.gauge("netemu_fleet_backend_connections",
                "Backend connections open across the fleet's reactors");
    scope::Histogram& request_us = r.histogram(
        "netemu_fleet_request_us",
        "Wall time of answered, non-shed routed requests (the adaptive hedge "
        "delay is a quantile of it)");
  };

  Options options_;
  scope::Registry metrics_;
  const Meters m_;
  std::vector<std::string> ids_;  // rendezvous identities, by index
  const std::chrono::steady_clock::time_point started_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::size_t active_ = 0;  ///< races and broadcasts in flight
  /// Loops of the blocking entry points, idle between calls (each keeps its
  /// connection pool); as many as there were concurrent callers.
  std::vector<std::unique_ptr<Reactor>> idle_loops_;

  bool stopping_ = false;
  std::condition_variable probe_cv_;
  std::thread probe_thread_;
};

/// Serialize router stats into a JSON document (the `fleet` op's result).
Json fleet_stats_to_json(const FleetRouter::Stats& stats);

}  // namespace netemu
