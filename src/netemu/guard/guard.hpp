#pragma once
// netemu::guard — the query executor's admission gate (docs/GUARD.md).
//
// Five cooperating pieces, always on:
//
//  * a count cap, checked first: at most max_queue admitted flights queued
//    or running, whatever they cost;
//  * cost-model admission: the executor admits estimated work units
//    (guard/cost.hpp), not query count, so one huge estimate and one
//    closed-form lookup stop being "equal" at the admission gate;
//  * per-client isolation: every query carries a client identity (the
//    "client" wire field, stamped per connection peer when absent); each
//    client gets a token bucket (average-rate cap with burst debt) and a
//    fair-share cap on in-flight cost, and a client shed while it holds
//    work is held off for that shed's retry hint (the executor answers
//    what it asks meanwhile when the hold ends; kAnonymousClient is never
//    held), so a flood from one client sheds that client, not everybody;
//  * adaptive concurrency: an AIMD controller resizes the effective cost
//    limit between a floor and a ceiling from how long admitted flights
//    wait for a worker — p95 above target multiplies the limit down, p95
//    at/below target adds a fixed increment back;
//  * brownout: above a pressure threshold, and only while other work is
//    pending, estimate queries are served with a reduced trial sweep,
//    marked "degraded":true and never cached, before the guard ever sheds
//    them.
//
// The Guard itself is a decision box and the one owner of the admission
// tallies (pending flights, pending cost, the drain-rate retry hint and
// pressure): the executor asks admit() before a flight is created and
// releases each admitted flight exactly once, when it leaves the flight map
// — complete() after its compute, release() when it never ran or the
// watchdog gave up on it.  It takes its own lock and may be called under
// the executor's.  Its counts live only in the netemu_guard_* metrics of
// the registry it is given (its executor's).

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "netemu/scope/metrics.hpp"
#include "netemu/service/query.hpp"
#include "netemu/util/json.hpp"

namespace netemu::guard {

/// Backlog drain-rate estimator: an EWMA of "milliseconds of wall time the
/// executor needs to retire one cost unit", fed by completed computes.
/// Turns the shed retry_after_ms hint from a constant into
/// backlog x drain-time, clamped.  Not internally synchronized — the owner
/// (the Guard) calls it under its own mutex.
class DrainRate {
 public:
  /// Record one completed flight: `busy_ms` wall time for `cost` units,
  /// drained by `workers` parallel workers.
  void note(double busy_ms, std::uint64_t cost, std::size_t workers);

  /// Dynamic backoff hint for a backlog of `backlog_units`: how long until
  /// the backlog has drained at the observed rate, clamped to
  /// [fallback/4, 10000] ms.  Returns `fallback_ms` unchanged until the
  /// first sample exists — a fresh executor keeps its configured constant
  /// (tests pin it), only a warmed-up one earns a dynamic hint.
  std::uint64_t hint_ms(double backlog_units, std::uint64_t fallback_ms) const;

  bool has_samples() const { return samples_ > 0; }
  double ms_per_unit() const { return ms_per_unit_; }

 private:
  double ms_per_unit_ = 0.0;
  std::uint64_t samples_ = 0;
};

/// The identity of a query that names no client (an in-process caller; the
/// daemon stamps every connection's peer).  Callers that share it are not
/// one client, so it is never held off after a shed.
inline constexpr const char* kAnonymousClient = "anon";

struct Options {
  /// Admission budget in cost units (guard/cost.hpp).  0 derives
  /// 8 x max_queue from the executor's options — eight closed-form units
  /// per queue slot.
  std::uint64_t cost_budget = 0;

  /// One client's in-flight cost may not exceed this fraction of the
  /// effective limit while other work is pending (fair-share isolation).
  double client_share = 0.5;

  /// Per-client token bucket: average admission rate in units/second, with
  /// a depth of two seconds of refill.  0 disables rate limiting.  A query
  /// costing more than the remaining tokens is admitted into debt (the
  /// bucket floor is minus the depth), so a huge estimate is paid off over
  /// time instead of being unservable.
  double rate_units_per_s = 0.0;

  /// Bounded client map: least-recently-seen idle clients are evicted past
  /// this many (their bucket state resets — acceptable for strangers).
  std::size_t max_clients = 1024;

  /// AIMD adaptive concurrency.  `adaptive` is the kill switch: off pins
  /// the effective limit to cost_budget.
  bool adaptive = true;
  double target_p95_ms = 250.0;        ///< queue-wait target

  /// Brownout: while other work is pending and the cost pressure is past
  /// 0.75, estimate queries run a reduced sweep instead of their full
  /// trials.
  bool brownout = true;

  /// Test hook: monotonic milliseconds.  Unset = steady_clock.
  std::function<std::uint64_t()> clock_ms;
};

class Guard {
 public:
  struct Decision {
    bool admit = true;
    bool brownout = false;     ///< serve a reduced-quality answer
    bool held = false;         ///< asked during a hold: answer the shed
                               ///< once the hold ends, in retry_after_ms
    unsigned trials = 0;       ///< reduced trial count when brownout
    std::string reason;        ///< shed reason when !admit
    /// Backoff hint on every shed: the token-refill time for a rate-limit
    /// shed, the backlog's drain-rate estimate for the others.
    std::uint64_t retry_after_ms = 0;
  };

  /// Registers the netemu_guard_* metrics in `metrics` (its executor's
  /// registry).  Not owned; must outlive the guard.
  ///
  /// `max_flights` is the count cap (the executor's max_queue): admitted
  /// flights queued or running.  `workers` drain the backlog in parallel,
  /// and `retry_after_ms` is the shed hint until the first drain-rate
  /// sample.
  Guard(Options options, scope::Registry& metrics, std::size_t max_flights,
        std::size_t workers, std::uint64_t retry_after_ms);

  /// Admission decision for one query about to become a flight leader.
  /// On admit one flight and its cost are charged (pending flights and
  /// cost, client bucket + share); the caller MUST pair it with exactly one
  /// complete() or release().
  Decision admit(const std::string& client, const Query& q,
                 std::uint64_t cost);

  /// A charged flight's compute finished (any outcome): un-charge it and
  /// tick the AIMD controller when its adjust interval has elapsed.
  /// `full_ms` >= 0 is the wall time of a full answer, a drain-rate sample.
  /// `wait_ms` >= 0 is how long the flight waited for a worker after
  /// admission, the controller's sample: the limit can shorten that wait,
  /// not a compute, and sheds and cache hits never reach here to dilute it.
  void complete(const std::string& client, std::uint64_t cost,
                double full_ms = -1.0, double wait_ms = -1.0);

  /// A charged flight left without a result (drain shed of a queued task,
  /// pool rejection, watchdog abandonment): un-charge without feeding the
  /// controller.
  void release(const std::string& client, std::uint64_t cost);

  /// The one admission pressure: the larger of pending flights over the
  /// count cap and pending cost over the effective limit.  >= 1.0 means
  /// the gate is effectively closed; the health report exposes it for
  /// fleet routing.
  double pressure() const;

  /// Admitted flights not yet completed or released.
  std::size_t pending_flights() const;
  std::uint64_t pending_cost() const;
  std::uint64_t effective_limit() const;
  std::size_t clients_tracked() const;

  /// Health-report block: enabled, limit, pending, pressure, and the
  /// netemu_guard_* counters under their health field names.
  Json to_json() const;

  const Options& options() const { return options_; }

 private:
  struct ClientState {
    double tokens = 0.0;
    std::uint64_t last_refill_ms = 0;
    std::uint64_t in_flight_cost = 0;
    std::uint64_t last_seen_ms = 0;
    std::uint64_t hold_until_ms = 0;  ///< shed at once until then
  };

  std::uint64_t now_ms() const;
  ClientState& client_state_locked(const std::string& client,
                                   std::uint64_t now);
  void uncharge_locked(const std::string& client, std::uint64_t cost);
  double pressure_locked() const;
  void refill_locked(ClientState& c, std::uint64_t now) const;
  void maybe_adjust_locked(std::uint64_t now);
  void evict_idle_locked(std::uint64_t now);

  // The netemu_guard_* metrics, registered in the executor's registry.
  struct Meters {
    scope::Registry& r;
    scope::Counter& admitted =
        r.counter("netemu_guard_admitted_total", "Queries the guard admitted");
    scope::Counter& shed_backlog = r.counter(
        "netemu_guard_budget_full_total",
        "Queries shed because the admitted cost budget was full");
    scope::Counter& shed_share = r.counter(
        "netemu_guard_share_exceeded_total",
        "Queries shed because the client exceeded its fair-share cost cap "
        "or was held off after a shed");
    scope::Counter& shed_rate = r.counter(
        "netemu_guard_rate_limited_total",
        "Queries shed because the client's token bucket was empty");
    scope::Counter& brownouts = r.counter(
        "netemu_guard_brownouts_total",
        "Estimate queries admitted with a reduced trial sweep under pressure");
    scope::Counter& limit_increases =
        r.counter("netemu_guard_limit_increases_total",
                  "AIMD additive increases of the cost limit");
    scope::Counter& limit_decreases =
        r.counter("netemu_guard_limit_decreases_total",
                  "AIMD multiplicative decreases of the cost limit");
    scope::Gauge& limit =
        r.gauge("netemu_guard_cost_limit",
                "AIMD-effective admission cost limit, in cost units");
    scope::Gauge& pressure =
        r.gauge("netemu_guard_pressure",
                "Admission pressure: the larger of pending flights over "
                "max_queue and pending cost over the effective limit (>= 1 = "
                "gate closed)");
  };

  Options options_;
  const std::size_t max_flights_;
  const std::size_t workers_;
  const std::uint64_t retry_after_ms_;
  const double burst_units_;  ///< token-bucket depth
  const Meters m_;
  const std::chrono::steady_clock::time_point started_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, ClientState> clients_;
  std::size_t flights_ = 0;
  std::uint64_t pending_cost_ = 0;
  DrainRate drain_;  ///< feeds the non-rate sheds' retry_after_ms
  double limit_ = 0.0;  ///< AIMD-effective cost limit
  std::uint64_t last_adjust_ms_ = 0;
  scope::Histogram::Snapshot window_;  ///< queue-wait ms since the last vote
};

}  // namespace netemu::guard
