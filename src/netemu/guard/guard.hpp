#pragma once
// netemu::guard — overload protection for the query service.
//
// Four cooperating pieces (docs/GUARD.md):
//
//  * cost-model admission: the executor admits estimated work units
//    (guard/cost.hpp), not query count, so one huge estimate and one
//    closed-form lookup stop being "equal" at the admission gate;
//  * per-client isolation: every query carries a client identity (the
//    "client" wire field, stamped per connection peer when absent); each
//    client gets a token bucket (average-rate cap with burst debt) and a
//    fair-share cap on in-flight cost, so a flood from one client sheds
//    that client, not everybody;
//  * adaptive concurrency: an AIMD controller resizes the effective cost
//    limit between a floor and a ceiling from its executor's
//    netemu_execute_us histogram (scope) — p95 above target multiplies the
//    limit down, p95 at/below target adds a fixed increment back;
//  * brownout: above a pressure threshold, estimate queries are served with
//    a reduced trial sweep, marked "degraded":true and never cached, before
//    the guard ever sheds them.
//
// The Guard itself is a decision box: the executor asks admit() before a
// flight is created, reports complete() when one finishes, and reads
// pressure()/to_json() for the health report.  It takes its own lock and
// may be called under the executor's.  Its counts live only in the
// netemu_guard_* metrics of the registry it is given (its executor's).

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
/// (the executor) calls it under its own mutex.
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

struct Options {
  /// Master switch.  Off: the executor keeps its plain max_queue counter
  /// and none of the per-client machinery runs (library default, so
  /// embedded executors and existing tests keep seed behavior).
  bool enabled = false;

  /// Admission budget in cost units (guard/cost.hpp).  0 derives
  /// 8 x max_queue from the executor's options — eight closed-form units
  /// per legacy queue slot.
  std::uint64_t cost_budget = 0;

  /// One client's in-flight cost may not exceed this fraction of the
  /// effective limit while other work is pending (fair-share isolation).
  double client_share = 0.5;

  /// Per-client token bucket: average admission rate in units/second.
  /// 0 disables rate limiting.  A query costing more than the remaining
  /// tokens is admitted into debt (the bucket floor is -burst), so a huge
  /// estimate is paid off over time instead of being unservable.
  double rate_units_per_s = 0.0;
  /// Bucket depth; 0 = two seconds of refill.
  double rate_burst_units = 0.0;

  /// Bounded client map: least-recently-seen idle clients are evicted past
  /// this many (their bucket state resets — acceptable for strangers).
  std::size_t max_clients = 1024;

  /// AIMD adaptive concurrency.  `adaptive` is the kill switch: off pins
  /// the effective limit to cost_budget.
  bool adaptive = true;
  double target_p95_ms = 250.0;        ///< execute-latency target
  std::uint64_t adjust_interval_ms = 100;
  std::uint64_t adjust_min_samples = 8;  ///< skip adjust on thinner windows
  double decrease_factor = 0.7;        ///< multiplicative decrease
  double increase_fraction = 0.05;     ///< additive increase, x cost_budget
  double limit_floor = 0.125;          ///< x cost_budget
  double limit_ceiling = 2.0;          ///< x cost_budget

  /// Brownout: above this pressure (pending cost / effective limit),
  /// estimate queries run a reduced sweep instead of their full trials.
  bool brownout = true;
  double brownout_pressure = 0.75;
  double brownout_keep = 0.25;         ///< fraction of trials kept
  unsigned brownout_min_trials = 1;

  /// Test hook: monotonic milliseconds.  Unset = steady_clock.
  std::function<std::uint64_t()> clock_ms;
};

class Guard {
 public:
  struct Decision {
    bool admit = true;
    bool brownout = false;     ///< serve a reduced-quality answer
    unsigned trials = 0;       ///< reduced trial count when brownout
    std::string reason;        ///< shed reason when !admit
    /// Rate-limit sheds carry a token-refill hint; other sheds leave 0 and
    /// the executor computes a drain-rate hint instead.
    std::uint64_t retry_after_ms = 0;
  };

  /// Registers the netemu_guard_* metrics in `metrics` (its executor's
  /// registry) and feeds the AIMD controller from that registry's
  /// netemu_execute_us histogram, the residency of every request the
  /// executor answers.  Not owned; must outlive the guard.
  Guard(Options options, scope::Registry& metrics);

  /// Admission decision for one query about to become a flight leader.
  /// On admit the cost is charged (pending cost, client bucket + share);
  /// the caller MUST pair it with complete() or release().
  Decision admit(const std::string& client, const Query& q,
                 std::uint64_t cost);

  /// A charged flight finished (any outcome).  Also ticks the AIMD
  /// controller when its adjust interval has elapsed.
  void complete(const std::string& client, std::uint64_t cost);

  /// A charged flight was dropped without running (drain shed of a queued
  /// task, pool rejection): un-charge without feeding the controller.
  void release(const std::string& client, std::uint64_t cost);

  /// Pending admitted cost / effective limit.  >= 1.0 means the gate is
  /// effectively closed; the health report exposes it for fleet routing.
  double pressure() const;

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
  };

  std::uint64_t now_ms() const;
  ClientState& client_state_locked(const std::string& client,
                                   std::uint64_t now);
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
        "Queries shed because the client exceeded its fair-share cost cap");
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
    scope::Gauge& pressure = r.gauge(
        "netemu_guard_pressure",
        "Pending admitted cost over the effective limit (>= 1 = gate closed)");
    const scope::Histogram& execute_us = r.histogram("netemu_execute_us");
  };

  Options options_;
  const Meters m_;
  const std::chrono::steady_clock::time_point started_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, ClientState> clients_;
  std::uint64_t pending_cost_ = 0;
  double limit_ = 0.0;  ///< AIMD-effective cost limit
  std::uint64_t last_adjust_ms_ = 0;
  scope::Histogram::Snapshot last_snapshot_;
  bool have_snapshot_ = false;
};

}  // namespace netemu::guard
