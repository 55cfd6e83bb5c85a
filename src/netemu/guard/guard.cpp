#include "netemu/guard/guard.hpp"

#include <algorithm>
#include <cmath>

namespace netemu::guard {

namespace {
// The guard's fixed dials (docs/GUARD.md, "Constants").
constexpr double kBurstSeconds = 2.0;       ///< bucket depth, s of refill
constexpr double kDecreaseFactor = 0.7;     ///< AIMD multiplicative decrease
constexpr double kIncreaseFraction = 0.05;  ///< AIMD additive step, x budget
constexpr double kLimitFloor = 0.125;       ///< x cost_budget
constexpr double kLimitCeiling = 2.0;       ///< x cost_budget
constexpr double kBrownoutPressure = 0.75;  ///< cost pressure that browns out
constexpr double kBrownoutKeep = 0.25;      ///< fraction of trials kept
constexpr unsigned kBrownoutMinTrials = 1;  ///< fewest trials kept
}  // namespace

void DrainRate::note(double busy_ms, std::uint64_t cost,
                     std::size_t workers) {
  if (busy_ms < 0.0 || cost == 0) return;
  // One flight's wall time covers `cost` units, and `workers` flights drain
  // in parallel: the backlog retires one unit every busy/(cost*workers) ms.
  const double per_unit =
      busy_ms / (static_cast<double>(cost) *
                 static_cast<double>(std::max<std::size_t>(1, workers)));
  constexpr double kAlpha = 0.2;
  ms_per_unit_ = samples_ == 0
                     ? per_unit
                     : (1.0 - kAlpha) * ms_per_unit_ + kAlpha * per_unit;
  ++samples_;
}

std::uint64_t DrainRate::hint_ms(double backlog_units,
                                 std::uint64_t fallback_ms) const {
  if (samples_ == 0) return fallback_ms;
  const double raw = std::max(0.0, backlog_units) * ms_per_unit_;
  // Floor at a quarter of the configured constant: an almost-empty backlog
  // still deserves a nonzero pause, or retries arrive before the dequeue.
  const double lo = std::max(1.0, static_cast<double>(fallback_ms) / 4.0);
  return static_cast<std::uint64_t>(std::clamp(raw, lo, 10000.0));
}

Guard::Guard(Options options, scope::Registry& metrics,
             std::size_t max_flights, std::size_t workers,
             std::uint64_t retry_after_ms)
    : options_(std::move(options)),
      max_flights_(max_flights),
      workers_(workers),
      retry_after_ms_(retry_after_ms),
      burst_units_(kBurstSeconds * options_.rate_units_per_s),
      m_{metrics},
      started_(std::chrono::steady_clock::now()) {
  if (options_.cost_budget == 0) options_.cost_budget = 512;
  options_.client_share = std::clamp(options_.client_share, 0.01, 1.0);
  limit_ = static_cast<double>(options_.cost_budget);
  m_.limit.set(limit_);
}

std::uint64_t Guard::now_ms() const {
  if (options_.clock_ms) return options_.clock_ms();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
}

void Guard::refill_locked(ClientState& c, std::uint64_t now) const {
  if (options_.rate_units_per_s <= 0.0) return;
  const double elapsed_s =
      static_cast<double>(now - c.last_refill_ms) / 1000.0;
  c.tokens = std::min(burst_units_,
                      c.tokens + elapsed_s * options_.rate_units_per_s);
  c.last_refill_ms = now;
}

Guard::ClientState& Guard::client_state_locked(const std::string& client,
                                               std::uint64_t now) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    if (clients_.size() >= options_.max_clients) evict_idle_locked(now);
    ClientState fresh;
    fresh.tokens = burst_units_;  // strangers start with credit
    fresh.last_refill_ms = now;
    it = clients_.emplace(client, fresh).first;
  }
  it->second.last_seen_ms = now;
  return it->second;
}

void Guard::evict_idle_locked(std::uint64_t now) {
  // Bounded map: drop the least-recently-seen client with nothing in
  // flight.  A returning evictee re-enters with a full bucket — acceptable
  // for a stranger, and the map can never grow without bound.
  auto victim = clients_.end();
  for (auto it = clients_.begin(); it != clients_.end(); ++it) {
    if (it->second.in_flight_cost > 0) continue;
    if (victim == clients_.end() ||
        it->second.last_seen_ms < victim->second.last_seen_ms) {
      victim = it;
    }
  }
  if (victim != clients_.end()) clients_.erase(victim);
  (void)now;
}

void Guard::maybe_adjust_locked(std::uint64_t now) {
  if (!options_.adaptive) return;
  // A thin window keeps collecting until it holds enough flights to vote.
  if (now - last_adjust_ms_ < options_.adjust_interval_ms ||
      window_.count < options_.adjust_min_samples) {
    return;
  }
  last_adjust_ms_ = now;
  const double p95_ms = window_.quantile(0.95);
  window_ = {};
  const double budget = static_cast<double>(options_.cost_budget);
  if (p95_ms > options_.target_p95_ms) {
    limit_ = std::max(kLimitFloor * budget, limit_ * kDecreaseFactor);
    m_.limit_decreases.inc();
  } else {
    limit_ = std::min(kLimitCeiling * budget,
                      limit_ + kIncreaseFraction * budget);
    m_.limit_increases.inc();
  }
  m_.limit.set(limit_);
}

Guard::Decision Guard::admit(const std::string& client, const Query& q,
                             std::uint64_t cost) {
  Decision d;
  std::lock_guard lock(mutex_);
  const auto shed = [&](const char* reason) {
    d.admit = false;
    d.reason = reason;
    // Every shed but a rate limit's: how long the admitted cost takes to
    // drain.
    d.retry_after_ms = drain_.hint_ms(static_cast<double>(pending_cost_),
                                      retry_after_ms_);
    return d;
  };

  // The count cap first: queued plus running flights, whatever they cost.
  if (flights_ >= max_flights_) return shed("admission queue full");

  const std::uint64_t now = now_ms();
  ClientState& c = client_state_locked(client, now);
  refill_locked(c, now);

  // Rate limit next: it holds even on an idle executor (an idle server is
  // exactly when a greedy client could otherwise burn the whole budget).
  if (options_.rate_units_per_s > 0.0 && c.tokens < 1.0) {
    m_.shed_rate.inc();
    d.admit = false;
    d.reason = "client rate limited";
    // Hint: time until one unit of credit exists again.
    d.retry_after_ms = static_cast<std::uint64_t>(std::clamp(
        (1.0 - c.tokens) / options_.rate_units_per_s * 1000.0, 1.0,
        10000.0));
    return d;
  }

  // A client shed while it held work waits out that shed's hint: asking
  // again from its other connections the moment budget frees would outrace
  // the clients that back off as told, and spin the shards on sheds.
  if (now < c.hold_until_ms) {
    m_.shed_share.inc();
    d.admit = false;
    d.held = true;
    d.reason = "client over fair share";
    d.retry_after_ms = c.hold_until_ms - now;
    return d;
  }
  const auto hold = [&](const char* reason) {
    shed(reason);
    if (c.in_flight_cost > 0) c.hold_until_ms = now + d.retry_after_ms;
    return d;
  };

  // Cost backlog and fair share.  An empty executor admits anything (the
  // biggest legal estimate must stay servable when nothing competes), and a
  // client's first in-flight query is never share-blocked for the same
  // reason.
  const bool others_pending = pending_cost_ > 0;
  if (others_pending && static_cast<double>(pending_cost_ + cost) > limit_) {
    m_.shed_backlog.inc();
    return hold("cost budget full");
  }
  const double share_cap = options_.client_share * limit_;
  if (c.in_flight_cost > 0 &&
      static_cast<double>(c.in_flight_cost + cost) > share_cap) {
    m_.shed_share.inc();
    return hold("client over fair share");
  }

  // Admitted: charge the bucket (possibly into debt — the floor is minus
  // the depth, so a huge estimate is paid off by future refills instead of
  // being unservable), the client's share and the backlog.
  if (options_.rate_units_per_s > 0.0) {
    c.tokens = std::max(-burst_units_, c.tokens - static_cast<double>(cost));
  }
  c.in_flight_cost += cost;
  ++flights_;
  pending_cost_ += cost;
  m_.admitted.inc();

  // Brownout: under sustained pressure, estimates keep answering — with a
  // reduced sweep, marked degraded, never cached — before anything sheds.
  // Only while other work is pending, the backlog check's own condition: a
  // lone request on an idle executor is served in full, however big.
  // Trial-range shards are exempt: shrinking a shard's sweep would change
  // which trials it covers and corrupt the scatter merge — under pressure a
  // shard either runs whole or sheds (docs/SCATTER.md).
  const double cost_pressure = static_cast<double>(pending_cost_) / limit_;
  if (options_.brownout && others_pending &&
      cost_pressure > kBrownoutPressure && q.kind == QueryKind::kEstimate &&
      !q.has_trial_range() && q.trials > kBrownoutMinTrials) {
    const auto kept = static_cast<unsigned>(
        std::ceil(static_cast<double>(q.trials) * kBrownoutKeep));
    d.trials = std::clamp(kept, kBrownoutMinTrials, q.trials - 1);
    d.brownout = true;
    m_.brownouts.inc();
  }
  m_.pressure.set(pressure_locked());
  return d;
}

void Guard::uncharge_locked(const std::string& client, std::uint64_t cost) {
  if (flights_ > 0) --flights_;
  pending_cost_ -= std::min(pending_cost_, cost);
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second.in_flight_cost -=
        std::min(it->second.in_flight_cost, cost);
  }
}

void Guard::complete(const std::string& client, std::uint64_t cost,
                     double full_ms, double wait_ms) {
  std::lock_guard lock(mutex_);
  uncharge_locked(client, cost);
  // Drain-rate sample: full answers only — a sweep that quit early or was
  // shortened by brownout would make the per-unit estimate optimistic.
  if (full_ms >= 0.0) drain_.note(full_ms, cost, workers_);
  if (wait_ms >= 0.0) {
    ++window_.buckets[scope::Histogram::bucket_of(wait_ms)];
    ++window_.count;
  }
  maybe_adjust_locked(now_ms());
  m_.pressure.set(pressure_locked());
}

void Guard::release(const std::string& client, std::uint64_t cost) {
  std::lock_guard lock(mutex_);
  uncharge_locked(client, cost);
  m_.pressure.set(pressure_locked());
}

double Guard::pressure_locked() const {
  // A zero count cap admits nothing: the gate is closed however idle.
  const double flights =
      max_flights_ == 0 ? 1.0
                        : static_cast<double>(flights_) /
                              static_cast<double>(max_flights_);
  return std::max(flights, static_cast<double>(pending_cost_) / limit_);
}

double Guard::pressure() const {
  std::lock_guard lock(mutex_);
  return pressure_locked();
}

std::size_t Guard::pending_flights() const {
  std::lock_guard lock(mutex_);
  return flights_;
}

std::uint64_t Guard::pending_cost() const {
  std::lock_guard lock(mutex_);
  return pending_cost_;
}

std::uint64_t Guard::effective_limit() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::uint64_t>(limit_);
}

std::size_t Guard::clients_tracked() const {
  std::lock_guard lock(mutex_);
  return clients_.size();
}

Json Guard::to_json() const {
  std::lock_guard lock(mutex_);
  Json doc = Json::object();
  doc["enabled"] = true;
  doc["cost_budget"] = options_.cost_budget;
  doc["limit"] = static_cast<std::uint64_t>(limit_);
  doc["pending_cost"] = pending_cost_;
  doc["pressure"] = pressure_locked();
  doc["adaptive"] = options_.adaptive;
  doc["clients"] = clients_.size();
  doc["admitted"] = m_.admitted.value();
  doc["shed_backlog"] = m_.shed_backlog.value();
  doc["shed_share"] = m_.shed_share.value();
  doc["shed_rate"] = m_.shed_rate.value();
  doc["brownouts"] = m_.brownouts.value();
  doc["limit_increases"] = m_.limit_increases.value();
  doc["limit_decreases"] = m_.limit_decreases.value();
  return doc;
}

}  // namespace netemu::guard
