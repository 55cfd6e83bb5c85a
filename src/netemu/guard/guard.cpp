#include "netemu/guard/guard.hpp"

#include <algorithm>
#include <cmath>

namespace netemu::guard {

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

Guard::Guard(Options options, scope::Registry& metrics)
    : options_(std::move(options)),
      m_{metrics},
      started_(std::chrono::steady_clock::now()) {
  if (options_.cost_budget == 0) options_.cost_budget = 512;
  if (options_.rate_units_per_s > 0.0 && options_.rate_burst_units <= 0.0) {
    options_.rate_burst_units = 2.0 * options_.rate_units_per_s;
  }
  options_.client_share = std::clamp(options_.client_share, 0.01, 1.0);
  options_.brownout_keep = std::clamp(options_.brownout_keep, 0.01, 1.0);
  options_.limit_floor = std::max(1e-3, options_.limit_floor);
  options_.limit_ceiling =
      std::max(options_.limit_floor, options_.limit_ceiling);
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
  c.tokens = std::min(options_.rate_burst_units,
                      c.tokens + elapsed_s * options_.rate_units_per_s);
  c.last_refill_ms = now;
}

Guard::ClientState& Guard::client_state_locked(const std::string& client,
                                               std::uint64_t now) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    if (clients_.size() >= options_.max_clients) evict_idle_locked(now);
    ClientState fresh;
    fresh.tokens = options_.rate_burst_units;  // strangers start with credit
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
  if (now - last_adjust_ms_ < options_.adjust_interval_ms) return;
  last_adjust_ms_ = now;

  const scope::Histogram::Snapshot cur = m_.execute_us.snapshot();
  if (!have_snapshot_) {
    last_snapshot_ = cur;
    have_snapshot_ = true;
    return;
  }
  // Delta snapshot: only the requests observed since the last adjustment
  // vote, so the controller reacts to the current latency regime instead of
  // the lifetime average.
  scope::Histogram::Snapshot delta;
  delta.count = cur.count - last_snapshot_.count;
  delta.sum = cur.sum - last_snapshot_.sum;
  for (std::size_t b = 0; b < scope::Histogram::kBuckets; ++b) {
    delta.buckets[b] = cur.buckets[b] - last_snapshot_.buckets[b];
  }
  last_snapshot_ = cur;
  if (delta.count < options_.adjust_min_samples) return;  // thin window

  const double p95_ms = delta.quantile(0.95) / 1000.0;  // hist is in us
  const double floor =
      options_.limit_floor * static_cast<double>(options_.cost_budget);
  const double ceiling =
      options_.limit_ceiling * static_cast<double>(options_.cost_budget);
  if (p95_ms > options_.target_p95_ms) {
    limit_ = std::max(floor, limit_ * options_.decrease_factor);
    m_.limit_decreases.inc();
  } else {
    limit_ = std::min(
        ceiling, limit_ + options_.increase_fraction *
                              static_cast<double>(options_.cost_budget));
    m_.limit_increases.inc();
  }
  m_.limit.set(limit_);
}

Guard::Decision Guard::admit(const std::string& client, const Query& q,
                             std::uint64_t cost) {
  Decision d;
  std::lock_guard lock(mutex_);
  const std::uint64_t now = now_ms();
  ClientState& c = client_state_locked(client, now);
  refill_locked(c, now);

  // Rate limit first: it holds even on an idle executor (an idle server is
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

  // Cost backlog and fair share.  An empty executor admits anything (the
  // biggest legal estimate must stay servable when nothing competes), and a
  // client's first in-flight query is never share-blocked for the same
  // reason.
  if (pending_cost_ > 0 &&
      static_cast<double>(pending_cost_ + cost) > limit_) {
    m_.shed_backlog.inc();
    d.admit = false;
    d.reason = "cost budget full";
    return d;  // retry hint: executor's drain-rate estimate
  }
  const double share_cap = options_.client_share * limit_;
  if (c.in_flight_cost > 0 &&
      static_cast<double>(c.in_flight_cost + cost) > share_cap) {
    m_.shed_share.inc();
    d.admit = false;
    d.reason = "client over fair share";
    return d;
  }

  // Admitted: charge the bucket (possibly into debt — the floor is -burst,
  // so a huge estimate is paid off by future refills instead of being
  // unservable) and the backlog.
  if (options_.rate_units_per_s > 0.0) {
    c.tokens = std::max(-options_.rate_burst_units,
                        c.tokens - static_cast<double>(cost));
  }
  c.in_flight_cost += cost;
  pending_cost_ += cost;
  m_.admitted.inc();

  // Brownout: under sustained pressure, estimates keep answering — with a
  // reduced sweep, marked degraded, never cached — before anything sheds.
  const double pressure = static_cast<double>(pending_cost_) / limit_;
  // Trial-range shards are exempt: shrinking a shard's sweep would change
  // which trials it covers and corrupt the scatter merge — under pressure a
  // shard either runs whole or sheds (docs/SCATTER.md).
  if (options_.brownout && pressure > options_.brownout_pressure &&
      q.kind == QueryKind::kEstimate && !q.has_trial_range() &&
      q.trials > options_.brownout_min_trials) {
    const auto kept = static_cast<unsigned>(std::ceil(
        static_cast<double>(q.trials) * options_.brownout_keep));
    d.trials = std::clamp(kept, options_.brownout_min_trials, q.trials - 1);
    d.brownout = true;
    m_.brownouts.inc();
  }
  m_.pressure.set(static_cast<double>(pending_cost_) / limit_);
  return d;
}

void Guard::complete(const std::string& client, std::uint64_t cost) {
  std::lock_guard lock(mutex_);
  pending_cost_ -= std::min(pending_cost_, cost);
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second.in_flight_cost -=
        std::min(it->second.in_flight_cost, cost);
  }
  const std::uint64_t now = now_ms();
  maybe_adjust_locked(now);
  m_.pressure.set(static_cast<double>(pending_cost_) / limit_);
}

void Guard::release(const std::string& client, std::uint64_t cost) {
  std::lock_guard lock(mutex_);
  pending_cost_ -= std::min(pending_cost_, cost);
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second.in_flight_cost -=
        std::min(it->second.in_flight_cost, cost);
  }
  m_.pressure.set(static_cast<double>(pending_cost_) / limit_);
}

double Guard::pressure() const {
  std::lock_guard lock(mutex_);
  return limit_ > 0.0 ? static_cast<double>(pending_cost_) / limit_ : 0.0;
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
  doc["pressure"] =
      limit_ > 0.0 ? static_cast<double>(pending_cost_) / limit_ : 0.0;
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
