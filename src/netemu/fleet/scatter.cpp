#include "netemu/fleet/scatter.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/util/hash.hpp"
#include "netemu/util/stats.hpp"

namespace netemu {

namespace {

constexpr std::size_t kNoBackend = static_cast<std::size_t>(-1);

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// One scattered request: its sub-queries are races on one reactor, and
// this is their scoreboard.  shared_ptr-owned by the races' callbacks and
// the straggler timer, because a losing twin attempt (original vs.
// straggler retry) can land after the merge.
struct Scatterer::Sweep : std::enable_shared_from_this<Sweep> {
  struct Sub {
    Json doc;                  ///< the sub-query document (owns its trace)
    std::uint64_t key = 0;     ///< its route key
    unsigned lo = 0, hi = 0;   ///< requested trial range [lo, hi)
    std::uint64_t trace_id = 0;
    std::uint64_t retry_trace_id = 0;
    std::size_t presumed = kNoBackend;        ///< rendezvous-first choice
    std::size_t retry_presumed = kNoBackend;  ///< retry's first choice
    bool retried = false;
    int attempts_outstanding = 0;
    bool done = false;  ///< an ok answer landed (first completion wins)
    bool ok = false;
    Json result;        ///< the answer's "result" document
    bool cache_hit = false;
    bool degraded = false;
    std::string error;
  };

  Sweep(Scatterer& owner, Reactor& on, const Query& query,
        std::function<void(std::string)> then)
      : sc(owner),
        reactor(on),
        tid(query.trace_id),
        trials(query.trials),
        key(query.cache_key()),
        scatter_span(query.trace_id, "fleet.scatter"),
        done(std::move(then)) {}
  // Torn down with its reactor before the merge: no span for it.
  ~Sweep() { scatter_span.cancel(); }

  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  void dispatch(std::size_t i, bool is_retry);
  void on_sub(std::size_t i, bool is_retry, FleetRouter::Result r);
  /// Once at least half the sub-queries have landed, (re)arm the straggler
  /// timer for the ones still outstanding.
  void arm_straggler_timer();
  void retry_stragglers();
  bool settled() const {
    return std::all_of(subs.begin(), subs.end(), [](const Sub& s) {
      return s.done || s.attempts_outstanding == 0;
    });
  }
  void finish();
  std::string merge();

  Scatterer& sc;
  Reactor& reactor;
  const std::uint64_t tid;
  const unsigned trials;
  const std::uint64_t key;  ///< the whole sweep's content address
  const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  scope::SpanTimer scatter_span;
  std::vector<Sub> subs;
  std::size_t done_count = 0;
  double max_done_latency_ms = 0.0;
  Reactor::Timer straggler;
  std::uint64_t retries_fired = 0;
  bool finished = false;  ///< merged and answered
  std::function<void(std::string)> done;
};

Scatterer::Scatterer(FleetRouter& router, Options options)
    : router_(router), options_(std::move(options)), m_{router.metrics()} {}

bool Scatterer::eligible(const Query& q) const {
  if (options_.min_trials == 0) return false;
  if (q.kind != QueryKind::kEstimate) return false;
  // An explicit trial range is already a shard — route it whole.
  if (q.trial_hi != 0) return false;
  if (q.trials < options_.min_trials) return false;
  const std::size_t ways =
      std::min<std::size_t>(std::min<std::size_t>(options_.max_ways, q.trials),
                            router_.available_backends());
  return ways >= 2;
}

void Scatterer::Sweep::dispatch(std::size_t i, bool is_retry) {
  Sub& sub = subs[i];
  Json doc;
  std::optional<std::size_t> exclude;
  if (is_retry) {
    // The retry is the same range under its OWN trace id, steered away
    // from the backend presumed stuck.  Rebuilt field by field: Json
    // copies share structure with sub.doc.
    doc = Json::object();
    for (const auto& [k, v] : std::as_const(sub.doc).fields()) doc[k] = v;
    doc["trace"] = hex64(sub.retry_trace_id);
    exclude = sub.presumed;
  } else {
    doc = sub.doc;
  }
  sc.router_.race(reactor, std::move(doc), sub.key, exclude,
                  [self = shared_from_this(), i,
                   is_retry](FleetRouter::Result r) {
                    self->on_sub(i, is_retry, std::move(r));
                  });
}

void Scatterer::Sweep::on_sub(std::size_t i, bool is_retry,
                              FleetRouter::Result r) {
  if (finished) return;  // a twin landing after the merge
  Sub& sub = subs[i];
  --sub.attempts_outstanding;
  const Json& answer = r.doc;
  if (!sub.done && r.ok && answer["ok"].as_bool(false)) {
    sub.done = true;
    sub.ok = true;
    sub.result = answer["result"];
    sub.cache_hit = answer["cache_hit"].as_bool(false);
    sub.degraded = answer["degraded"].as_bool(false);
    ++done_count;
    max_done_latency_ms = std::max(max_done_latency_ms, ms_since(t0));
    if (sub.attempts_outstanding > 0) {
      // Cancel-on-satisfied: the twin attempt is still grinding on its
      // backend — tell it to stop computing an answer nobody will read.
      const std::size_t backend = is_retry ? sub.presumed : sub.retry_presumed;
      const std::uint64_t trace = is_retry ? sub.trace_id : sub.retry_trace_id;
      if (trace != 0 && backend != kNoBackend) {
        sc.router_.cancel_at(reactor, backend, trace);
      }
    }
  } else if (!sub.done) {
    sub.error = r.ok ? answer["error"].as_string() : r.error;
    if (sub.error.empty()) sub.error = "backend error";
  }
  if (settled()) {
    finish();
  } else {
    arm_straggler_timer();
  }
}

void Scatterer::Sweep::arm_straggler_timer() {
  if (sc.options_.straggler_factor <= 0 || done_count * 2 < subs.size()) {
    return;
  }
  const bool any = std::any_of(subs.begin(), subs.end(), [](const Sub& s) {
    return !s.done && !s.retried && s.attempts_outstanding > 0;
  });
  if (!any) return;
  const double wait_ms =
      std::max(static_cast<double>(sc.options_.straggler_min_ms),
               sc.options_.straggler_factor * max_done_latency_ms);
  const auto deadline =
      t0 + std::chrono::microseconds(static_cast<std::int64_t>(wait_ms * 1000.0));
  reactor.disarm(straggler);
  straggler = reactor.arm(
      std::max(deadline - std::chrono::steady_clock::now(),
               std::chrono::steady_clock::duration::zero()),
      [self = shared_from_this()] {
        self->straggler = Reactor::Timer{};
        self->retry_stragglers();
      });
}

void Scatterer::Sweep::retry_stragglers() {
  // Sub-queries still outstanding past the straggler deadline go out again
  // at a different backend — first answer wins, the loser gets a cancel.
  for (std::size_t i = 0; i < subs.size() && !finished; ++i) {
    Sub& sub = subs[i];
    if (sub.done || sub.retried || sub.attempts_outstanding == 0) continue;
    sub.retried = true;
    sub.retry_trace_id = scope::mint_trace_id();
    const std::vector<std::size_t> rank = sc.router_.rank_for(sub.doc);
    sub.retry_presumed = sub.presumed;
    for (std::size_t b : rank) {
      if (b != sub.presumed) {
        sub.retry_presumed = b;
        break;
      }
    }
    ++sub.attempts_outstanding;
    ++retries_fired;
    sc.m_.straggler_retries.inc();
    scope::FlightRecorder::global().record(
        scope::FlightRecorder::Kind::kHedge, sub.retry_trace_id,
        "scatter straggler retry: trials [" + std::to_string(sub.lo) + "," +
            std::to_string(sub.hi) + ") re-dispatched away from " +
            (sub.presumed == kNoBackend
                 ? std::string("?")
                 : sc.router_.options().backends[sub.presumed].id));
    dispatch(i, true);
  }
}

void Scatterer::Sweep::finish() {
  finished = true;
  reactor.disarm(straggler);
  if (sc.options_.phase_hook) sc.options_.phase_hook("pre-merge");
  std::string line = merge();
  scatter_span.finish();
  auto then = std::move(done);
  then(std::move(line));
}

std::string Scatterer::Sweep::merge() {
  const std::size_t ways = subs.size();
  // Merge.  Sub results cover disjoint ascending ranges; a degraded shard
  // covers a contiguous prefix of its range (measure_throughput truncates),
  // so coverage is exactly [lo, lo + len(trial_rates)) per ok shard and no
  // trial can be counted twice.
  scope::SpanTimer merge_span(tid, "fleet.merge");
  std::vector<const Sub*> oks;
  std::string last_error;
  bool all_cache_hit = true;
  {
    // Settled: a twin landing after the merge returns without touching
    // the subs.
    for (const Sub& sub : subs) {
      if (sub.ok) {
        oks.push_back(&sub);
        all_cache_hit = all_cache_hit && sub.cache_hit;
      } else if (!sub.error.empty()) {
        last_error = sub.error;
      }
    }

    if (oks.empty()) {
      sc.m_.failed.inc();
      merge_span.set_note("failed");
      scatter_span.set_note("failed ways=" + std::to_string(ways));
      Json doc = Json::object();
      doc["ok"] = false;
      doc["error"] = "fleet: scatter failed: " +
                     (last_error.empty() ? "no sub-query answered"
                                         : last_error);
      doc["scattered"] = ways;
      if (tid != 0) doc["trace"] = hex64(tid);
      return doc.dump();
    }

    // Concatenate in trial-index order (oks inherit the subs' lo order) and
    // record the maximal contiguous covered runs.
    std::vector<double> rates;
    Json merged_rates = Json::array();
    Json ranges = Json::array();
    unsigned covered = 0;
    bool contiguous_from_zero = true;
    unsigned expect = 0;
    double ticks = 0.0;
    for (const Sub* sub : oks) {
      const Json& sub_rates = sub->result["trial_rates"];
      const unsigned len =
          static_cast<unsigned>(sub_rates.items().size());
      if (len == 0) continue;
      if (sub->lo != expect) contiguous_from_zero = false;
      Json range = Json::array();
      range.items().emplace_back(sub->lo);
      range.items().emplace_back(sub->lo + len);
      ranges.items().push_back(std::move(range));
      for (const Json& rate : sub_rates.items()) {
        merged_rates.items().push_back(rate);
        rates.push_back(rate.as_number());
      }
      covered += len;
      expect = sub->lo + len;
      ticks += sub->result["simulated_ticks"].as_number(0.0);
    }
    const bool full = contiguous_from_zero && covered == trials;

    // Base document: the shard holding the highest completed trial — its
    // makespan/avg_latency/static_congestion describe the last trial, the
    // same slot the single-node sweep reports.
    Json merged = oks.back()->result;
    merged.fields().erase("trial_lo");
    merged.fields().erase("trial_hi");
    merged.fields().erase("degraded");
    merged.fields().erase("trials_completed");
    merged.fields().erase("brownout");
    merged["trials"] = trials;
    merged["trial_rates"] = std::move(merged_rates);
    // The same estimator measure_throughput uses (util median, not a
    // nearest-rank quantile): byte-identity with the unsharded sweep
    // requires the identical function over the identical doubles.
    merged["beta_hat"] = median(std::vector<double>(rates));
    const auto [rate_lo, rate_hi] =
        std::minmax_element(rates.begin(), rates.end());
    merged["beta_hat_min"] = *rate_lo;
    merged["beta_hat_max"] = *rate_hi;
    merged["simulated_ticks"] = ticks;
    if (!full) {
      merged["degraded"] = true;
      merged["trials_completed"] = covered;
      merged["trial_ranges"] = std::move(ranges);
    }

    (full ? sc.m_.merged_full : sc.m_.merged_degraded).inc();
    merge_span.set_note(full ? "full" : "degraded");
    scatter_span.set_note("ways=" + std::to_string(ways) + " retries=" +
                          std::to_string(retries_fired) +
                          (full ? "" : " degraded"));

    Json doc = Json::object();
    doc["ok"] = true;
    doc["cache_hit"] = all_cache_hit;
    doc["key"] = hex64(key);
    doc["micros"] = ms_since(t0) * 1000.0;
    doc["scattered"] = ways;
    if (!full) doc["degraded"] = true;  // top-level mirror, as backends do
    if (tid != 0) doc["trace"] = hex64(tid);
    doc["result"] = std::move(merged);
    return doc.dump();
  }
}

void Scatterer::scatter(Reactor& reactor, const Json& request,
                        const Query& query,
                        std::function<void(std::string)> done) {
  const unsigned trials = query.trials;
  const std::size_t ways = std::min<std::size_t>(
      std::min<std::size_t>(options_.max_ways, trials),
      std::max<std::size_t>(1, router_.available_backends()));
  auto sweep = std::make_shared<Sweep>(*this, reactor, query, std::move(done));
  sweep->subs.resize(ways);
  for (std::size_t i = 0; i < ways; ++i) {
    Sweep::Sub& sub = sweep->subs[i];
    sub.lo = static_cast<unsigned>(i * trials / ways);
    sub.hi = static_cast<unsigned>((i + 1) * trials / ways);
    // Rebuild rather than copy-and-mutate: Json copies share structure with
    // the caller's document.
    Json doc = Json::object();
    for (const auto& [k, v] : request.fields()) doc[k] = v;
    doc["trial_lo"] = sub.lo;
    doc["trial_hi"] = sub.hi;
    // Every sub-query gets its own trace id: the straggler machinery keys
    // its cancel verbs on it, exactly like the router's hedge-loser cancel.
    sub.trace_id = scope::mint_trace_id();
    doc["trace"] = hex64(sub.trace_id);
    if (options_.sub_deadline_ms > 0) {
      doc["deadline_ms"] = options_.sub_deadline_ms;
    }
    sub.doc = std::move(doc);
    sub.key = FleetRouter::route_key(sub.doc);
    const std::vector<std::size_t> rank = router_.rank_for(sub.doc);
    sub.presumed = rank.empty() ? kNoBackend : rank[0];
    sub.attempts_outstanding = 1;
  }

  if (options_.phase_hook) options_.phase_hook("dispatch");
  m_.scatters.inc();
  m_.subqueries.add(ways);
  // Gather: the sweep merges once every sub-query has settled (an ok
  // answer, or every attempt failed).
  for (std::size_t i = 0; i < ways; ++i) sweep->dispatch(i, false);
}

Scatterer::Stats Scatterer::stats() const {
  return {.scatters = m_.scatters.value(),
          .subqueries = m_.subqueries.value(),
          .straggler_retries = m_.straggler_retries.value(),
          .merged_full = m_.merged_full.value(),
          .merged_degraded = m_.merged_degraded.value(),
          .failed = m_.failed.value()};
}

}  // namespace netemu
