#include "netemu/fleet/scatter.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/query.hpp"
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

// Shared scoreboard for one scattered request.  shared_ptr-owned because a
// losing twin attempt (original vs. straggler retry) can outlive the
// coordinator that merged without it.
struct Scatterer::ScatterState {
  struct Sub {
    Json doc;                  ///< the sub-query document (owns its trace)
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
  std::mutex m;
  std::condition_variable cv;
  std::vector<Sub> subs;
  std::size_t done_count = 0;
  double max_done_latency_ms = 0.0;
  std::chrono::steady_clock::time_point t0;
};

Scatterer::Scatterer(FleetRouter& router, Options options)
    : router_(router), options_(std::move(options)), m_{router.metrics()} {}

Scatterer::~Scatterer() {
  std::unique_lock<std::mutex> lock(mutex_);
  stopping_ = true;
  idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

bool Scatterer::eligible(const Json& request) const {
  if (options_.min_trials == 0) return false;
  std::string error;
  const auto q = query_from_json(request, &error);
  if (!q || q->kind != QueryKind::kEstimate) return false;
  // An explicit trial range is already a shard — route it whole.
  if (q->trial_hi != 0) return false;
  if (q->trials < options_.min_trials) return false;
  const std::size_t ways =
      std::min<std::size_t>(std::min<std::size_t>(options_.max_ways, q->trials),
                            router_.available_backends());
  return ways >= 2;
}

void Scatterer::spawn_sub(const std::shared_ptr<ScatterState>& state,
                          std::size_t sub_index, bool is_retry) {
  Json doc;
  std::optional<std::size_t> exclude;
  {
    // subs are stable (the vector never grows after construction); doc and
    // presumed fields for this attempt were written before the spawn.
    ScatterState::Sub& sub = state->subs[sub_index];
    if (is_retry) {
      // The retry is the same range under its OWN trace id, steered away
      // from the backend presumed stuck.  Rebuilt field by field: Json
      // copies share structure, and the first attempt's thread may still
      // be serializing sub.doc.
      doc = Json::object();
      for (const auto& [k, v] : sub.doc.fields()) doc[k] = v;
      doc["trace"] = hex64(sub.retry_trace_id);
      exclude = sub.presumed;
    } else {
      doc = sub.doc;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // No coordinator waits on a stopping scatterer; settle the attempt so
      // any that does cannot hang.
      std::lock_guard<std::mutex> sl(state->m);
      --state->subs[sub_index].attempts_outstanding;
      state->cv.notify_all();
      return;
    }
    ++outstanding_;
  }
  std::thread([this, state, sub_index, is_retry, doc = std::move(doc),
               exclude] {
    FleetRouter::Result r = router_.request(doc, exclude);
    std::size_t cancel_backend = kNoBackend;
    std::uint64_t cancel_trace = 0;
    {
      std::lock_guard<std::mutex> sl(state->m);
      ScatterState::Sub& sub = state->subs[sub_index];
      --sub.attempts_outstanding;
      if (!sub.done && r.ok && r.doc["ok"].as_bool(false)) {
        sub.done = true;
        sub.ok = true;
        sub.result = r.doc["result"];
        sub.cache_hit = r.doc["cache_hit"].as_bool(false);
        sub.degraded = r.doc["degraded"].as_bool(false);
        ++state->done_count;
        state->max_done_latency_ms =
            std::max(state->max_done_latency_ms, ms_since(state->t0));
        if (sub.attempts_outstanding > 0) {
          // Cancel-on-satisfied: the twin attempt is still grinding on its
          // backend — tell it to stop computing an answer nobody will read.
          cancel_backend = is_retry ? sub.presumed : sub.retry_presumed;
          cancel_trace = is_retry ? sub.trace_id : sub.retry_trace_id;
        }
      } else if (!sub.done) {
        sub.error = r.ok ? r.doc["error"].as_string() : r.error;
        if (sub.error.empty()) sub.error = "backend error";
      }
    }
    state->cv.notify_all();
    if (cancel_trace != 0 && cancel_backend != kNoBackend) {
      router_.cancel_at(cancel_backend, cancel_trace);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --outstanding_;
    idle_cv_.notify_all();
  }).detach();
}

std::string Scatterer::scatter_line(const Json& request) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  const auto q = query_from_json(request, &error);
  if (!q) {
    Json doc = Json::object();
    doc["ok"] = false;
    doc["error"] = "scatter: " + error;
    return doc.dump();
  }
  const unsigned trials = q->trials;
  const std::size_t ways = std::min<std::size_t>(
      std::min<std::size_t>(options_.max_ways, trials),
      std::max<std::size_t>(1, router_.available_backends()));
  const std::uint64_t tid = q->trace_id;
  scope::SpanTimer scatter_span(tid, "fleet.scatter");

  auto state = std::make_shared<ScatterState>();
  state->t0 = t0;
  state->subs.resize(ways);
  for (std::size_t i = 0; i < ways; ++i) {
    ScatterState::Sub& sub = state->subs[i];
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
    const std::vector<std::size_t> rank = router_.rank_for(sub.doc);
    sub.presumed = rank.empty() ? kNoBackend : rank[0];
    sub.attempts_outstanding = 1;
  }

  if (options_.phase_hook) options_.phase_hook("dispatch");
  m_.scatters.inc();
  m_.subqueries.add(ways);
  for (std::size_t i = 0; i < ways; ++i) spawn_sub(state, i, false);

  // Gather: wait for every sub-query to settle (an ok answer, or every
  // attempt failed).  Once at least half have landed, sub-queries still
  // outstanding past the straggler deadline are re-dispatched at a
  // different backend — first answer wins, the loser gets a cancel verb.
  std::uint64_t retries_fired = 0;
  {
    std::unique_lock<std::mutex> sl(state->m);
    const auto settled = [&] {
      return std::all_of(state->subs.begin(), state->subs.end(),
                         [](const ScatterState::Sub& s) {
                           return s.done || s.attempts_outstanding == 0;
                         });
    };
    while (!settled()) {
      const bool half_done = state->done_count * 2 >= ways;
      if (options_.straggler_factor > 0 && half_done) {
        const double wait_ms = std::max(
            static_cast<double>(options_.straggler_min_ms),
            options_.straggler_factor * state->max_done_latency_ms);
        const auto straggler_deadline =
            state->t0 +
            std::chrono::microseconds(static_cast<std::int64_t>(
                wait_ms * 1000.0));
        if (std::chrono::steady_clock::now() >= straggler_deadline) {
          for (std::size_t i = 0; i < ways; ++i) {
            ScatterState::Sub& sub = state->subs[i];
            if (sub.done || sub.retried || sub.attempts_outstanding == 0) {
              continue;
            }
            sub.retried = true;
            sub.retry_trace_id = scope::mint_trace_id();
            const std::vector<std::size_t> rank =
                router_.rank_for(sub.doc);
            sub.retry_presumed = sub.presumed;
            for (std::size_t b : rank) {
              if (b != sub.presumed) {
                sub.retry_presumed = b;
                break;
              }
            }
            ++sub.attempts_outstanding;
            ++retries_fired;
            m_.straggler_retries.inc();
            scope::FlightRecorder::global().record(
                scope::FlightRecorder::Kind::kHedge, sub.retry_trace_id,
                "scatter straggler retry: trials [" +
                    std::to_string(sub.lo) + "," + std::to_string(sub.hi) +
                    ") re-dispatched away from " +
                    (sub.presumed == kNoBackend
                         ? std::string("?")
                         : router_.options().backends[sub.presumed].id));
            spawn_sub(state, i, true);
          }
          state->cv.wait_for(sl, std::chrono::milliseconds(50), settled);
          continue;
        }
        state->cv.wait_until(sl, straggler_deadline, settled);
        continue;
      }
      state->cv.wait_for(sl, std::chrono::milliseconds(10), settled);
    }
  }
  if (options_.phase_hook) options_.phase_hook("pre-merge");

  // Merge.  Sub results cover disjoint ascending ranges; a degraded shard
  // covers a contiguous prefix of its range (measure_throughput truncates),
  // so coverage is exactly [lo, lo + len(trial_rates)) per ok shard and no
  // trial can be counted twice.
  scope::SpanTimer merge_span(tid, "fleet.merge");
  std::vector<const ScatterState::Sub*> oks;
  std::string last_error;
  bool all_cache_hit = true;
  {
    // Settled: no thread touches state again except a cancelled loser,
    // which only writes under state->m and never flips done once set.
    std::lock_guard<std::mutex> sl(state->m);
    for (const ScatterState::Sub& sub : state->subs) {
      if (sub.ok) {
        oks.push_back(&sub);
        all_cache_hit = all_cache_hit && sub.cache_hit;
      } else if (!sub.error.empty()) {
        last_error = sub.error;
      }
    }

    if (oks.empty()) {
      m_.failed.inc();
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
    for (const ScatterState::Sub* sub : oks) {
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

    (full ? m_.merged_full : m_.merged_degraded).inc();
    merge_span.set_note(full ? "full" : "degraded");
    scatter_span.set_note("ways=" + std::to_string(ways) + " retries=" +
                          std::to_string(retries_fired) +
                          (full ? "" : " degraded"));

    Json doc = Json::object();
    doc["ok"] = true;
    doc["cache_hit"] = all_cache_hit;
    doc["key"] = hex64(q->cache_key());
    doc["micros"] = ms_since(t0) * 1000.0;
    doc["scattered"] = ways;
    if (!full) doc["degraded"] = true;  // top-level mirror, as backends do
    if (tid != 0) doc["trace"] = hex64(tid);
    doc["result"] = std::move(merged);
    return doc.dump();
  }
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
