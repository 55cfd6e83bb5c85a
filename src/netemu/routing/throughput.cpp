#include "netemu/routing/throughput.hpp"

#include <algorithm>

#include "netemu/graph/algorithms.hpp"
#include "netemu/util/stats.hpp"

namespace netemu {

namespace {

/// Sample `extra` messages and append their routes to `batch`.
/// Polls `cancel` between routes; routing a message costs microseconds so a
/// per-message check is already amortized relative to kCancelCheckTicks.
void route_into(PacketSimulator::PreparedBatch& batch,
                const PacketSimulator& sim, Router& router,
                const TrafficDistribution& traffic, std::size_t extra,
                Prng& rng, const CancelToken& cancel) {
  // Pre-size from the running average path length (or a small guess on an
  // empty batch) and reuse one channel buffer across messages: tens of
  // thousands of per-message vector allocations per trial otherwise
  // dominate the non-simulating half of the trial.
  const std::size_t hops_hint =
      batch.size() > 0
          ? static_cast<std::size_t>(batch.total_hops() / batch.size() + 1) *
                extra
          : 8 * extra;
  batch.reserve(extra, hops_hint);
  std::vector<Channel> channels;
  for (const Message& msg : traffic.batch(extra, rng)) {
    cancel.check();
    channels.clear();
    router.route_channels(msg.src, msg.dst, rng, channels);
    sim.append_channels(batch, channels);
  }
}

}  // namespace

ThroughputResult measure_throughput(const Machine& machine, Router& router,
                                    const TrafficDistribution& traffic,
                                    Prng& rng,
                                    const ThroughputOptions& options) {
  ThroughputResult result;
  const PacketSimulator sim(machine, options.arbitration);

  // One draw from the caller's stream seeds everything (see header).
  const std::uint64_t base = rng();
  Prng diam_rng = Prng::stream(base, 0);
  const std::uint64_t diameter_lb =
      diameter_double_sweep(machine.graph, diam_rng);
  const std::uint64_t target_makespan =
      std::max<std::uint64_t>(options.min_makespan, 4 * diameter_lb);

  std::size_t m = std::clamp<std::size_t>(
      options.messages_per_processor * traffic.num_processors(), 512,
      options.max_messages);

  const unsigned trials = std::max(1u, options.trials);
  // Shard window [lo, hi): the default (0, 0) covers the whole sweep.
  const unsigned lo = std::min(options.trial_lo, trials - 1);
  const unsigned hi =
      options.trial_hi == 0 ? trials
                            : std::clamp(options.trial_hi, lo + 1, trials);
  const bool ranged = lo > 0 || hi < trials;
  std::vector<BatchStats> stats(trials);
  // Set per trial after its run_batch returns.  for_n collects by index and
  // each trial writes only its own slot, so plain bytes are race-free.
  std::vector<char> completed(trials, 0);

  // Trial 0 calibrates the batch size: grow by doubling until the transient
  // is negligible, keeping the already-routed paths and routing only the
  // top-up messages each step.  Cancellation here propagates as
  // CancelledError: no trial has landed yet, so there is nothing partial to
  // return.  The calibration runs even for a shard that excludes trial 0 —
  // m must be derived from the same substream on every shard — but such a
  // shard discards trial 0's stats AND its ticks, leaving them to the shard
  // that owns trial 0 so shard ticks sum to the unsharded total.
  std::uint64_t calibration_ticks = 0;
  {
    Prng trial_rng = Prng::stream(base, 1);
    PacketSimulator::PreparedBatch batch;
    std::size_t routed = 0;
    for (;;) {
      route_into(batch, sim, router, traffic, m - routed, trial_rng,
                 options.cancel);
      routed = m;
      stats[0] = sim.run_batch(batch, trial_rng, options.cancel);
      if (stats[0].makespan >= target_makespan || m >= options.max_messages) {
        break;
      }
      calibration_ticks += stats[0].makespan;  // non-final sizing runs
      m = std::min(options.max_messages, m * 2);
    }
    if (lo == 0) completed[0] = 1;
  }
  result.messages = m;

  // Trials in [max(lo, 1), hi) at the calibrated size, independently seeded
  // by index and collected by index — bit-identical at any thread count.  A
  // cancelled trial is swallowed here (never escapes for_n, which would
  // rethrow on the caller and drop sibling results): it just leaves its
  // completed flag unset and the sweep reports a degraded partial result.
  const auto run_trial = [&](std::size_t t) {
    try {
      Prng trial_rng = Prng::stream(base, 1 + t);
      PacketSimulator::PreparedBatch batch;
      route_into(batch, sim, router, traffic, m, trial_rng, options.cancel);
      stats[t] = sim.run_batch(batch, trial_rng, options.cancel);
      completed[t] = 1;
    } catch (const CancelledError&) {
    }
  };
  const unsigned first_run = std::max(lo, 1u);
  if (hi > first_run) {
    if (options.pool != nullptr) {
      options.pool->for_n(hi - first_run,
                          [&](std::size_t i) { run_trial(first_run + i); });
    } else {
      for (unsigned t = first_run; t < hi; ++t) run_trial(t);
    }
  }

  // A ranged shard must stay contiguous so a merger can never double-count:
  // truncate at the first gap.  The unsharded path keeps its historical
  // behavior of skipping gaps (every completed trial still counts).
  if (ranged) {
    for (unsigned t = lo; t < hi; ++t) {
      if (!completed[t]) {
        std::fill(completed.begin() + t, completed.begin() + hi, char{0});
        break;
      }
    }
    if (!completed[lo]) throw CancelledError();
  }

  result.trial_lo = lo;
  result.trial_rates.reserve(hi - lo);
  result.total_ticks = lo == 0 ? calibration_ticks : 0;
  unsigned last_completed = lo;
  for (unsigned t = lo; t < hi; ++t) {
    if (!completed[t]) continue;
    result.trial_rates.push_back(stats[t].rate());
    result.total_ticks += stats[t].makespan;
    last_completed = t;
  }
  result.trials_completed = static_cast<unsigned>(result.trial_rates.size());
  result.degraded = result.trials_completed < hi - lo;
  result.rate = median(std::vector<double>(result.trial_rates));
  const auto [rate_lo, rate_hi] = std::minmax_element(
      result.trial_rates.begin(), result.trial_rates.end());
  result.rate_min = *rate_lo;
  result.rate_max = *rate_hi;
  result.last = stats[last_completed];
  return result;
}

}  // namespace netemu
