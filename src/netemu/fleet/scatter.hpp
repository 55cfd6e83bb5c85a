#pragma once
// netemu::scatter — scatter-gather decomposition of estimate sweeps.
//
// β(M) is estimated from independent trials whose Prng substreams depend
// only on (seed, trial index), so a T-trial estimate splits into disjoint
// trial-range sub-queries ("trial_lo"/"trial_hi" wire fields) that run on
// different backends and merge back — bit-identically — into the unsharded
// answer.  The Scatterer is that coordinator:
//
//   scatter(request)
//     ├─ split: W = min(max_ways, trials, available backends) contiguous
//     │         ranges, lo_i = floor(i*T/W); each sub-query is its own
//     │         content address, so every backend caches its shard and a
//     │         re-scatter is W cache hits
//     ├─ dispatch: all W at once as FleetRouter races on the caller's
//     │            reactor (each rides the normal rendezvous order,
//     │            breaker checks, pressure sink, failover), each with its
//     │            own minted trace id and a per-sub-query deadline
//     ├─ stragglers: once at least half the sub-queries have landed, a
//     │              timer at factor x the slowest completed latency
//     │              retries every one still outstanding at a DIFFERENT
//     │              backend (hedged — first answer wins); when an answer
//     │              lands while its twin is still running, the twin's
//     │              backend gets a cancel verb (cancel-on-satisfied, same
//     │              mechanism as hedge losers)
//     └─ merge: trial_rates concatenated in trial-index order; beta_hat /
//               min / max recomputed exactly as measure_throughput does;
//               tick totals summed — byte-identical to the single-node
//               result document.  Missing or degraded shards degrade the
//               merge to a "degraded":true partial carrying the completed
//               ranges; partials are never cached anywhere.
//
// Nothing here blocks or spawns: a sweep is callbacks on one reactor.
// Determinism contract and wire format: docs/SCATTER.md.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "netemu/fleet/router.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/reactor.hpp"
#include "netemu/util/json.hpp"

namespace netemu {

class Scatterer {
 public:
  struct Options {
    /// Scatter estimate queries with trials >= this; 0 disables scattering.
    unsigned min_trials = 16;
    /// Fan-out cap (further capped by trials and available backends).
    unsigned max_ways = 4;
    /// Per-sub-query deadline; 0 inherits the request's own deadline_ms
    /// (each sub-query gets the full budget — they run concurrently).
    std::uint64_t sub_deadline_ms = 0;
    /// A sub-query still outstanding once at least half have completed is
    /// retried elsewhere after max(straggler_min_ms, straggler_factor x
    /// slowest completed sub-query latency).  factor <= 0 disables retries.
    double straggler_factor = 3.0;
    std::uint64_t straggler_min_ms = 50;
    /// Test hook fired at phase boundaries ("dispatch" before sub-queries
    /// go out, "pre-merge" after the last answer, before merging) so fault
    /// tests can kill/stall a backend at an exact phase.  Not for
    /// production use.
    std::function<void(const char* phase)> phase_hook;
  };

  Scatterer(FleetRouter& router, Options options);

  Scatterer(const Scatterer&) = delete;
  Scatterer& operator=(const Scatterer&) = delete;

  /// True when `query` should be scattered: an estimate with trials >=
  /// min_trials, no explicit trial range of its own, and at least 2
  /// usable ways right now.
  bool eligible(const Query& query) const;

  /// Scatter an eligible request on `reactor`; `done` runs there once with
  /// the complete response LINE (same envelope as a proxied single-backend
  /// response).  `query` is the request, canonicalized.
  void scatter(Reactor& reactor, const Json& request, const Query& query,
               std::function<void(std::string line)> done);

  /// Read-only snapshot of the netemu_scatter_* counters, which live in
  /// the router's registry: every Scatterer over one router adds to them.
  struct Stats {
    std::uint64_t scatters = 0;          ///< requests decomposed
    std::uint64_t subqueries = 0;        ///< sub-queries dispatched
    std::uint64_t straggler_retries = 0; ///< hedged straggler re-dispatches
    std::uint64_t merged_full = 0;       ///< merges covering every trial
    std::uint64_t merged_degraded = 0;   ///< partial merges returned
    std::uint64_t failed = 0;            ///< no sub-query answered at all
  };
  Stats stats() const;

 private:
  struct Sweep;

  // The netemu_scatter_* metrics, registered in the router's registry.
  struct Meters {
    scope::Registry& r;
    scope::Counter& scatters =
        r.counter("netemu_scatter_sweeps_total",
                  "Estimate sweeps decomposed into sub-queries");
    scope::Counter& subqueries =
        r.counter("netemu_scatter_subqueries_total",
                  "Trial-range sub-queries dispatched by the scatterer");
    scope::Counter& straggler_retries =
        r.counter("netemu_scatter_straggler_retries_total",
                  "Straggling sub-queries re-dispatched at another backend");
    scope::Counter& merged_full =
        r.counter("netemu_scatter_merged_full_total",
                  "Scattered sweeps merged over every trial");
    scope::Counter& merged_degraded =
        r.counter("netemu_scatter_merged_degraded_total",
                  "Scattered sweeps returned as degraded partial merges");
    scope::Counter& failed =
        r.counter("netemu_scatter_failed_total",
                  "Scattered sweeps where no sub-query answered");
  };

  FleetRouter& router_;
  Options options_;
  const Meters m_;
};

}  // namespace netemu
