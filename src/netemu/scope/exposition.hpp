#pragma once
// netemu::scope — exposition: rendering a Registry snapshot (plus the
// flight recorder) for consumers.
//
// Two formats, both served through the line protocol's `stats` op:
//   * JSON   — {"counters":{...},"gauges":{...},"histograms":{...}}, the
//              shape netemu_top consumes;
//   * Prometheus text — `# HELP` / `# TYPE` / samples, histograms emitted
//              as cumulative `_bucket{le="..."}` series plus `_sum` and
//              `_count`, ready for a scrape proxy to forward verbatim.
//
// Histogram buckets are sparse in both formats: only non-empty buckets are
// emitted (plus the +Inf catch-all), so a freshly started process costs a
// few hundred bytes, not kBuckets lines per histogram.

#include <initializer_list>
#include <string>

#include "netemu/scope/metrics.hpp"
#include "netemu/util/json.hpp"

namespace netemu::scope {

/// JSON rendering of the snapshots of one or more registries, merged and
/// sorted by name (the `stats` op renders its executor's registry beside
/// the global one).  Metric names must be disjoint across the registries.
Json registry_to_json(std::initializer_list<const Registry*> registries);

/// Prometheus text exposition (version 0.0.4) of the same merged snapshot.
/// Metric names must already be Prometheus-legal ([a-zA-Z_:][a-zA-Z0-9_:]*);
/// the netemu metric catalog is (docs/SCOPE.md).
std::string registry_to_prometheus(
    std::initializer_list<const Registry*> registries);

/// Recent flight-recorder events as a JSON array (newest last).
Json flight_recorder_to_json(std::size_t max_events = 256);

}  // namespace netemu::scope
