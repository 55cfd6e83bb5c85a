#include "netemu/scope/exposition.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/util/hash.hpp"

namespace netemu::scope {

namespace {

std::string format_double(double v) {
  char buf[32];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

Json histogram_to_json(const Histogram::Snapshot& h) {
  Json doc = Json::object();
  doc["count"] = h.count;
  doc["sum"] = h.sum;
  doc["mean"] = h.mean();
  doc["p50"] = h.quantile(0.50);
  doc["p95"] = h.quantile(0.95);
  doc["p99"] = h.quantile(0.99);
  Json buckets = Json::array();
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    Json entry = Json::object();
    entry["le"] = Histogram::bucket_upper(b);
    entry["count"] = h.buckets[b];
    buckets.items().push_back(std::move(entry));
  }
  doc["buckets"] = std::move(buckets);
  return doc;
}

std::vector<Registry::Sample> merged_snapshot(
    std::initializer_list<const Registry*> registries) {
  std::vector<Registry::Sample> out;
  for (const Registry* registry : registries) {
    for (Registry::Sample& s : registry->snapshot()) {
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Registry::Sample& a, const Registry::Sample& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace

Json registry_to_json(std::initializer_list<const Registry*> registries) {
  Json counters = Json::object();
  Json gauges = Json::object();
  Json histograms = Json::object();
  for (const Registry::Sample& s : merged_snapshot(registries)) {
    switch (s.kind) {
      case MetricKind::kCounter: counters[s.name] = s.counter; break;
      case MetricKind::kGauge: gauges[s.name] = s.gauge; break;
      case MetricKind::kHistogram:
        histograms[s.name] = histogram_to_json(s.hist);
        break;
    }
  }
  Json doc = Json::object();
  doc["epoch_unix_s"] = process_epoch_unix_s();
  doc["counters"] = std::move(counters);
  doc["gauges"] = std::move(gauges);
  doc["histograms"] = std::move(histograms);
  return doc;
}

std::string registry_to_prometheus(
    std::initializer_list<const Registry*> registries) {
  std::string out;
  for (const Registry::Sample& s : merged_snapshot(registries)) {
    if (!s.help.empty()) {
      out += "# HELP " + s.name + " " + s.help + "\n";
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + s.name + " counter\n";
        out += s.name + " " + std::to_string(s.counter) + "\n";
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + s.name + " gauge\n";
        out += s.name + " " + format_double(s.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        out += "# TYPE " + s.name + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          if (s.hist.buckets[b] == 0) continue;
          cum += s.hist.buckets[b];
          const double upper = Histogram::bucket_upper(b);
          const std::string le =
              std::isfinite(upper) ? format_double(upper) : "+Inf";
          out += s.name + "_bucket{le=\"" + le + "\"} " +
                 std::to_string(cum) + "\n";
        }
        out += s.name + "_bucket{le=\"+Inf\"} " + std::to_string(s.hist.count) +
               "\n";
        out += s.name + "_sum " + format_double(s.hist.sum) + "\n";
        out += s.name + "_count " + std::to_string(s.hist.count) + "\n";
        break;
      }
    }
  }
  return out;
}

Json flight_recorder_to_json(std::size_t max_events) {
  Json arr = Json::array();
  for (const FlightRecorder::Event& e :
       FlightRecorder::global().recent(max_events)) {
    Json doc = Json::object();
    doc["seq"] = e.seq;
    doc["t_us"] = e.t_us;
    doc["kind"] = FlightRecorder::kind_name(e.kind);
    if (e.trace_id != 0) doc["trace"] = hex64(e.trace_id);
    doc["detail"] = e.detail;
    arr.items().push_back(std::move(doc));
  }
  return arr;
}

}  // namespace netemu::scope
