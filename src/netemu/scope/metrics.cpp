#include "netemu/scope/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace netemu::scope {

namespace {
std::atomic<bool> g_enabled{true};
std::atomic<std::size_t> g_next_shard{0};
}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::size_t shard_index() noexcept {
  thread_local const std::size_t index =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

void Histogram::observe(double v) noexcept {
  if (!enabled()) return;
  Shard& s = shards_[shard_index()];
  s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  double cur = s.sum.load(std::memory_order_relaxed);
  while (!s.sum.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
  }
}

std::size_t Histogram::bucket_of(double v) noexcept {
  // floor(log2(v) * kSubBuckets) rebased to kMinExp, computed from the
  // IEEE-754 representation: the exponent field is the power of two, and
  // the mantissa compared against the precomputed mantissas of 2^(k/8),
  // k = 1..7, is the sub-bucket.  No libm call on the record path — this
  // runs once per histogram observation in the serving hot loop.
  constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;
  static const std::array<std::uint64_t, kSubBuckets - 1> kSubBoundary = [] {
    std::array<std::uint64_t, kSubBuckets - 1> t{};
    for (int k = 1; k < kSubBuckets; ++k) {
      const double boundary = std::exp2(static_cast<double>(k) / kSubBuckets);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &boundary, sizeof bits);
      t[static_cast<std::size_t>(k - 1)] = bits & kMantissaMask;
    }
    return t;
  }();

  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  if (bits == 0 || (bits >> 63) != 0) return 0;  // +0, negatives, -NaN
  const int exp_field = static_cast<int>((bits >> 52) & 0x7ff);
  const std::uint64_t mantissa = bits & kMantissaMask;
  if (exp_field == 0x7ff) return mantissa != 0 ? 0 : kBuckets - 1;  // NaN:+inf
  if (exp_field == 0) return 0;  // subnormal: far below 2^kMinExp
  int sub = 0;
  for (const std::uint64_t b : kSubBoundary) sub += mantissa >= b;
  const long idx =
      (static_cast<long>(exp_field - 1023) - kMinExp) * kSubBuckets + sub;
  if (idx < 0) return 0;
  if (idx >= static_cast<long>(kBuckets - 2)) return kBuckets - 1;
  return static_cast<std::size_t>(idx) + 1;
}

double Histogram::bucket_lower(std::size_t b) noexcept {
  if (b == 0) return 0.0;
  const double e = static_cast<double>(b - 1) / kSubBuckets + kMinExp;
  return std::exp2(e);
}

double Histogram::bucket_upper(std::size_t b) noexcept {
  if (b == 0) return std::exp2(static_cast<double>(kMinExp));
  if (b >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  const double e = static_cast<double>(b) / kSubBuckets + kMinExp;
  return std::exp2(e);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (const Shard& s : shards_) {
    // Counts first: a concurrent observe that has bumped a bucket but not
    // yet the count leaves the snapshot one short on count, never negative.
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : snap.buckets) snap.count += c;
  return snap;
}

std::uint64_t Histogram::count() const noexcept {
  // Derived from the bucket counts: observe() pays for one bucket bump and
  // the sum update only; the O(kBuckets) walk is a read-path cost.
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      total += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based), nearest-rank definition.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (cum + buckets[b] < rank) {
      cum += buckets[b];
      continue;
    }
    const double lo = bucket_lower(b);
    const double hi = bucket_upper(b);
    if (b == 0) return lo;  // underflow bucket: report its upper bound 0..2^min as 0-ish lower
    if (!std::isfinite(hi)) return lo;  // overflow: best we can say
    // Log-interpolate by the rank's position inside this bucket.
    const double frac = (static_cast<double>(rank - cum) - 0.5) /
                        static_cast<double>(buckets[b]);
    return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
  }
  return 0.0;
}

double exact_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  std::lock_guard lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.kind = MetricKind::kCounter;
    it->second.counter = std::make_unique<Counter>();
  } else if (it->second.kind != MetricKind::kCounter) {
    throw std::logic_error("scope metric '" + name +
                           "' registered with a different kind");
  }
  return *it->second.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.kind = MetricKind::kGauge;
    it->second.gauge = std::make_unique<Gauge>();
  } else if (it->second.kind != MetricKind::kGauge) {
    throw std::logic_error("scope metric '" + name +
                           "' registered with a different kind");
  }
  return *it->second.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help) {
  std::lock_guard lock(mutex_);
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.kind = MetricKind::kHistogram;
    it->second.histogram = std::make_unique<Histogram>();
  } else if (it->second.kind != MetricKind::kHistogram) {
    throw std::logic_error("scope metric '" + name +
                           "' registered with a different kind");
  }
  return *it->second.histogram;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != MetricKind::kCounter) {
    return 0;
  }
  return it->second.counter->value();
}

std::vector<Registry::Sample> Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<Sample> out;
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    Sample s;
    s.name = name;
    s.help = entry.help;
    s.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter: s.counter = entry.counter->value(); break;
      case MetricKind::kGauge: s.gauge = entry.gauge->value(); break;
      case MetricKind::kHistogram: s.hist = entry.histogram->snapshot(); break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace netemu::scope
