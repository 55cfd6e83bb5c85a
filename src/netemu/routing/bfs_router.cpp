#include "netemu/routing/bfs_router.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <stdexcept>

namespace netemu {

namespace {

constexpr std::uint16_t kFar = std::numeric_limits<std::uint16_t>::max();

// Per-thread scratch for a field that has no slot to live in: a thread
// that routes past the budget keeps one field's worth (2 bytes a vertex).
std::vector<std::uint16_t>& thread_scratch() {
  thread_local std::vector<std::uint16_t> scratch;
  return scratch;
}

std::size_t slot_count(std::size_t n, std::size_t budget_bytes) {
  if (n == 0) return 1;
  return std::clamp<std::size_t>(budget_bytes / (n * sizeof(std::uint16_t)),
                                 1, n);
}

}  // namespace

BfsRouter::BfsRouter(const Machine& machine, bool spread,
                     std::size_t cache_budget_bytes)
    : Router(machine),
      spread_(spread),
      slots_(slot_count(machine.graph.num_vertices(), cache_budget_bytes)) {}

BfsRouter::~BfsRouter() {
  for (const auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
}

void BfsRouter::fill_distances(Vertex dst,
                               std::vector<std::uint16_t>& dist) const {
  const std::size_t n = graph_.num_vertices();
  dist.assign(n, kFar);
  std::vector<Vertex> queue;
  queue.reserve(n);
  dist[dst] = 0;
  queue.push_back(dst);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    // Field construction over a 2^24-vertex machine takes long enough to
    // matter for drain; poll the token at the standard amortized cadence.
    if ((head & (kCancelCheckTicks - 1)) == 0) cancel_.check();
    const Vertex u = queue[head];
    const std::uint16_t du = dist[u];
    for (const Arc& a : graph_.neighbors(u)) {
      if (dist[a.to] == kFar) {
        dist[a.to] = static_cast<std::uint16_t>(du + 1);
        queue.push_back(a.to);
      }
    }
  }
}

const std::uint16_t* BfsRouter::distance_field(Vertex dst) {
  std::atomic<const Field*>& slot = slots_[dst % slots_.size()];
  const Field* held = slot.load(std::memory_order_acquire);
  if (held != nullptr && held->dst == dst) return held->dist.data();

  // Compute without a lock: a BFS over a large machine takes milliseconds,
  // and concurrent misses on the same destination just redo identical work.
  std::vector<std::uint16_t>& scratch = thread_scratch();
  if (held != nullptr) {  // the slot belongs to another destination
    fill_distances(dst, scratch);
    return scratch.data();
  }
  auto field = std::make_unique<Field>();
  field->dst = dst;
  fill_distances(dst, field->dist);
  if (slot.compare_exchange_strong(held, field.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return field.release()->dist.data();
  }
  if (held->dst == dst) return held->dist.data();  // another thread's copy
  scratch.swap(field->dist);  // another destination took the slot first
  return scratch.data();
}

void BfsRouter::route_channels(Vertex src, Vertex dst, Prng& rng,
                               std::vector<Channel>& out) {
  if (src == dst) return;
  const std::uint16_t* dist = distance_field(dst);
  if (dist[src] == kFar) {
    throw std::runtime_error("BfsRouter: destination unreachable");
  }
  for (Vertex cur = src; cur != dst;) {
    const std::uint16_t want = static_cast<std::uint16_t>(dist[cur] - 1);
    const Channel end = graph_.arc_begin(cur + 1);
    Channel next = kNoChannel;
    std::uint32_t seen = 0;
    for (Channel c = graph_.arc_begin(cur); c < end; ++c) {
      if (dist[graph_.arc(c).to] != want) continue;
      if (!spread_) {  // arcs are sorted by head: the first is the lowest
        next = c;
        break;
      }
      // Reservoir-sample uniformly among descent arcs.
      if (rng.below(++seen) == 0) next = c;
    }
    assert(next != kNoChannel);
    out.push_back(next);
    cur = graph_.arc(next).to;
  }
}

}  // namespace netemu
