#include "netemu/routing/packet_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "netemu/scope/metrics.hpp"

namespace netemu {

namespace {

// Simulation-volume counters (scope registry; see docs/SCOPE.md).  Adds
// happen once per run_batch — batch granularity, never per tick — so the
// tick loop's hot path is untouched.
scope::Counter& sim_ticks_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_sim_ticks_total",
      "Packet-simulator ticks executed since process start");
  return c;
}

scope::Counter& sim_batches_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_sim_batches_total", "run_batch calls since process start");
  return c;
}

scope::Counter& sim_messages_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_sim_messages_total",
      "Messages delivered by run_batch since process start");
  return c;
}

void record_batch_volume(std::uint64_t ticks, std::uint64_t messages) {
  sim_ticks_counter().add(ticks);
  sim_batches_counter().inc();
  sim_messages_counter().add(messages);
}

BatchStats batch_totals(const PacketSimulator::PreparedBatch& batch) {
  BatchStats stats;
  stats.static_congestion = batch.static_congestion();
  stats.total_hops = batch.total_hops();
  stats.delivered = batch.size();
  return stats;
}

BatchStats finish_batch(BatchStats stats, std::uint64_t ticks,
                        std::uint64_t latency_sum) {
  record_batch_volume(ticks, stats.delivered);
  stats.avg_latency = stats.delivered == 0
                          ? 0.0
                          : static_cast<double>(latency_sum) /
                                static_cast<double>(stats.delivered);
  return stats;
}

// Amortized cancellation poll: one AND + branch per tick, a clock / flag
// read every kCancelCheckTicks.  The partial volume is recorded before
// unwinding so reclaimed-CPU accounting sees the ticks burned.
inline void poll_cancel(std::uint64_t tick, std::uint64_t delivered,
                        const CancelToken& cancel) {
  if ((tick & (kCancelCheckTicks - 1)) == 0 && cancel.cancelled()) {
    record_batch_volume(tick, delivered);
    throw CancelledError("run_batch cancelled at tick " +
                         std::to_string(tick));
  }
}

#if defined(__GNUC__) || defined(__clang__)
inline void prefetch_rw(const void* a) { __builtin_prefetch(a, 1, 3); }
#else
inline void prefetch_rw(const void*) {}
#endif

// Arbitration order.  Every policy is a packed 64-bit priority key,
// smaller wins: the high word is ~hops-left (farthest-first), the key drawn
// for the message (random) or 0 (fifo); the low word is the message's
// index (the sweep uses its slot, which compaction keeps in message order).
// These are the reference comparators "more hops left, tie smaller index" /
// "smaller index" / "smaller key, tie smaller index" exactly, and all three
// are strict total orders, so each tick's winner set is unique.

// Light-wait rule.  The sweep visits every waiting message once a tick; the
// queues pay a heap push and pop per hop, worth several visits.  So the
// sweep wins when messages barely wait, and how long they wait is known
// before tick 1 from the batch's static congestion: m x congestion /
// total_hops tracks visits per hop.  Unit-capacity batches below this ratio
// run the sweep.  The measured crossover on mesh, butterfly and CCC batches
// is 10-17; the margin keeps the queues to batches they clearly win
// (docs/PERF.md, "Tick-loop design").
constexpr std::uint64_t kSweepWaitRatio = 20;

// A domain's waiting messages: a binary min-heap of message ids, ordered by
// their packed keys.  A key never changes while its message waits, so it is
// derived from the message's state on demand rather than stored, and a
// heap entry is 4 bytes.
template <class KeyOf>
void heap_sift_up(std::uint32_t* a, std::size_t i, std::uint32_t id,
                  const KeyOf& key_of) {
  const std::uint64_t key = key_of(id);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (key_of(a[parent]) < key) break;
    a[i] = a[parent];
    i = parent;
  }
  a[i] = id;
}

// Remove and return the top of the n-entry heap `a`.  Bottom-up: walk the
// hole from the root to a leaf along the smaller children (a size-bound
// loop with a branch-free child choice), then sift the last id up from
// that leaf, which rarely climbs far.
template <class KeyOf>
std::uint32_t heap_pop(std::uint32_t* a, std::size_t n, const KeyOf& key_of) {
  const std::uint32_t top = a[0];
  --n;
  std::size_t i = 0;
  for (std::size_t c = 1; c + 1 < n; c = 2 * i + 1) {
    c += key_of(a[c + 1]) < key_of(a[c]);
    a[i] = a[c];
    i = c;
  }
  if (2 * i + 2 == n) {  // a lone last child
    a[i] = a[2 * i + 1];
    i = 2 * i + 1;
  }
  heap_sift_up(a, i, a[n], key_of);
  return top;
}

}  // namespace

std::uint64_t simulated_ticks_total() { return sim_ticks_counter().value(); }

std::uint64_t simulated_batches_total() {
  return sim_batches_counter().value();
}

std::uint64_t simulated_messages_total() {
  return sim_messages_counter().value();
}

const char* arbitration_name(Arbitration a) {
  switch (a) {
    case Arbitration::kFarthestFirst: return "farthest-first";
    case Arbitration::kFifo: return "fifo";
    case Arbitration::kRandom: return "random";
  }
  return "?";
}

PacketSimulator::PacketSimulator(const Machine& machine,
                                 Arbitration arbitration)
    : graph_(machine.graph), arbitration_(arbitration) {
  const std::size_t channels = graph_.num_arcs();
  channel_cap_.resize(channels);
  for (Channel c = 0; c < channels; ++c) channel_cap_[c] = graph_.arc(c).mult;

  // Arbitration domains: every channel is its own domain, except that the
  // out-channels of a node whose forward_cap can bind (it is below the
  // node's total wires) share one domain, numbered after the channels.
  domain_of_.resize(channels);
  for (std::uint32_t c = 0; c < channels; ++c) domain_of_[c] = c;
  for (Vertex v = 0; v < machine.forward_cap.size(); ++v) {
    const std::uint32_t cap = machine.forward_cap[v];
    const Channel begin = graph_.arc_begin(v), end = graph_.arc_begin(v + 1);
    std::uint64_t wires = 0;
    for (Channel c = begin; c < end; ++c) wires += channel_cap_[c];
    if (cap == kUnlimitedForward || cap >= wires) continue;
    const auto d = static_cast<std::uint32_t>(channels + node_cap_.size());
    for (Channel c = begin; c < end; ++c) domain_of_[c] = d;
    node_cap_.push_back(cap);
    node_multi_ = node_multi_ || cap > 1;
  }
  sweep_capable_ =
      node_cap_.empty() &&
      std::all_of(channel_cap_.begin(), channel_cap_.end(),
                  [](std::uint32_t cap) { return cap == 1; });
}

bool PacketSimulator::uses_sweep(const PreparedBatch& batch) const {
  return sweep_capable_ &&
         batch.size() * batch.static_congestion() <
             kSweepWaitRatio * batch.total_hops();
}

void PacketSimulator::append_channels(PreparedBatch& batch,
                                      std::span<const Channel> channels) const {
  if (batch.load_.empty()) batch.load_.assign(channel_cap_.size(), 0);
  for (const Channel c : channels) {
    assert(c < channel_cap_.size());
    batch.push_hop(c);
  }
  batch.seq_off_.push_back(static_cast<std::uint32_t>(batch.seq_.size()));
}

void PacketSimulator::append(PreparedBatch& batch,
                             const std::vector<Vertex>& path) const {
  if (batch.load_.empty()) batch.load_.assign(channel_cap_.size(), 0);
  for (std::size_t j = 0; j + 1 < path.size(); ++j) {
    const Channel c = graph_.arc_index(path[j], path[j + 1]);
    if (c == kNoChannel) {
      throw std::runtime_error("PacketSimulator: path uses a missing edge");
    }
    batch.push_hop(c);
  }
  batch.seq_off_.push_back(static_cast<std::uint32_t>(batch.seq_.size()));
}

PacketSimulator::PreparedBatch PacketSimulator::prepare(
    const std::vector<std::vector<Vertex>>& paths) const {
  PreparedBatch batch;
  batch.load_.assign(channel_cap_.size(), 0);
  batch.seq_off_.reserve(paths.size() + 1);
  std::size_t total = 0;
  for (const auto& p : paths) total += p.empty() ? 0 : p.size() - 1;
  batch.seq_.reserve(total);
  for (const auto& p : paths) append(batch, p);
  return batch;
}

template <Arbitration kPolicy>
BatchStats PacketSimulator::run_sweep(const PreparedBatch& batch,
                                      const std::uint32_t* rand_key_by_msg,
                                      const CancelToken& cancel) const {
  BatchStats stats = batch_totals(batch);
  const std::size_t m = batch.size();
  const std::uint32_t* seq = batch.seq_.data();
  const std::uint32_t* seq_off = batch.seq_off_.data();

  // Active messages as parallel slot arrays (struct-of-arrays), compacted
  // stably so slot order stays message order: the slot in a key's low word
  // is then the message-index tie-break, and random keys travel with it.
  constexpr bool kHasKey = kPolicy == Arbitration::kRandom;
  std::size_t na = 0;
  std::vector<std::uint32_t> act_cursor(m);  // absolute index into seq
  std::vector<std::uint32_t> act_rem(m);     // hops still to go
  std::vector<std::uint32_t> act_cur(m);     // seq[act_cursor], cached
  std::vector<std::uint32_t> act_key(kHasKey ? m : 0);
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint32_t len = seq_off[i + 1] - seq_off[i];
    if (len == 0) continue;  // zero-hop: delivered at tick 0 with latency 0
    act_cursor[na] = seq_off[i];
    act_rem[na] = len;
    act_cur[na] = seq[seq_off[i]];
    if (kHasKey) act_key[na] = rand_key_by_msg[i];
    ++na;
  }
  // The arrays never reallocate, so the key reads go through fixed
  // pointers.
  const std::uint32_t* const rem = act_rem.data();
  const std::uint32_t* const rand_key = act_key.data();
  const auto priority_key = [rem, rand_key](std::uint32_t j) -> std::uint64_t {
    if constexpr (kPolicy == Arbitration::kFarthestFirst) {
      return (static_cast<std::uint64_t>(~rem[j]) << 32) | j;
    } else if constexpr (kHasKey) {
      return (static_cast<std::uint64_t>(rand_key[j]) << 32) | j;
    } else {
      return j;
    }
  };

  // A requested channel advances exactly one message, the one with the
  // minimum key, so a per-channel running min replaces counting and
  // selection.  Next tick's keys are final once this tick's advances are
  // done, so the mins for tick T+1 are taken in the same end-of-tick pass
  // that compacts the slots: ONE sweep over the slots per tick.  Keys are
  // biased by +1 so 0 keeps meaning "channel not requested" (no key reaches
  // ~0, so the bias cannot wrap).
  std::vector<std::uint64_t> min_key(channel_cap_.size(), 0);
  std::vector<std::uint32_t> touched;
  touched.reserve(std::min(channel_cap_.size(), na) + 1);
  const auto sweep_min = [&](std::uint32_t j) {
    const std::uint32_t c = act_cur[j];
    const std::uint64_t k = priority_key(j) + 1;
    const std::uint64_t v = min_key[c];
    if (v == 0) {
      touched.push_back(c);
      min_key[c] = k;
    } else if (k < v) {
      min_key[c] = k;
    }
  };
  for (std::size_t j = 0; j < na; ++j) {
    if (j + 8 < na) prefetch_rw(&min_key[act_cur[j + 8]]);
    sweep_min(static_cast<std::uint32_t>(j));
  }

  std::uint64_t tick = 0;
  std::uint64_t latency_sum = 0;
  while (!touched.empty()) {
    ++tick;
    poll_cancel(tick, m - na, cancel);
    bool delivered = false;
    for (const std::uint32_t c : touched) {
      const std::uint32_t j = static_cast<std::uint32_t>(min_key[c] - 1);
      min_key[c] = 0;  // restore the all-zero invariant
      const std::uint32_t cursor = ++act_cursor[j];
      if (--act_rem[j] == 0) {
        latency_sum += tick;
        stats.makespan = tick;
        delivered = true;
      } else {
        act_cur[j] = seq[cursor];
      }
    }
    touched.clear();
    if (!delivered) {
      for (std::size_t j = 0; j < na; ++j) {
        if (j + 8 < na) prefetch_rw(&min_key[act_cur[j + 8]]);
        sweep_min(static_cast<std::uint32_t>(j));
      }
      continue;
    }
    // Compact stably while recomputing the mins: keys embed the
    // POST-compaction slot index, exactly what selection reads.
    std::size_t keep = 0;
    for (std::size_t j = 0; j < na; ++j) {
      if (j + 8 < na) prefetch_rw(&min_key[act_cur[j + 8]]);
      if (act_rem[j] == 0) continue;
      act_cursor[keep] = act_cursor[j];
      act_rem[keep] = act_rem[j];
      act_cur[keep] = act_cur[j];
      if (kHasKey) act_key[keep] = act_key[j];
      sweep_min(static_cast<std::uint32_t>(keep));
      ++keep;
    }
    na = keep;
  }
  return finish_batch(stats, tick, latency_sum);
}

template <Arbitration kPolicy>
BatchStats PacketSimulator::run_queues(const PreparedBatch& batch,
                                       const std::uint32_t* rand_key_by_msg,
                                       const CancelToken& cancel) const {
  BatchStats stats = batch_totals(batch);
  const std::size_t m = batch.size();
  const std::uint32_t* seq = batch.seq_.data();
  const std::uint32_t* seq_off = batch.seq_off_.data();
  const std::uint32_t* domain_of = domain_of_.data();
  const std::size_t num_ch = channel_cap_.size();

  // Per message: hops still to go.  Its next channel is then
  // seq[seq_off[i + 1] - left[i]].
  std::vector<std::uint32_t> left(m);
  std::uint32_t* const left_of = left.data();
  const auto next_channel = [seq, seq_off, left_of](std::uint32_t i) {
    return seq[seq_off[i + 1] - left_of[i]];
  };
  // Each domain's heap is a region [base, base + cap) of one shared arena,
  // freed in one piece when the batch ends.  Every message waits at tick 1,
  // so each region starts at its first-hop load plus half again for later
  // arrivals; a heap that outgrows its region moves to one twice the size
  // at the arena's end.
  struct Queue {
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };
  std::vector<Queue> queue(num_ch + node_cap_.size());
  for (std::uint32_t i = 0; i < m; ++i) {
    left_of[i] = seq_off[i + 1] - seq_off[i];
    if (left_of[i] != 0) ++queue[domain_of[next_channel(i)]].cap;
  }
  std::uint32_t arena_size = 0;
  for (Queue& q : queue) {
    q.base = arena_size;
    q.cap += q.cap / 2;
    arena_size += q.cap;
  }
  std::vector<std::uint32_t> arena;
  arena.reserve(arena_size + arena_size / 4);
  arena.resize(arena_size);
  // Non-empty domains for the coming tick, each listed once: a domain is
  // listed when a push finds it empty or when it keeps waiters after its
  // pops, the only two ways to be non-empty at a tick's start.
  std::vector<std::uint32_t> active, next_active, winners, skipped;
  // Wires taken this tick, for node domains that pass several messages.
  std::vector<std::uint32_t> wires_used(node_multi_ ? num_ch : 0, 0);

  const auto key_of = [left_of, rand_key_by_msg](std::uint32_t i) {
    std::uint64_t hi = 0;
    if constexpr (kPolicy == Arbitration::kFarthestFirst) hi = ~left_of[i];
    if constexpr (kPolicy == Arbitration::kRandom) hi = rand_key_by_msg[i];
    return (hi << 32) | i;
  };
  const auto enqueue = [&](std::uint32_t i) {
    const std::uint32_t d = domain_of[next_channel(i)];
    Queue& q = queue[d];
    if (q.size == 0) next_active.push_back(d);
    if (q.size == q.cap) {
      const auto moved = static_cast<std::uint32_t>(arena.size());
      q.cap = std::max<std::uint32_t>(4, 2 * q.cap);
      arena.resize(arena.size() + q.cap);
      std::copy_n(arena.data() + q.base, q.size, arena.data() + moved);
      q.base = moved;
    }
    heap_sift_up(arena.data() + q.base, q.size++, i, key_of);
  };

  std::size_t undelivered = 0;
  for (std::uint32_t i = 0; i < m; ++i) {
    if (left_of[i] == 0) continue;  // zero-hop: delivered at tick 0
    ++undelivered;
    enqueue(i);
  }

  std::uint64_t tick = 0;
  std::uint64_t latency_sum = 0;
  while (!next_active.empty()) {
    ++tick;
    poll_cancel(tick, m - undelivered, cancel);
    active.swap(next_active);
    next_active.clear();
    winners.clear();
    // Pop every domain before any winner moves on, so no message can take
    // two hops in one tick.
    for (const std::uint32_t d : active) {
      Queue& q = queue[d];
      std::uint32_t* const heap = arena.data() + q.base;
      const bool node = d >= num_ch;
      std::uint32_t cap = node ? node_cap_[d - num_ch] : channel_cap_[d];
      if (!node || cap == 1) {
        do {
          winners.push_back(heap_pop(heap, q.size--, key_of));
        } while (--cap != 0 && q.size != 0);
      } else {
        // A node passing several messages a tick: take waiters in key
        // order, skipping any whose channel's wires are already taken, and
        // put the skipped ones back.  This picks exactly "each channel's
        // `mult` best, then the node's `cap` best of those".
        const std::size_t first = winners.size();
        skipped.clear();
        while (cap != 0 && q.size != 0) {
          const std::uint32_t i = heap_pop(heap, q.size--, key_of);
          const std::uint32_t c = next_channel(i);
          if (wires_used[c] < channel_cap_[c]) {
            ++wires_used[c];
            winners.push_back(i);
            --cap;
          } else {
            skipped.push_back(i);
          }
        }
        for (std::size_t k = first; k < winners.size(); ++k) {
          wires_used[next_channel(winners[k])] = 0;
        }
        for (const std::uint32_t i : skipped) {
          heap_sift_up(heap, q.size++, i, key_of);  // back where it was
        }
      }
      if (q.size != 0) next_active.push_back(d);
    }
    for (const std::uint32_t i : winners) {
      if (--left_of[i] == 0) {
        latency_sum += tick;
        stats.makespan = tick;
        --undelivered;
      } else {
        enqueue(i);
      }
    }
  }
  return finish_batch(stats, tick, latency_sum);
}

template <Arbitration kPolicy>
BatchStats PacketSimulator::run_policy(const PreparedBatch& batch,
                                       const std::uint32_t* rand_key_by_msg,
                                       const CancelToken& cancel) const {
  cancel.check();  // a pre-cancelled batch never starts
  if (uses_sweep(batch)) {
    return run_sweep<kPolicy>(batch, rand_key_by_msg, cancel);
  }
  return run_queues<kPolicy>(batch, rand_key_by_msg, cancel);
}

BatchStats PacketSimulator::run_batch(const PreparedBatch& batch, Prng& rng,
                                      const CancelToken& cancel) const {
  switch (arbitration_) {
    case Arbitration::kFifo:
      return run_policy<Arbitration::kFifo>(batch, nullptr, cancel);
    case Arbitration::kRandom: {
      // Keys are drawn per message in index order (zero-hop messages
      // included), matching the documented serial order.
      std::vector<std::uint32_t> rand_key(batch.size());
      for (auto& k : rand_key) k = static_cast<std::uint32_t>(rng());
      return run_policy<Arbitration::kRandom>(batch, rand_key.data(), cancel);
    }
    case Arbitration::kFarthestFirst:
      break;
  }
  return run_policy<Arbitration::kFarthestFirst>(batch, nullptr, cancel);
}

BatchStats PacketSimulator::run_batch(
    const std::vector<std::vector<Vertex>>& paths, Prng& rng,
    const CancelToken& cancel) const {
  return run_batch(prepare(paths), rng, cancel);
}

}  // namespace netemu
