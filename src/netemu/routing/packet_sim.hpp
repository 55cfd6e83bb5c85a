#pragma once
// Cycle-accurate store-and-forward packet simulator.
//
// Model (matches the paper's accounting in Theorem 6):
//  * one message crosses a wire per tick and per direction; an edge of
//    multiplicity m is m parallel wires;
//  * a machine may additionally impose a per-node forwarding capacity
//    (weak machines, the bus hub);
//  * all messages of a batch are present at tick 0 and the batch's makespan
//    is the delivery time of the last one — bandwidth is then
//    messages / makespan in the large-batch limit.
//
// Contention is resolved by an arbitration policy; farthest-remaining-first
// is the default (it is the policy family behind the O(congestion+dilation)
// routing theorem the paper leans on), FIFO and random are ablation knobs.
//
// Hot-path design (see docs/PERF.md): a message's route is a sequence of
// channel ids, the arc indices of machine.graph (routers emit them
// directly; a vertex walk is resolved once at flatten time), kept in a
// PreparedBatch and never re-resolved per tick.  The tick loop is
// event-driven: every arbitration domain (a channel, or a node whose
// forward_cap can bind) keeps its waiting messages in a priority queue,
// and a tick pops each non-empty domain's winners and pushes them into
// their next domain, so a batch costs per hop advanced rather than per
// waiting message per tick.
// Lightly loaded unit-capacity batches, where messages rarely wait, keep a
// one-sweep-per-tick running-min loop instead.  PreparedBatch is appendable
// so a batch-doubling caller reuses the already-flattened prefix instead of
// re-resolving every path.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "netemu/topology/machine.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/prng.hpp"

namespace netemu {

enum class Arbitration { kFarthestFirst, kFifo, kRandom };

const char* arbitration_name(Arbitration a);

struct BatchStats {
  std::uint64_t makespan = 0;      ///< ticks until the last delivery
  std::uint64_t delivered = 0;     ///< messages delivered (== batch size)
  std::uint64_t total_hops = 0;    ///< sum of path lengths
  double avg_latency = 0.0;        ///< mean delivery tick
  std::uint64_t static_congestion = 0;  ///< max directed-wire load of paths

  double rate() const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(makespan);
  }

  bool operator==(const BatchStats&) const = default;
};

/// Process-wide simulation-volume counters (scope registry-backed; one add
/// per run_batch, never per tick).  Monotone within a process; pair with
/// scope::process_epoch_unix_s() for reset-safe reads across restarts —
/// the health/stats ops report exactly that pair.
std::uint64_t simulated_ticks_total();
std::uint64_t simulated_batches_total();
std::uint64_t simulated_messages_total();

class PacketSimulator {
 public:
  /// Per-message channel-id sequences.  Built by prepare() and the appends
  /// of a simulator of the machine it will run on, and reusable across any
  /// number of run_batch calls.
  class PreparedBatch {
   public:
    std::size_t size() const { return seq_off_.size() - 1; }
    std::uint64_t total_hops() const { return seq_.size(); }
    std::uint64_t static_congestion() const { return static_congestion_; }

    /// Pre-size for `messages` more appends totalling ~`total_hops` hops
    /// (a hint; appends beyond it just grow normally).  Batch-building is
    /// the allocation-heaviest part of a throughput trial, so callers that
    /// know the message count reserve up front instead of doubling.
    void reserve(std::size_t messages, std::size_t total_hops) {
      seq_off_.reserve(seq_off_.size() + messages);
      seq_.reserve(seq_.size() + total_hops);
    }

   private:
    friend class PacketSimulator;
    void push_hop(Channel c) {
      seq_.push_back(c);
      static_congestion_ =
          std::max<std::uint64_t>(static_congestion_, ++load_[c]);
    }

    std::vector<std::uint32_t> seq_;           // concatenated channel ids
    std::vector<std::uint32_t> seq_off_{0};    // per-message offsets, size m+1
    std::vector<std::uint32_t> load_;          // per-channel static load
    std::uint64_t static_congestion_ = 0;
  };

  /// Keeps a reference to machine.graph, which must outlive the simulator.
  explicit PacketSimulator(const Machine& machine,
                           Arbitration arbitration = Arbitration::kFarthestFirst);
  PacketSimulator(Machine&&, Arbitration = Arbitration::kFarthestFirst) =
      delete;

  /// Flatten full vertex paths into channel sequences (throws if a path uses
  /// a missing edge).  Paths of length <= 1 contribute no hops.
  PreparedBatch prepare(const std::vector<std::vector<Vertex>>& paths) const;

  /// Append one more message, routed as channel ids (Router::route_channels)
  /// — the hot path of batch building.  Static congestion is maintained
  /// incrementally.
  void append_channels(PreparedBatch& batch,
                       std::span<const Channel> channels) const;

  /// append_channels for a vertex walk, each hop resolved to its channel
  /// (throws if the walk uses a missing edge).
  void append(PreparedBatch& batch, const std::vector<Vertex>& path) const;

  /// Route a prepared batch to completion.  rng feeds the random arbitration
  /// policy only.  Thread-safe: const, all mutable state is call-local, so
  /// one simulator can serve concurrent trials.
  ///
  /// Cancellation: `cancel` is polled every kCancelCheckTicks ticks; when it
  /// fires the partial simulation volume is still recorded and the call
  /// raises CancelledError — the run stops within one check quantum.  A
  /// never-firing (or default/null) token leaves the result bit-identical
  /// to an uncancellable run (tests/sim_golden_test.cpp).
  BatchStats run_batch(const PreparedBatch& batch, Prng& rng,
                       const CancelToken& cancel = {}) const;

  /// Convenience wrapper: prepare + run in one call.
  BatchStats run_batch(const std::vector<std::vector<Vertex>>& paths,
                       Prng& rng, const CancelToken& cancel = {}) const;

  std::size_t num_channels() const { return channel_cap_.size(); }

  /// Which kernel run_batch picks for `batch`: the per-tick sweep (true) or
  /// the per-hop domain queues (false).  Both give identical BatchStats;
  /// the choice is by cost alone (docs/PERF.md, "Tick-loop design").
  bool uses_sweep(const PreparedBatch& batch) const;

 private:
  template <Arbitration kPolicy>
  BatchStats run_policy(const PreparedBatch& batch,
                        const std::uint32_t* rand_key_by_msg,
                        const CancelToken& cancel) const;
  template <Arbitration kPolicy>
  BatchStats run_sweep(const PreparedBatch& batch,
                       const std::uint32_t* rand_key_by_msg,
                       const CancelToken& cancel) const;
  template <Arbitration kPolicy>
  BatchStats run_queues(const PreparedBatch& batch,
                        const std::uint32_t* rand_key_by_msg,
                        const CancelToken& cancel) const;

  const Multigraph& graph_;
  Arbitration arbitration_;
  std::vector<std::uint32_t> channel_cap_;     // channel -> wires
  // Arbitration domains: channel ids first (a channel domain passes
  // channel_cap_ messages a tick), then one per node whose forward_cap is
  // below its total wires.
  std::vector<std::uint32_t> domain_of_;       // channel -> domain
  std::vector<std::uint32_t> node_cap_;  // node domain d -> forward_cap,
                                         // at d - num_channels()
  bool node_multi_ = false;    // some node domain passes > 1 message a tick
  bool sweep_capable_ = false;  // single wires only, no node domains
};

}  // namespace netemu
