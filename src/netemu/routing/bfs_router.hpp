#pragma once
// Generic random-shortest-path router.
//
// For each destination it lazily computes the BFS tree rooted there, stored
// as the hop-distance field (uint16_t per vertex: 32 MB even at n = 2^24 /
// one dst).  A route is then a greedy descent: from the current vertex,
// take a uniformly random arc whose head is at distance d-1.  Uniform
// choice over the shortest-path DAG is what spreads congestion — the
// deterministic-parent alternative is an ablation knob.
//
// Fields live in a fixed table of publish-once slots, read without a lock:
// a route costs one acquire load to find its field.  The slot count is
// min(n, budget / field size), so the table and its fields stay within the
// byte budget at any n.  Destination d maps to slot d mod slots (its own
// slot whenever every field fits); the first field computed for a slot is
// published there and kept until the router dies.  A destination whose
// slot holds another one gets its field computed into the routing thread's
// scratch on every route.  Cached or not, the walk draws the same rng
// sequence, so routes depend only on (machine, src, dst, rng state), never
// on cache history or thread count.

#include <atomic>
#include <cstdint>
#include <vector>

#include "netemu/routing/router.hpp"

namespace netemu {

class BfsRouter final : public Router {
 public:
  /// spread=true picks a random arc of the shortest-path DAG; false always
  /// takes the one to the lowest-numbered vertex (deterministic).
  explicit BfsRouter(const Machine& machine, bool spread = true,
                     std::size_t cache_budget_bytes = 256u << 20);
  ~BfsRouter() override;
  BfsRouter(const BfsRouter&) = delete;
  BfsRouter& operator=(const BfsRouter&) = delete;

  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return spread_ ? "bfs-random" : "bfs"; }

  /// Token polled every kCancelCheckTicks vertex pops inside the
  /// distance-field BFS (the only unbounded prep work).  Set before routing
  /// starts; copying the token is cheap and routes read it unsynchronized.
  void set_cancel_token(CancelToken cancel) override {
    cancel_ = std::move(cancel);
  }

 private:
  struct Field {
    Vertex dst;
    std::vector<std::uint16_t> dist;
  };

  const std::uint16_t* distance_field(Vertex dst);
  void fill_distances(Vertex dst, std::vector<std::uint16_t>& dist) const;

  bool spread_;
  CancelToken cancel_;  // set once before concurrent routing begins
  // Published once by compare-exchange from null, read with one acquire
  // load, deleted by the destructor.
  std::vector<std::atomic<const Field*>> slots_;
};

}  // namespace netemu
