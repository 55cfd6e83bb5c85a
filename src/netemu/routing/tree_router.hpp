#pragma once
// Closed-form routers for the trivially-routable families:
//  * TreeRouter — heap-indexed complete binary trees (Tree, WeakPPN):
//    climb to the LCA, descend.
//  * LineRouter — LinearArray: walk straight.
//  * RingRouter — Ring: the shorter way around.
//  * BusRouter — GlobalBus: processor → hub → processor.

#include "netemu/routing/router.hpp"
#include "netemu/util/math.hpp"

namespace netemu {

/// Heap-indexed binary trees (root 0, children 2v+1 and 2v+2): v's depth,
/// and its ancestor at depth d <= heap_depth(v) (v + 1 shifted right).
inline unsigned heap_depth(Vertex v) { return ilog2(v + 1ull); }
inline Vertex heap_ancestor(Vertex v, unsigned d) {
  return static_cast<Vertex>(((v + 1ull) >> (heap_depth(v) - d)) - 1);
}

class TreeRouter final : public Router {
 public:
  explicit TreeRouter(const Machine& machine);
  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return "tree-lca"; }
};

class LineRouter final : public Router {
 public:
  explicit LineRouter(const Machine& machine);
  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return "line"; }
};

class RingRouter final : public Router {
 public:
  explicit RingRouter(const Machine& machine);
  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return "ring"; }

 private:
  std::size_t n_;
};

class BusRouter final : public Router {
 public:
  explicit BusRouter(const Machine& machine);
  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return "bus"; }

 private:
  Vertex hub_;
};

}  // namespace netemu
