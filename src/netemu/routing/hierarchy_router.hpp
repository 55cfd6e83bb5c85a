#pragma once
// Router for the hierarchical mesh families (Pyramid, Multigrid).
//
// BFS-shortest paths on these machines funnel almost all symmetric traffic
// through the apex levels (diameter Θ(lg n)), whose aggregate capacity is
// constant — the measured rate then plateaus at Θ(1) even though the
// machines' bisection is Θ(n^{(k-1)/k}).  The bandwidth-achieving schedule
// instead crosses the BASE mesh: descend from the source to its base-level
// corner descendant, dimension-order across the base, ascend to the
// destination.  Dilation grows to Θ(n^{1/k}) but congestion drops to the
// mesh's, which is exactly the trade the Θ-form of Table 4 is about.

#include <array>

#include "netemu/routing/router.hpp"

namespace netemu {

class HierarchyRouter final : public Router {
 public:
  explicit HierarchyRouter(const Machine& machine);
  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return "hierarchy-base"; }

 private:
  using Coord = std::array<std::uint32_t, kMaxRouteDims>;
  /// v's level (0 = base) and, into `coord`, its coordinates there.
  std::uint32_t locate(Vertex v, Coord& coord) const;
  Vertex vertex_of(std::uint32_t level, const Coord& coord) const;

  unsigned k_;
  std::vector<std::uint64_t> level_offset_;  // per level, base = level 0
  std::vector<std::vector<std::uint32_t>> level_sides_;  // k sides per level
};

}  // namespace netemu
