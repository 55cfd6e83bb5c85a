#include "netemu/routing/router.hpp"

#include <type_traits>

#include "netemu/routing/bfs_router.hpp"
#include "netemu/routing/butterfly_router.hpp"
#include "netemu/routing/dimension_order.hpp"
#include "netemu/routing/hierarchy_router.hpp"
#include "netemu/routing/tree_router.hpp"
#include "netemu/routing/xtree_router.hpp"

namespace netemu {

std::vector<Vertex> Router::route(Vertex src, Vertex dst, Prng& rng) {
  std::vector<Vertex> path;
  route_append(src, dst, rng, path);
  return path;
}

void Router::route_append(Vertex src, Vertex dst, Prng& rng,
                          std::vector<Vertex>& out) {
  // Both ids are 32-bit, so the channels land in `out` after src and are
  // then replaced by their heads in place.
  static_assert(std::is_same_v<Vertex, Channel>);
  out.assign(1, src);
  route_channels(src, dst, rng, out);
  for (std::size_t i = 1; i < out.size(); ++i) out[i] = graph_.arc(out[i]).to;
}

std::unique_ptr<Router> make_default_router(const Machine& machine) {
  switch (machine.family) {
    case Family::kLinearArray:
      return std::make_unique<LineRouter>(machine);
    case Family::kRing:
      return std::make_unique<RingRouter>(machine);
    case Family::kGlobalBus:
      return std::make_unique<BusRouter>(machine);
    case Family::kTree:
    case Family::kFatTree:
    case Family::kWeakPPN:
      return std::make_unique<TreeRouter>(machine);
    case Family::kMesh:
    case Family::kTorus:
    case Family::kXGrid:
      return std::make_unique<DimensionOrderRouter>(machine);
    case Family::kHypercube:
      return std::make_unique<BitFixRouter>(machine);
    case Family::kPyramid:
    case Family::kMultigrid:
      return std::make_unique<HierarchyRouter>(machine);
    case Family::kButterfly:
    case Family::kMultibutterfly:
      return std::make_unique<ButterflyRouter>(machine);
    case Family::kShuffleExchange:
      return std::make_unique<ShuffleExchangeRouter>(machine);
    case Family::kXTree:
      return std::make_unique<XTreeRouter>(machine);
    case Family::kDeBruijn:
      return std::make_unique<DeBruijnShiftRouter>(machine);
    default:
      return std::make_unique<BfsRouter>(machine);
  }
}

std::unique_ptr<Router> make_bfs_router(const Machine& machine) {
  return std::make_unique<BfsRouter>(machine);
}

std::unique_ptr<Router> make_valiant_router(const Machine& machine) {
  return std::make_unique<ValiantRouter>(machine, make_default_router(machine));
}

bool path_is_valid(const Multigraph& g, const std::vector<Vertex>& path,
                   Vertex src, Vertex dst) {
  if (path.empty() || path.front() != src || path.back() != dst) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (g.multiplicity(path[i], path[i + 1]) == 0) return false;
  }
  return true;
}

}  // namespace netemu
