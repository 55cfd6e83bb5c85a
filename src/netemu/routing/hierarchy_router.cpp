#include "netemu/routing/hierarchy_router.hpp"

#include <cassert>
#include <numeric>
#include <span>

#include "netemu/topology/detail/grid.hpp"
#include "netemu/util/math.hpp"

namespace netemu {

HierarchyRouter::HierarchyRouter(const Machine& machine)
    : Router(machine), k_(machine.dims) {
  assert(machine.family == Family::kPyramid ||
         machine.family == Family::kMultigrid);
  assert(k_ <= kMaxRouteDims);  // a base side >= 2 gives 2^k base vertices
  std::uint64_t offset = 0;
  for (std::uint32_t s = machine.shape.at(0); s >= 1; s /= 2) {
    level_offset_.push_back(offset);
    level_sides_.emplace_back(k_, s);
    offset += ipow(s, k_);
    if (s == 1) break;
  }
}

std::uint32_t HierarchyRouter::locate(Vertex v, Coord& coord) const {
  std::uint32_t level = 0;
  while (level + 1 < level_offset_.size() && v >= level_offset_[level + 1]) {
    ++level;
  }
  detail::grid_coord(level_sides_[level], v - level_offset_[level], coord);
  return level;
}

Vertex HierarchyRouter::vertex_of(std::uint32_t level,
                                  const Coord& coord) const {
  return static_cast<Vertex>(level_offset_[level] +
                             detail::grid_index(level_sides_[level], coord));
}

void HierarchyRouter::route_channels(Vertex src, Vertex dst, Prng& rng,
                                     std::vector<Channel>& out) {
  if (src == dst) return;
  Coord cur{}, top{};
  std::uint32_t level = locate(src, cur);
  const std::uint32_t dst_level = locate(dst, top);

  // Descend to src's base corner descendant.  The corner descendant doubles
  // coordinates per level; both the pyramid (corner child's parent is this
  // vertex) and the multigrid (explicit corner edge) have the needed edge.
  Vertex at = src;
  while (level > 0) {
    --level;
    for (unsigned d = 0; d < k_; ++d) cur[d] *= 2;
    at = hop(at, vertex_of(level, cur), out);
  }

  // Base-level target: the corner descendant of dst.
  Coord goal{};
  for (unsigned d = 0; d < k_; ++d) goal[d] = top[d] << dst_level;

  // Randomized dimension-order across the base mesh.
  std::array<std::size_t, kMaxRouteDims> order{};
  std::span<std::size_t> axes(order.data(), k_);
  std::iota(axes.begin(), axes.end(), std::size_t{0});
  shuffle(axes, rng);
  for (std::size_t d : axes) {
    while (cur[d] != goal[d]) {
      cur[d] += cur[d] < goal[d] ? 1 : -1;
      at = hop(at, vertex_of(0, cur), out);
    }
  }

  // Ascend to dst up its corner chain, coordinates halving per level.
  for (std::uint32_t l = 1; l <= dst_level; ++l) {
    for (unsigned d = 0; d < k_; ++d) cur[d] = top[d] << (dst_level - l);
    at = hop(at, vertex_of(l, cur), out);
  }
}

}  // namespace netemu
