#include "netemu/routing/tree_router.hpp"

#include <algorithm>
#include <cassert>

namespace netemu {

TreeRouter::TreeRouter(const Machine& machine) : Router(machine) {
  assert(machine.family == Family::kTree ||
         machine.family == Family::kFatTree ||
         machine.family == Family::kWeakPPN);
}

void TreeRouter::route_channels(Vertex src, Vertex dst, Prng& /*rng*/,
                                std::vector<Channel>& out) {
  // The LCA: both endpoints' ancestors at the shallower depth, climbed
  // together until they meet.
  unsigned lca_depth = std::min(heap_depth(src), heap_depth(dst));
  Vertex a = heap_ancestor(src, lca_depth), b = heap_ancestor(dst, lca_depth);
  while (a != b) {
    a = (a - 1) / 2;
    b = (b - 1) / 2;
    --lca_depth;
  }
  Vertex cur = src;
  while (cur != a) cur = hop(cur, (cur - 1) / 2, out);
  for (unsigned d = lca_depth + 1; d <= heap_depth(dst); ++d) {
    cur = hop(cur, heap_ancestor(dst, d), out);
  }
}

LineRouter::LineRouter(const Machine& machine) : Router(machine) {
  assert(machine.family == Family::kLinearArray);
}

void LineRouter::route_channels(Vertex src, Vertex dst, Prng& /*rng*/,
                                std::vector<Channel>& out) {
  for (Vertex v = src; v != dst;) v = hop(v, dst > v ? v + 1 : v - 1, out);
}

RingRouter::RingRouter(const Machine& machine)
    : Router(machine), n_(machine.graph.num_vertices()) {
  assert(machine.family == Family::kRing);
}

void RingRouter::route_channels(Vertex src, Vertex dst, Prng& /*rng*/,
                                std::vector<Channel>& out) {
  const std::size_t fwd = (dst + n_ - src) % n_;
  const std::size_t step = 2 * fwd <= n_ ? 1 : n_ - 1;  // +1 or -1 mod n
  for (Vertex cur = src; cur != dst;) {
    cur = hop(cur, static_cast<Vertex>((cur + step) % n_), out);
  }
}

BusRouter::BusRouter(const Machine& machine)
    : Router(machine),
      hub_(static_cast<Vertex>(machine.graph.num_vertices() - 1)) {
  assert(machine.family == Family::kGlobalBus);
}

void BusRouter::route_channels(Vertex src, Vertex dst, Prng& /*rng*/,
                               std::vector<Channel>& out) {
  if (src == dst) return;
  if (src != hub_ && dst != hub_) src = hop(src, hub_, out);
  hop(src, dst, out);
}

}  // namespace netemu
