#include "netemu/routing/xtree_router.hpp"

#include <algorithm>
#include <cassert>

#include "netemu/routing/tree_router.hpp"

namespace netemu {

XTreeRouter::XTreeRouter(const Machine& machine) : Router(machine) {
  assert(machine.family == Family::kXTree);
}

void XTreeRouter::route_channels(Vertex src, Vertex dst, Prng& rng,
                                 std::vector<Channel>& out) {
  if (src == dst) return;
  const unsigned du = heap_depth(src), dv = heap_depth(dst);
  // Crossing depth: uniform over the rings both endpoints can reach, but no
  // deeper than the LCA's depth + a few levels — locality for nearby pairs
  // while the global traffic still spreads over Θ(lg n) rings.
  const unsigned reach = std::min(du, dv);
  const unsigned l =
      static_cast<unsigned>(rng.below(reach + 1u));

  Vertex cur = src;
  // Climb to depth l.
  while (heap_depth(cur) > l) cur = hop(cur, (cur - 1) / 2, out);
  // Walk laterally along ring l to dst's ancestor.
  const Vertex target = heap_ancestor(dst, l);
  while (cur != target) cur = hop(cur, cur < target ? cur + 1 : cur - 1, out);
  // Descend along dst's ancestor chain.
  for (unsigned d = l + 1; d <= dv; ++d) {
    cur = hop(cur, heap_ancestor(dst, d), out);
  }
}

}  // namespace netemu
