#include "netemu/routing/dimension_order.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <numeric>
#include <span>
#include <stdexcept>

#include "netemu/topology/detail/grid.hpp"
#include "netemu/util/math.hpp"

namespace netemu {

DimensionOrderRouter::DimensionOrderRouter(const Machine& machine)
    : Router(machine), machine_(machine) {
  assert(machine.family == Family::kMesh || machine.family == Family::kTorus ||
         machine.family == Family::kXGrid);
  if (machine.shape.size() > kMaxRouteDims) {
    throw std::invalid_argument("DimensionOrderRouter: too many axes");
  }
}

void DimensionOrderRouter::route_channels(Vertex src, Vertex dst, Prng& rng,
                                          std::vector<Channel>& out) {
  const auto& sides = machine_.shape;
  const std::size_t k = sides.size();
  std::array<std::uint32_t, kMaxRouteDims> cur{}, goal{};
  detail::grid_coord(sides, src, cur);
  detail::grid_coord(sides, dst, goal);
  const bool wrap = machine_.family == Family::kTorus;
  const bool diagonal = machine_.family == Family::kXGrid;

  // Per-axis step direction (+1 / -1 / 0), shorter way around on the torus.
  auto step_of = [&](std::size_t d) -> int {
    if (cur[d] == goal[d]) return 0;
    if (!wrap || sides[d] <= 2) return goal[d] > cur[d] ? 1 : -1;
    const std::uint32_t fwd =
        (goal[d] + sides[d] - cur[d]) % sides[d];  // steps going +1
    return 2 * fwd <= sides[d] ? 1 : -1;
  };
  auto advance = [&](std::size_t d, int dir) {  // wraps only on the torus
    if (dir > 0) {
      cur[d] = cur[d] + 1 == sides[d] ? 0 : cur[d] + 1;
    } else {
      cur[d] = cur[d] == 0 ? sides[d] - 1 : cur[d] - 1;
    }
  };

  std::array<std::size_t, kMaxRouteDims> order{};
  std::span<std::size_t> axes(order.data(), k);
  std::iota(axes.begin(), axes.end(), std::size_t{0});
  shuffle(axes, rng);

  Vertex at = src;
  if (diagonal) {
    // Correct pairs of axes through diagonals while at least two differ.
    for (;;) {
      std::size_t a = k, b = k;
      for (std::size_t d : axes) {
        if (cur[d] != goal[d]) {
          if (a == k) {
            a = d;
          } else {
            b = d;
            break;
          }
        }
      }
      if (a == k) break;  // arrived
      const int da = step_of(a);
      advance(a, da);
      if (b != k) advance(b, step_of(b));
      at = hop(at, static_cast<Vertex>(detail::grid_index(sides, cur)), out);
    }
    return;
  }

  for (std::size_t d : axes) {
    while (cur[d] != goal[d]) {
      advance(d, step_of(d));
      at = hop(at, static_cast<Vertex>(detail::grid_index(sides, cur)), out);
    }
  }
}

BitFixRouter::BitFixRouter(const Machine& machine)
    : Router(machine), d_(machine.shape[0]) {
  assert(machine.family == Family::kHypercube);
}

void BitFixRouter::route_channels(Vertex src, Vertex dst, Prng& rng,
                                  std::vector<Channel>& out) {
  std::array<unsigned, kMaxRouteDims> differing{};
  std::size_t count = 0;
  for (unsigned p = 0; p < d_; ++p) {
    if (((src ^ dst) >> p) & 1u) differing[count++] = p;
  }
  std::span<unsigned> bits(differing.data(), count);
  shuffle(bits, rng);
  // The arc flipping bit p, without a search: cur's arcs sorted by head
  // first clear a set bit (a higher bit gives a lower head), then set a
  // clear one (a higher bit gives a higher head).
  Vertex cur = src;
  for (unsigned p : bits) {
    const Vertex bit = Vertex{1} << p;
    const int rank = (cur & bit) != 0
                         ? std::popcount(cur >> (p + 1))
                         : std::popcount(cur) + std::popcount(~cur & (bit - 1));
    out.push_back(graph_.arc_begin(cur) + static_cast<Channel>(rank));
    cur ^= bit;
    assert(graph_.arc(out.back()).to == cur);
  }
}

DeBruijnShiftRouter::DeBruijnShiftRouter(const Machine& machine)
    : Router(machine), d_(machine.shape[0]) {
  assert(machine.family == Family::kDeBruijn);
}

void DeBruijnShiftRouter::route_channels(Vertex src, Vertex dst,
                                         Prng& /*rng*/,
                                         std::vector<Channel>& out) {
  const std::uint64_t n = ipow(2, d_);
  std::uint64_t cur = src;
  // Feed dst's bits in from MSB to LSB; after d shifts cur == dst.
  for (unsigned i = d_; i-- > 0;) {
    const std::uint64_t bit = (dst >> i) & 1u;
    const std::uint64_t next = (cur * 2 + bit) % n;
    if (next != cur) {
      hop(static_cast<Vertex>(cur), static_cast<Vertex>(next), out);
    }
    cur = next;
  }
  assert(cur == dst);
}

}  // namespace netemu
