#include "netemu/routing/butterfly_router.hpp"

#include <algorithm>
#include <cassert>

#include "netemu/util/math.hpp"

namespace netemu {

ButterflyRouter::ButterflyRouter(const Machine& machine)
    : Router(machine),
      d_(machine.shape.at(0)),
      rows_(ipow(2, machine.shape.at(0))),
      plain_(machine.family == Family::kButterfly) {
  assert(machine.family == Family::kButterfly ||
         machine.family == Family::kMultibutterfly);
}

void ButterflyRouter::route_channels(Vertex src, Vertex dst, Prng& /*rng*/,
                                     std::vector<Channel>& out) {
  const std::uint64_t l1 = src >> d_, r1 = src & (rows_ - 1);
  const std::uint64_t l2 = dst >> d_, r2 = dst & (rows_ - 1);
  std::uint64_t needed = r1 ^ r2;

  std::uint64_t level = l1, row = r1;
  // One hop to (level, row).  On the plain butterfly a vertex's arcs
  // sorted by head are the two to the level below, then the two to the
  // level above, each pair differing only in the bit of the boundary
  // crossed: the arc's rank is that bit of the new row.
  Vertex at = src;
  auto push = [&] {
    const auto next = static_cast<Vertex>(level << d_ | row);
    if (!plain_) {
      at = hop(at, next, out);
      return;
    }
    const std::uint64_t from = at >> d_;
    const std::uint64_t boundary = std::min(from, level);
    const bool above_lower_pair = level > from && from > 0;
    out.push_back(graph_.arc_begin(at) +
                  static_cast<Channel>(((row >> boundary) & 1u) +
                                       (above_lower_pair ? 2 : 0)));
    at = next;
    assert(graph_.arc(out.back()).to == at);
  };

  // Descend to the lowest needed boundary (crossing boundary i downward may
  // fix bit i).
  std::uint64_t down_target = level;
  for (unsigned i = 0; i < d_; ++i) {
    if (needed >> i & 1u) {
      down_target = std::min<std::uint64_t>(down_target, i);
      break;
    }
  }
  down_target = std::min<std::uint64_t>(down_target, l2);
  while (level > down_target) {
    const unsigned boundary = static_cast<unsigned>(level - 1);
    if (needed >> boundary & 1u) {
      row ^= 1ULL << boundary;
      needed &= ~(1ULL << boundary);
    }
    --level;
    push();
  }

  // Ascend past every remaining needed boundary (and at least to l2).
  std::uint64_t up_target = l2;
  for (unsigned i = d_; i-- > 0;) {
    if (needed >> i & 1u) {
      up_target = std::max<std::uint64_t>(up_target, i + 1u);
      break;
    }
  }
  while (level < up_target) {
    const unsigned boundary = static_cast<unsigned>(level);
    if (needed >> boundary & 1u) {
      row ^= 1ULL << boundary;
      needed &= ~(1ULL << boundary);
    }
    ++level;
    push();
  }

  // Settle straight down to the destination level.
  while (level > l2) {
    --level;
    push();
  }
  assert(level == l2 && row == r2 && needed == 0);
}

ShuffleExchangeRouter::ShuffleExchangeRouter(const Machine& machine)
    : Router(machine), d_(machine.shape.at(0)) {
  assert(machine.family == Family::kShuffleExchange);
}

void ShuffleExchangeRouter::route_channels(Vertex src, Vertex dst,
                                           Prng& /*rng*/,
                                           std::vector<Channel>& out) {
  std::uint64_t cur = src;
  // d rounds: force the lsb to bit k of dst, then rotate right — bit k ends
  // up back at position k after the remaining rotations.
  for (unsigned k = 0; k < d_; ++k) {
    const std::uint64_t want = (dst >> k) & 1u;
    if ((cur & 1u) != want) {
      hop(static_cast<Vertex>(cur), static_cast<Vertex>(cur ^ 1u), out);
      cur ^= 1u;
    }
    const std::uint64_t next = rotr_bits(cur, d_);
    if (next != cur) {
      hop(static_cast<Vertex>(cur), static_cast<Vertex>(next), out);
    }
    cur = next;
  }
  assert(cur == dst);
}

ValiantRouter::ValiantRouter(const Machine& machine,
                             std::unique_ptr<Router> base)
    : Router(machine), base_(std::move(base)) {}

void ValiantRouter::route_channels(Vertex src, Vertex dst, Prng& rng,
                                   std::vector<Channel>& out) {
  if (src == dst) return;
  const auto w = static_cast<Vertex>(rng.below(graph_.num_vertices()));
  base_->route_channels(src, w, rng, out);
  base_->route_channels(w, dst, rng, out);
}

}  // namespace netemu
