#pragma once
// Algebraic routers for the coordinate families:
//  * DimensionOrderRouter — Mesh / Torus / XGrid.  Axes are corrected in a
//    random order per message (randomized dimension-order spreads congestion
//    while staying minimal); on the torus each axis takes the shorter way
//    around; on the X-grid two axes are corrected at once through a
//    diagonal whenever possible.
//  * BitFixRouter — Hypercube: differing bits fixed in random order.
//  * DeBruijnShiftRouter — de Bruijn: the classical d-step shift walk that
//    feeds the destination's bits in from the right.

#include "netemu/routing/router.hpp"

namespace netemu {

class DimensionOrderRouter final : public Router {
 public:
  explicit DimensionOrderRouter(const Machine& machine);
  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return "dimension-order"; }

 private:
  const Machine& machine_;
};

class BitFixRouter final : public Router {
 public:
  explicit BitFixRouter(const Machine& machine);
  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return "bit-fix"; }

 private:
  unsigned d_;
};

class DeBruijnShiftRouter final : public Router {
 public:
  explicit DeBruijnShiftRouter(const Machine& machine);
  void route_channels(Vertex src, Vertex dst, Prng& rng,
                      std::vector<Channel>& out) override;
  const char* name() const override { return "debruijn-shift"; }

 private:
  unsigned d_;
};

}  // namespace netemu
