#pragma once
// Router interface: a router turns (src, dst) into a route through the
// machine, emitted as channel ids (arc indices of machine.graph, the
// numbering PacketSimulator runs on; see Multigraph).  Specialized routers
// exist for the algebraically-routable families (dimension-order for grids,
// bit-fixing for hypercubes, shift routing for de Bruijn, level routing for
// butterflies, LCA for trees); BfsRouter covers everything else with random
// shortest paths.

#include <cassert>
#include <memory>
#include <vector>

#include "netemu/topology/machine.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/prng.hpp"

namespace netemu {

/// Most axes the coordinate routers handle: a grid of at most 2^32
/// vertices with every side >= 2 has at most 32.
inline constexpr std::size_t kMaxRouteDims = 32;

class Router {
 public:
  virtual ~Router() = default;

  /// Append the channels of a walk from src to dst to `out`: the first
  /// leaves src, each next one leaves the head of the one before, the last
  /// enters dst (none when src == dst).  rng may be used for
  /// congestion-spreading tie-breaks.  Allocates nothing beyond `out`'s
  /// growth, and is safe to call concurrently.
  virtual void route_channels(Vertex src, Vertex dst, Prng& rng,
                              std::vector<Channel>& out) = 0;

  /// The walk as vertices: src, then the head of every channel.  Same rng
  /// draws as route_channels; for the callers that want walks (embedding,
  /// emulation, tests).
  std::vector<Vertex> route(Vertex src, Vertex dst, Prng& rng);

  /// route() into a reused buffer: `out` is replaced by the walk.
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out);

  virtual const char* name() const = 0;

  /// Attach a cooperative cancellation token checked by expensive route
  /// *preparation* (BfsRouter's distance-field BFS).  Default: ignored —
  /// algebraic routers do O(path) work per route and are already bounded by
  /// the per-message checks in measure_throughput.  Set before handing the
  /// router to concurrent trials; never affects the routes produced.
  virtual void set_cancel_token(CancelToken /*cancel*/) {}

 protected:
  explicit Router(const Machine& machine) : graph_(machine.graph) {}

  /// Append the channel u -> v, an edge of the machine, and return v.
  Vertex hop(Vertex u, Vertex v, std::vector<Channel>& out) const {
    const Channel c = graph_.arc_index(u, v);
    assert(c != kNoChannel && "router stepped off the machine");
    out.push_back(c);
    return v;
  }

  const Multigraph& graph_;
};

/// Family-dispatched router choice: algebraic router when one exists for
/// machine.family, BfsRouter otherwise.
std::unique_ptr<Router> make_default_router(const Machine& machine);

/// Always the generic BFS router (for ablations).
std::unique_ptr<Router> make_bfs_router(const Machine& machine);

/// Valiant two-phase randomization wrapped around the machine's default
/// router: src -> random intermediate -> dst.
std::unique_ptr<Router> make_valiant_router(const Machine& machine);

/// Validity check used by tests: path edges all exist, endpoints match.
bool path_is_valid(const Multigraph& g, const std::vector<Vertex>& path,
                   Vertex src, Vertex dst);

}  // namespace netemu
