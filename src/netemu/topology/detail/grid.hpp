#pragma once
// Row-major coordinate helpers shared by the grid-like generators.
// Indexing convention: the LAST coordinate varies fastest.

#include <cstdint>
#include <vector>

namespace netemu::detail {

inline std::uint64_t grid_size(const std::vector<std::uint32_t>& sides) {
  std::uint64_t n = 1;
  for (std::uint32_t s : sides) n *= s;
  return n;
}

/// `Coord` is any indexable coordinate buffer: the routers keep theirs in
/// fixed-size arrays so a route allocates nothing.
template <class Coord>
std::uint64_t grid_index(const std::vector<std::uint32_t>& sides,
                         const Coord& coord) {
  std::uint64_t idx = 0;
  for (std::size_t d = 0; d < sides.size(); ++d) {
    idx = idx * sides[d] + coord[d];
  }
  return idx;
}

/// The coordinates of `idx`, written to coord[0 .. sides.size()).
template <class Coord>
void grid_coord(const std::vector<std::uint32_t>& sides, std::uint64_t idx,
                Coord& coord) {
  for (std::size_t d = sides.size(); d-- > 0;) {
    coord[d] = static_cast<std::uint32_t>(idx % sides[d]);
    idx /= sides[d];
  }
}

/// Call fn(coord) for every lattice point.
template <typename Fn>
void grid_for_each(const std::vector<std::uint32_t>& sides, Fn&& fn) {
  std::vector<std::uint32_t> coord(sides.size(), 0);
  const std::uint64_t n = grid_size(sides);
  for (std::uint64_t i = 0; i < n; ++i) {
    fn(coord);
    for (std::size_t d = sides.size(); d-- > 0;) {
      if (++coord[d] < sides[d]) break;
      coord[d] = 0;
    }
  }
}

}  // namespace netemu::detail
