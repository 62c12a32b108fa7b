#pragma once

/// \file tiling.hpp
/// Tiling math: factorization enumeration and manipulation of per-axis
/// tile vectors.  Invariant: a tile vector's product always equals the axis
/// extent.  Collaborators: sketches, actions, transfer's adapt_tile_factors.

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace harl {

/// Prime factorization of n (>= 1), ascending with multiplicity.
/// factorize(12) == {2, 2, 3}; factorize(1) == {}.
std::vector<std::int64_t> factorize(std::int64_t n);

/// Every divisor of n (>= 1), ascending.  divisors(12) == {1, 2, 3, 4, 6, 12}.
/// A tile factor of an axis is always one of its extent's divisors.
std::vector<std::int64_t> divisors(std::int64_t n);

/// Number of distinct multi-level tilings of an extent into `levels` ordered
/// groups (stars-and-bars over the prime multiset).  For 1024 = 2^10 into 4
/// levels this is C(13,3) = 286, the count the paper quotes for GEMM tiling.
std::int64_t count_tilings(std::int64_t extent, int levels);

/// A multi-level tiling of one axis: `factors[0]` is the outermost tile
/// count, `factors.back()` the innermost. Invariant: product == extent.
struct TileVector {
  std::vector<std::int64_t> factors;

  std::int64_t product() const;
  int levels() const { return static_cast<int>(factors.size()); }

  /// Inner size at level boundary `level`: product of factors[level..end).
  /// inner_size(0) == product(); inner_size(levels()) == 1.
  std::int64_t inner_size(int level) const;

  /// Smallest prime factor > 1 of factors[level]; 0 when factors[level]==1.
  std::int64_t smallest_movable(int level) const;

  /// Move the smallest prime factor from `from` to `to` (the paper's tiling
  /// modification). Returns false (no change) when factors[from] == 1 or
  /// from == to.
  bool move_factor(int from, int to);

  std::string to_string() const;
};

/// Uniform tiling with all factors at the innermost level (the identity
/// schedule: untiled loop).
TileVector trivial_tile(std::int64_t extent, int levels);

/// Random tiling: distribute each prime factor to a uniformly random level.
TileVector random_tile(std::int64_t extent, int levels, Rng& rng);

}  // namespace harl
