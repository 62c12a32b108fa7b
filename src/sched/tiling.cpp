#include "sched/tiling.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace harl {

std::vector<std::int64_t> factorize(std::int64_t n) {
  std::vector<std::int64_t> out;
  for (std::int64_t p = 2; p * p <= n; ++p) {
    while (n % p == 0) {
      out.push_back(p);
      n /= p;
    }
  }
  if (n > 1) out.push_back(n);
  return out;
}

std::vector<std::int64_t> divisors(std::int64_t n) {
  std::vector<std::int64_t> out = {1};
  const std::vector<std::int64_t> primes = factorize(n);
  for (std::size_t i = 0; i < primes.size();) {
    // Multiply the divisors found so far by p, p^2, ... p^multiplicity.
    const std::int64_t p = primes[i];
    const std::size_t found = out.size();
    std::int64_t power = 1;
    for (; i < primes.size() && primes[i] == p; ++i) {
      power *= p;
      for (std::size_t j = 0; j < found; ++j) out.push_back(out[j] * power);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::int64_t count_tilings(std::int64_t extent, int levels) {
  // Multiset of prime multiplicities; tilings = product over primes of
  // C(multiplicity + levels - 1, levels - 1).
  std::map<std::int64_t, int> mult;
  for (std::int64_t p : factorize(extent)) ++mult[p];
  auto choose = [](std::int64_t n, std::int64_t k) {
    std::int64_t r = 1;
    for (std::int64_t i = 1; i <= k; ++i) r = r * (n - k + i) / i;
    return r;
  };
  std::int64_t total = 1;
  for (const auto& [p, m] : mult) {
    (void)p;
    total *= choose(m + levels - 1, levels - 1);
  }
  return total;
}

std::int64_t TileVector::product() const {
  std::int64_t p = 1;
  for (std::int64_t f : factors) p *= f;
  return p;
}

std::int64_t TileVector::inner_size(int level) const {
  std::int64_t p = 1;
  for (int i = level; i < levels(); ++i) p *= factors[static_cast<std::size_t>(i)];
  return p;
}

std::int64_t TileVector::smallest_movable(int level) const {
  std::int64_t v = factors[static_cast<std::size_t>(level)];
  if (v <= 1) return 0;
  for (std::int64_t p = 2; p * p <= v; ++p) {
    if (v % p == 0) return p;
  }
  return v;
}

bool TileVector::move_factor(int from, int to) {
  if (from == to) return false;
  std::int64_t p = smallest_movable(from);
  if (p == 0) return false;
  factors[static_cast<std::size_t>(from)] /= p;
  factors[static_cast<std::size_t>(to)] *= p;
  return true;
}

std::string TileVector::to_string() const {
  std::ostringstream out;
  out << '[';
  for (int i = 0; i < levels(); ++i) {
    if (i) out << 'x';
    out << factors[static_cast<std::size_t>(i)];
  }
  out << ']';
  return out.str();
}

TileVector trivial_tile(std::int64_t extent, int levels) {
  TileVector t;
  t.factors.assign(static_cast<std::size_t>(levels), 1);
  t.factors.back() = extent;
  return t;
}

TileVector random_tile(std::int64_t extent, int levels, Rng& rng) {
  TileVector t;
  t.factors.assign(static_cast<std::size_t>(levels), 1);
  for (std::int64_t p : factorize(extent)) {
    t.factors[rng.pick_index(static_cast<std::size_t>(levels))] *= p;
  }
  return t;
}

}  // namespace harl
