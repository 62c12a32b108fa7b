#pragma once

/// \file parse.hpp
/// Strict number parsing for command-line flags.  Invariant: a value is
/// accepted only when it is plain digits (no sign, space or suffix) and in
/// range; anything else is an error, never a silent 0.  Collaborators:
/// tune_network, harl_serve, harl_query, the bench harnesses' BenchArgs.

#include <cstdint>

namespace harl {

/// Parses a positive decimal integer (no sign or space) at `p`; returns the
/// character after it, or nullptr for no digit, zero or overflow.
const char* parse_positive(const char* p, std::int64_t* out);

/// Parses an unsigned 64-bit decimal integer (digits only) filling all of
/// `p`; false for anything else or overflow.
bool parse_u64(const char* p, std::uint64_t* out);

/// Parses the value `v` of flag `name` as an integer in [lo, hi] (digits
/// only, 0 <= lo <= hi) filling all of `v`.  Prints the reason to stderr and
/// returns false otherwise.
bool parse_int_flag(const char* name, const char* v, std::int64_t lo,
                    std::int64_t hi, std::int64_t* out);

/// `parse_int_flag` into a narrower integer (`hi` must fit it).
template <typename Int>
bool parse_int_flag(const char* name, const char* v, std::int64_t lo,
                    std::int64_t hi, Int* out) {
  std::int64_t n = 0;
  if (!parse_int_flag(name, v, lo, hi, &n)) return false;
  *out = static_cast<Int>(n);
  return true;
}

/// Parses a finite, non-negative decimal number (digits, '.', an exponent;
/// no sign or space) filling all of `p`; false for anything else.
bool parse_nonnegative(const char* p, double* out);

}  // namespace harl
