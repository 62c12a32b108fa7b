#pragma once

/// \file parse.hpp
/// Strict number parsing for command-line flags.  Invariant: a value is
/// accepted only when it is plain digits (no sign, space or suffix) and in
/// range; anything else is an error, never a silent 0.  Collaborators:
/// util/flags (the flag table's number kinds) and the binaries' parsers of
/// structured values (gemm:MxKxN, HOST:PORT, comma lists).

#include <cstdint>

namespace harl {

/// Parses a positive decimal integer (no sign or space) at `p`; returns the
/// character after it, or nullptr for no digit, zero or overflow.
const char* parse_positive(const char* p, std::int64_t* out);

/// Parses an unsigned 64-bit decimal integer (digits only) filling all of
/// `p`; false for anything else or overflow.
bool parse_u64(const char* p, std::uint64_t* out);

/// Parses a finite, non-negative decimal number (digits, '.', an exponent;
/// no sign or space) filling all of `p`; false for anything else.
bool parse_nonnegative(const char* p, double* out);

}  // namespace harl
