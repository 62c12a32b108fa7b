#include "util/parse.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace harl {

const char* parse_positive(const char* p, std::int64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(*p))) return nullptr;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(p, &end, 10);
  return *out > 0 && errno != ERANGE ? end : nullptr;
}

bool parse_u64(const char* p, std::uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(p, &end, 10);
  return errno != ERANGE && *end == '\0';
}

bool parse_nonnegative(const char* p, double* out) {
  if (!std::isdigit(static_cast<unsigned char>(*p)) && *p != '.') return false;
  if (p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) return false;  // strtod reads hex
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(p, &end);
  return errno != ERANGE && *end == '\0' && std::isfinite(*out);
}

}  // namespace harl
