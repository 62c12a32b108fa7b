#pragma once

/// \file fnv.hpp
/// 64-bit FNV-1a, the one hash behind every fingerprint in the library
/// (sketch salts, schedules, hardware, GBDT models, published caches).
/// Invariant: a caller's mixing sequence fully determines its fingerprint,
/// and fingerprints are persisted, so the constants never change.

#include <cstdint>
#include <string_view>

namespace harl {

/// Incremental FNV-1a over 64-bit words: each `mix` xors one word into the
/// state and multiplies by the FNV prime.
class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;
  }
  /// Mixes every byte of `text` as one word, read as an unsigned char.
  void mix_bytes(std::string_view text) {
    for (unsigned char c : text) mix(c);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;  // offset basis
};

/// FNV-1a over the bytes of `text`, mapped away from 0 so that 0 can mean
/// "no fingerprint" to callers.
inline std::uint64_t fnv1a_nonzero(std::string_view text) {
  Fnv1a h;
  h.mix_bytes(text);
  return h.value() == 0 ? 1 : h.value();
}

}  // namespace harl
