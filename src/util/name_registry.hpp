#pragma once

/// \file name_registry.hpp
/// NameRegistry: the case-insensitive, thread-safe name -> entry map behind
/// PolicyRegistry and TaskSelectRegistry.  Invariant: a name is taken once,
/// whatever its case, and keeps the spelling it was registered with.
/// Lookups return a copy of the entry, so a caller runs the factory it holds
/// with no lock taken, and that factory may look names up itself.

#include <algorithm>
#include <cctype>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace harl {

template <typename Entry>
class NameRegistry {
 public:
  /// Registers `entry` under `name`.  Returns false (and keeps the existing
  /// entry) when the name is already taken, case-insensitively.
  bool add(const std::string& name, Entry entry) {
    std::string key = lowercase(name);
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.emplace(std::move(key), Named{name, std::move(entry)}).second;
  }

  bool contains(const std::string& name) const {
    std::string key = lowercase(name);
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(key) > 0;
  }

  /// A copy of the entry registered under `name` (case-insensitive), or
  /// nullopt for unknown names.
  std::optional<Entry> find(const std::string& name) const {
    std::string key = lowercase(name);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second.entry;
  }

  /// Registered names in their registration spelling, sorted.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      out.reserve(entries_.size());
      for (const auto& kv : entries_) out.push_back(kv.second.canonical_name);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Named {
    std::string canonical_name;
    Entry entry;
  };

  static std::string lowercase(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return s;
  }

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Named> entries_;  ///< keyed lowercase
};

}  // namespace harl
