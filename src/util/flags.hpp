#pragma once

/// \file flags.hpp
/// One declared, strict flag table per command line.  A binary declares
/// each flag once (name, kind, target, bounds, one-line help); `parse` reads
/// `--name=value` and `--name value` alike and fills the targets, and
/// `--help` is printed from the same declarations.  A declaration whose name
/// does not start with "--" takes the positional arguments, in order, each
/// read as its kind.  Invariant: an unknown flag, a missing value, a value
/// that is malformed or out of range, or a switch given a value is a usage
/// error: one reason on stderr and exit 2, before any work starts.
/// Collaborators: util/parse (the number parsers), every example CLI and
/// bench/bench_common.hpp's BenchArgs.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace harl {

class Flags {
 public:
  /// `program` heads the usage line: "usage: PROGRAM [flags] POSITIONAL".
  explicit Flags(std::string program);

  /// A switch: sets `*target`; never takes a value.
  void add_switch(const std::string& name, bool* target, std::string help);
  /// A string (any text, empty included); the last occurrence wins.
  void add_string(const std::string& name, const char* meta, std::string* target,
                  std::string help);
  /// A repeatable string: `each` receives every occurrence, in order.
  void add_each(const std::string& name, const char* meta,
                std::function<void(const std::string&)> each, std::string help);
  /// An integer in [lo, hi] (0 <= lo <= hi; digits only); `hi` must fit Int.
  template <typename Int>
  void add_int(const std::string& name, const char* meta, Int* target,
               std::int64_t lo, std::int64_t hi, std::string help) {
    add_int64(name, meta, lo, hi,
              [target](std::int64_t v) { *target = static_cast<Int>(v); },
              std::move(help));
  }
  /// An unsigned 64-bit integer (digits only).
  void add_u64(const std::string& name, const char* meta, std::uint64_t* target,
               std::string help);
  /// A finite decimal number, >= 0, or > 0 when `positive`.
  void add_double(const std::string& name, const char* meta, double* target,
                  bool positive, std::string help);

  /// Reads `args` into the targets.  Returns "" when every argument parsed,
  /// else the one reason it did not (the first bad argument).  `--help`
  /// stops reading and sets `*help`.
  std::string read(const std::vector<std::string>& args, bool* help);
  /// `read` of argv[first..argc): a reason goes to stderr and exits 2;
  /// `--help` prints `help()` on stdout and exits 0.
  void parse(int argc, char** argv, int first = 1);

  /// The usage line, then one line per declaration, `--help` last.
  std::string help() const;
  /// Whether `name` occurred in the arguments read.
  bool given(const std::string& name) const;

  /// Prints `reason` to stderr and exits 2: for the usage errors a binary
  /// finds in a value the table handed it as a string.
  [[noreturn]] static void fail(const std::string& reason);

 private:
  struct Decl {
    std::string name;
    std::string meta;  ///< value placeholder
    std::string help;
    std::string want;  ///< what a bad value was expected to be
    std::function<bool(const std::string&)> set;  ///< false: a bad value
    bool takes_value = true;  ///< false for a switch
    bool given = false;
  };

  void add(Decl decl);
  void add_int64(const std::string& name, const char* meta, std::int64_t lo,
                 std::int64_t hi, std::function<void(std::int64_t)> store,
                 std::string help);

  std::string program_;
  std::vector<Decl> decls_;
};

}  // namespace harl
