#include "util/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/logging.hpp"
#include "util/parse.hpp"

namespace harl {

namespace {

bool is_flag(const std::string& name) { return name.rfind("--", 0) == 0; }

}  // namespace

Flags::Flags(std::string program) : program_(std::move(program)) {}

void Flags::add(Decl decl) {
  for (const Decl& d : decls_) {
    HARL_CHECK(d.name != decl.name, "flag declared twice");
    HARL_CHECK(is_flag(d.name) || is_flag(decl.name), "a second positional declaration");
  }
  HARL_CHECK(decl.name != "--help", "--help is built in");
  decls_.push_back(std::move(decl));
}

void Flags::add_switch(const std::string& name, bool* target, std::string help) {
  add_each(name, "", [target](const std::string&) { *target = true; }, std::move(help));
  decls_.back().takes_value = false;
}

void Flags::add_string(const std::string& name, const char* meta, std::string* target,
                       std::string help) {
  add_each(name, meta, [target](const std::string& v) { *target = v; }, std::move(help));
}

void Flags::add_each(const std::string& name, const char* meta,
                     std::function<void(const std::string&)> each, std::string help) {
  add({name, meta, std::move(help), "", [each = std::move(each)](const std::string& v) {
         each(v);
         return true;
       }});
}

void Flags::add_int64(const std::string& name, const char* meta, std::int64_t lo,
                      std::int64_t hi, std::function<void(std::int64_t)> store,
                      std::string help) {
  HARL_CHECK(0 <= lo && lo <= hi, "integer flag bounds");
  std::string want = hi == INT64_MAX
                         ? "an integer >= " + std::to_string(lo)
                         : "an integer in [" + std::to_string(lo) + ", " +
                               std::to_string(hi) + "]";
  add({name, meta, std::move(help), std::move(want),
       [lo, hi, store = std::move(store)](const std::string& v) {
         std::uint64_t n = 0;
         if (!parse_u64(v.c_str(), &n) || n < static_cast<std::uint64_t>(lo) ||
             n > static_cast<std::uint64_t>(hi)) {
           return false;
         }
         store(static_cast<std::int64_t>(n));
         return true;
       }});
}

void Flags::add_u64(const std::string& name, const char* meta, std::uint64_t* target,
                    std::string help) {
  add({name, meta, std::move(help), "an unsigned 64-bit integer",
       [target](const std::string& v) { return parse_u64(v.c_str(), target); }});
}

void Flags::add_double(const std::string& name, const char* meta, double* target,
                       bool positive, std::string help) {
  add({name, meta, std::move(help),
       positive ? "a positive number" : "a non-negative number",
       [target, positive](const std::string& v) {
         double x = 0;
         if (!parse_nonnegative(v.c_str(), &x) || (positive && !(x > 0))) return false;
         *target = x;
         return true;
       }});
}

std::string Flags::read(const std::vector<std::string>& args, bool* help) {
  *help = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool flag = arg[0] == '-';
    const std::size_t eq = flag ? arg.find('=') : std::string::npos;
    const std::string name = arg.substr(0, eq);
    std::string value = flag ? "" : arg;
    if (name == "--help") {
      if (eq != std::string::npos) return "--help takes no value";
      *help = true;
      return "";
    }
    auto d = std::find_if(decls_.begin(), decls_.end(), [&](const Decl& x) {
      return flag ? x.name == name : !is_flag(x.name);
    });
    if (d == decls_.end()) return (flag ? "unknown flag " : "unexpected argument ") + arg;
    if (flag && !d->takes_value) {
      if (eq != std::string::npos) return name + " takes no value";
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (flag) {
      if (i + 1 == args.size()) return "missing value for " + name;
      value = args[++i];
    }
    if (!d->set(value)) {
      return "bad " + d->name + (flag ? "=" : " ") + value + ": want " + d->want;
    }
    d->given = true;
  }
  return "";
}

void Flags::parse(int argc, char** argv, int first) {
  bool help_wanted = false;
  std::string error =
      read(std::vector<std::string>(argv + first, argv + argc), &help_wanted);
  if (!error.empty()) fail(error);
  if (help_wanted) {
    std::fputs(help().c_str(), stdout);
    std::exit(0);
  }
}

std::string Flags::help() const {
  auto label = [](const Decl& d) {
    return d.takes_value && is_flag(d.name) ? d.name + "=" + d.meta : d.name;
  };
  std::string usage = "usage: " + program_ + " [flags]";
  std::size_t width = 6;  // "--help"
  for (const Decl& d : decls_) {
    if (!is_flag(d.name)) usage += " " + d.name;
    width = std::max(width, label(d).size());
  }
  std::string out = usage + "\n";
  auto line = [&](const std::string& l, const std::string& h) {
    out += "  " + l + std::string(width - l.size() + 2, ' ') + h + "\n";
  };
  for (const Decl& d : decls_) line(label(d), d.help);
  line("--help", "print this help and exit");
  return out;
}

bool Flags::given(const std::string& name) const {
  for (const Decl& d : decls_) {
    if (d.name == name) return d.given;
  }
  return false;
}

void Flags::fail(const std::string& reason) {
  std::fprintf(stderr, "%s\n", reason.c_str());
  std::exit(2);
}

}  // namespace harl
