/// Compare search strategies on one operator (a 14x14x256x256 3x3
/// convolution — the C2D workload class of Table 6) under the same trial
/// budget, printing a convergence table: Table 1 of the paper, in numbers.
///
///   ./build/compare_searchers [trials] [--trials=N]
///       [--policy=NAME[,NAME...]]   subset of searchers, by registry name
///                                   (default: all six built-ins)

#include <cstdio>
#include <cstring>
#include <string>

#include "core/harl.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  using namespace harl;
  std::int64_t trials = 300;
  std::vector<std::string> names;
  for (PolicyKind kind : {PolicyKind::kRandom, PolicyKind::kAutoTvmSa,
                          PolicyKind::kFlextensor, PolicyKind::kAnsor,
                          PolicyKind::kHarlFixedLength, PolicyKind::kHarl}) {
    names.push_back(policy_kind_name(kind));
  }

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--policy=", 9) == 0) {
      // Comma-separated registry names (case-insensitive).
      names.clear();
      std::string list = arg + 9;
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        std::string name = list.substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!name.empty()) {
          if (PolicyRegistry::instance().contains(name)) {
            names.push_back(name);
          } else {
            std::fprintf(stderr, "unknown policy \"%s\"; registered names:\n",
                         name.c_str());
            for (const std::string& n : PolicyRegistry::instance().names()) {
              std::fprintf(stderr, "  %s\n", n.c_str());
            }
            return 1;
          }
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (names.empty()) {
        std::fprintf(stderr, "--policy= needs at least one name\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--trials=", 9) == 0 || arg[0] != '-') {
      // --trials=N, or the legacy positional [trials].
      const char* v = arg[0] == '-' ? arg + 9 : arg;
      const char* end = parse_positive(v, &trials);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "bad trials %s: want a positive integer\n", v);
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 1;
    }
  }

  Subgraph conv = make_conv2d(1, 14, 14, 256, 256, 3, 1, 1);
  HardwareConfig cpu = HardwareConfig::xeon_6226r();
  std::printf("C2D(14,14,256,256,k3,s1,p1), %lld trials per searcher\n\n",
              static_cast<long long>(trials));

  Table table("search strategy comparison");
  std::vector<std::string> header = {"policy"};
  for (int frac = 1; frac <= 4; ++frac) {
    header.push_back("best@" + std::to_string(trials * frac / 4));
  }
  header.push_back("wall s");
  table.set_header(header);

  double overall_best = 1e300;
  std::vector<std::vector<std::string>> rows;
  for (const std::string& name : names) {
    SearchOptions opts = quick_options(PolicyKind::kHarl, 99);
    opts.policy_name = name;
    TuningSession session(conv, cpu, opts);
    session.run(trials);
    const auto& curve = session.scheduler().task(0).curve();
    std::vector<std::string> row = {name};
    for (int frac = 1; frac <= 4; ++frac) {
      row.push_back(Table::fmt(best_at(curve, trials * frac / 4), 4));
    }
    row.push_back(Table::fmt(session.wall_seconds(), 1));
    overall_best = std::min(overall_best, session.task_best_ms(0));
    rows.push_back(std::move(row));
  }
  for (auto& r : rows) table.add_row(std::move(r));
  table.print();
  std::printf("\nbest schedule found across all searchers: %.4f ms\n", overall_best);
  std::printf("(times are simulated milliseconds on the Xeon-6226R model)\n");
  return 0;
}
