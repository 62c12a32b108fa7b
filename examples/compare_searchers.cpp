/// Compare search strategies on one operator (a 14x14x256x256 3x3
/// convolution — the C2D workload class of Table 6) under the same trial
/// budget, printing a convergence table: Table 1 of the paper, in numbers.
///
///   ./build/compare_searchers [trials] [--policy=NAME[,NAME...]]
///
/// `--policy` picks a subset of the searchers by registry name (default: all
/// six built-ins).  Exit codes: 0 done, 1 an unknown or empty policy list,
/// 2 usage error.

#include <cstdio>
#include <sstream>
#include <string>

#include "core/harl.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace harl;
  std::int64_t trials = 300;
  std::vector<std::string> names;
  for (PolicyKind kind : {PolicyKind::kRandom, PolicyKind::kAutoTvmSa,
                          PolicyKind::kFlextensor, PolicyKind::kAnsor,
                          PolicyKind::kHarlFixedLength, PolicyKind::kHarl}) {
    names.push_back(policy_kind_name(kind));
  }

  std::string policy_list;
  Flags flags("compare_searchers");
  flags.add_int("[trials]", "", &trials, 1, INT64_MAX, "trial budget, as --trials");
  flags.add_int("--trials", "N", &trials, 1, INT64_MAX,
                "trial budget per searcher (default 300)");
  flags.add_string("--policy", "NAME[,NAME...]", &policy_list,
                   "searchers by registry name (default: all six)");
  flags.parse(argc, argv);

  if (flags.given("--policy")) {
    // Comma-separated registry names (case-insensitive).
    names.clear();
    std::stringstream list(policy_list);
    for (std::string name; std::getline(list, name, ',');) {
      if (name.empty()) continue;
      if (!PolicyRegistry::instance().contains(name)) {
        std::fprintf(stderr, "unknown policy \"%s\"; registered names:\n", name.c_str());
        for (const std::string& n : PolicyRegistry::instance().names()) {
          std::fprintf(stderr, "  %s\n", n.c_str());
        }
        return 1;
      }
      names.push_back(name);
    }
    if (names.empty()) {
      std::fprintf(stderr, "--policy= needs at least one name\n");
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
