/// Reproduces Figure 5 (normalized operator performance, Ansor vs HARL) and
/// Figure 6 (normalized search time) of the paper: the seven Table 6 operator
/// suites at batch sizes 1 and 16 on the CPU hardware model.
///
/// Shape expected from the paper: HARL's normalized performance is 1.0
/// everywhere (it is the best), Ansor lands around 0.78-0.94; HARL reaches
/// Ansor's final best using a fraction of Ansor's trials (0.23-0.63).
///
/// Default: the first (headline) configuration of each suite; pass
/// --all-configs to sweep all 4 configurations per suite (averaged).

#include "bench_common.hpp"

using namespace harl;
using namespace harl::bench;

namespace {

struct RunResult {
  double best_ms = 0;
  std::vector<CurvePoint> curve;
};

RunResult tune(const Subgraph& graph, PolicyKind kind, const BenchArgs& args,
               std::int64_t trials) {
  TuningSession session(graph, HardwareConfig::xeon_6226r(), args.options(kind));
  session.run(trials);
  return {session.task_best_ms(0), session.scheduler().task(0).curve()};
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  Flags flags(program_name(argv[0]));
  args.declare(&flags);
  bool all_configs = false;
  flags.add_switch("--all-configs", &all_configs,
                   "all 4 configurations per suite, averaged");
  flags.parse(argc, argv);
  std::int64_t trials = args.trials > 0 ? args.trials : (args.paper ? 1000 : 300);

  std::printf("Figures 5 & 6: tensor operator optimization, Ansor vs HARL\n");
  std::printf("(trials per run: %lld, %s preset)\n\n", (long long)trials,
              args.paper ? "paper" : "quick");

  for (std::int64_t batch : {std::int64_t{1}, std::int64_t{16}}) {
    Table perf("Figure 5: normalized performance, batch=" + std::to_string(batch));
    perf.set_header({"suite", "Ansor", "HARL", "HARL/Ansor speedup"});
    Table time("Figure 6: normalized search time, batch=" + std::to_string(batch));
    time.set_header({"suite", "Ansor", "HARL", "HARL trials to reach Ansor-best"});

    for (const std::string& suite : table6_suite_names()) {
      auto cases = table6_suite(suite, batch);
      std::size_t n_cases = all_configs ? cases.size() : 1;
      double ansor_norm_sum = 0, harl_norm_sum = 0, speedup_sum = 0;
      double time_frac_sum = 0;
      std::int64_t reach_sum = 0;
      for (std::size_t c = 0; c < n_cases; ++c) {
        RunResult ansor = tune(cases[c].graph, PolicyKind::kAnsor, args, trials);
        RunResult harl = tune(cases[c].graph, PolicyKind::kHarl, args, trials);
        double best = std::min(ansor.best_ms, harl.best_ms);
        ansor_norm_sum += normalized_perf(ansor.best_ms, best);
        harl_norm_sum += normalized_perf(harl.best_ms, best);
        speedup_sum += ansor.best_ms / harl.best_ms;
        // Search time: trials HARL needs to match Ansor's final best,
        // normalized by Ansor's full budget (the paper normalizes to [0,1]).
        std::int64_t reach = trials_to_reach(harl.curve, ansor.best_ms);
        if (reach < 0) reach = trials;
        reach_sum += reach;
        time_frac_sum += static_cast<double>(reach) / static_cast<double>(trials);
      }
      double inv = 1.0 / static_cast<double>(n_cases);
      perf.add(suite, Table::fmt(ansor_norm_sum * inv, 3),
               Table::fmt(harl_norm_sum * inv, 3),
               Table::fmt(speedup_sum * inv, 3));
      time.add(suite, "1.000", Table::fmt(time_frac_sum * inv, 3),
               std::to_string(reach_sum / static_cast<std::int64_t>(n_cases)) + "/" +
                   std::to_string(trials));
    }
    perf.print();
    std::printf("\n");
    time.print();
    std::printf("\n");
    args.maybe_save(perf, "fig5_batch" + std::to_string(batch));
    args.maybe_save(time, "fig6_batch" + std::to_string(batch));
  }
  return 0;
}
