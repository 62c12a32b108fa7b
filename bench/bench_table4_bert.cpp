/// Reproduces Table 4 (BERT-on-CPU subgraph breakdown) and Figure 10 (the
/// subgraph-MAB trial-allocation ablation):
///
///   Table 4: per-subgraph execution-time contribution of HARL's output, the
///   per-subgraph speedup of HARL over Ansor, the estimated (weighted-sum)
///   speedup, and the HARL-without-subgraph-MAB ablation row.
///
///   Figure 10: per-subgraph trial allocations for HARL vs HARL w/o the
///   subgraph MAB, split into trials spent before reaching Ansor's best
///   ("= Ansor") and after (" > Ansor").

#include "bench_common.hpp"

using namespace harl;
using namespace harl::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::int64_t trials = args.trials > 0 ? args.trials : (args.paper ? 6000 : 900);
  HardwareConfig hw = HardwareConfig::xeon_6226r();

  std::printf("Table 4 & Figure 10: BERT on CPU (%lld trials per run, %s preset)\n\n",
              (long long)trials, args.paper ? "paper" : "quick");

  // --- The three tuning runs ------------------------------------------------
  // Ansor baseline (greedy allocation), full HARL, HARL without subgraph MAB
  // (HARL's per-task policy under the greedy allocator).
  auto run = [&](PolicyKind kind, const char* task_select) {
    SearchOptions opts = args.options(kind);
    opts.task_select_name = task_select;
    auto session = std::make_unique<TuningSession>(make_bert(1), hw, opts);
    session->run(trials);
    return session;
  };
  auto ansor = run(PolicyKind::kAnsor, "");
  auto harl = run(PolicyKind::kHarl, "");
  auto harl_nomab = run(PolicyKind::kHarl, "greedy-gradient");

  const Network& net = harl->network();
  int n = harl->scheduler().num_tasks();

  // --- Table 4 ---------------------------------------------------------------
  double harl_total = harl->latency_ms();
  Table t4("Table 4: BERT subgraph breakdown (CPU)");
  t4.set_header({"subgraph", "exec-time contribution", "speedup vs Ansor"});
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return net.subgraphs[static_cast<std::size_t>(a)].weight() * harl->task_best_ms(a) >
           net.subgraphs[static_cast<std::size_t>(b)].weight() * harl->task_best_ms(b);
  });
  for (int i : order) {
    double contrib = net.subgraphs[static_cast<std::size_t>(i)].weight() *
                     harl->task_best_ms(i) / harl_total;
    double speedup = ansor->task_best_ms(i) / harl->task_best_ms(i);
    t4.add(net.subgraphs[static_cast<std::size_t>(i)].name(),
           Table::fmt(contrib * 100, 1) + "%", Table::fmt(speedup, 2) + "x");
  }
  double est_speedup = ansor->latency_ms() / harl->latency_ms();
  double nomab_speedup = ansor->latency_ms() / harl_nomab->latency_ms();
  t4.add("Estimated HARL (sum)", "100%", Table::fmt(est_speedup, 2) + "x");
  t4.add("Measured HARL (w/o subgraph MAB)", "-", Table::fmt(nomab_speedup, 2) + "x");
  t4.print();
  std::printf(
      "\n(paper: ~1.10x estimated speedup; w/o the subgraph MAB the speedup drops —\n"
      " greedy allocation over-feeds the big GEMMs)\n\n");
  args.maybe_save(t4, "table4_bert");

  // --- Figure 10 --------------------------------------------------------------
  // Split each run's per-task allocations at the round where its estimated
  // latency first reached Ansor's final latency.
  auto split_allocations = [&](TuningSession& session) {
    double target = ansor->latency_ms();
    std::vector<std::int64_t> upto(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> after(static_cast<std::size_t>(n), 0);
    bool reached = false;
    int k = session.scheduler().options().measures_per_round;
    for (const auto& r : session.scheduler().round_log()) {
      (reached ? after : upto)[static_cast<std::size_t>(r.task)] += k;
      if (!reached && std::isfinite(r.net_latency_ms) && r.net_latency_ms <= target) {
        reached = true;
      }
    }
    return std::make_pair(upto, after);
  };
  auto [harl_upto, harl_after] = split_allocations(*harl);
  auto [nomab_upto, nomab_after] = split_allocations(*harl_nomab);

  Table f10("Figure 10: subgraph trial allocations (= Ansor | > Ansor)");
  f10.set_header({"subgraph", "HARL =A", "HARL >A", "w/oMAB =A", "w/oMAB >A", "HARL total bar"});
  std::int64_t max_total = 1;
  for (int i = 0; i < n; ++i) {
    max_total = std::max(max_total, harl_upto[static_cast<std::size_t>(i)] +
                                        harl_after[static_cast<std::size_t>(i)]);
    max_total = std::max(max_total, nomab_upto[static_cast<std::size_t>(i)] +
                                        nomab_after[static_cast<std::size_t>(i)]);
  }
  for (int i : order) {
    std::size_t k = static_cast<std::size_t>(i);
    f10.add(net.subgraphs[k].name(), harl_upto[k], harl_after[k], nomab_upto[k],
            nomab_after[k],
            ascii_bar(static_cast<double>(harl_upto[k] + harl_after[k]),
                      static_cast<double>(max_total), 24));
  }
  f10.print();
  std::printf(
      "\n(paper: with the MAB the big GEMM subgraphs get FEWER total trials and the\n"
      " small-but-improvable subgraphs like Softmax get more)\n");
  args.maybe_save(f10, "fig10_allocations");
  return 0;
}
