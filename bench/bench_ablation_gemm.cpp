/// Reproduces Figure 7 of the paper, the ablation study on one GEMM-L
/// (1024x1024x1024) operator:
///
///  (a) trials-vs-normalized-performance curves for Ansor, Hierarchical-RL
///      (HARL with fixed-length episodes) and full HARL — HARL should
///      dominate early and the adaptive-stopping module should add a margin
///      over the fixed-length variant;
///  (b) histogram of the critical step (position of the best-scored schedule
///      along each track, relative to track length) for fixed-length vs
///      adaptive-stopping — adaptive stopping shifts mass to the last bins
///      (few wasted steps), fixed length leaves the best early in the track.

#include "bench_common.hpp"

using namespace harl;
using namespace harl::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::int64_t trials = args.trials > 0 ? args.trials : (args.paper ? 1000 : 400);

  Subgraph gemm = make_gemm(1024, 1024, 1024);
  std::printf("Figure 7(a): GEMM-L 1024^3 ablation, %lld trials (%s preset)\n\n",
              (long long)trials, args.paper ? "paper" : "quick");

  struct Run {
    PolicyKind kind;
    double best_ms = 0;
    std::vector<CurvePoint> curve;
    std::vector<double> critical;
  };
  std::vector<Run> runs = {{PolicyKind::kAnsor, 0, {}, {}},
                           {PolicyKind::kHarlFixedLength, 0, {}, {}},
                           {PolicyKind::kHarl, 0, {}, {}}};
  for (Run& r : runs) {
    TuningSession session(gemm, HardwareConfig::xeon_6226r(), args.options(r.kind));
    session.run(trials);
    r.best_ms = session.task_best_ms(0);
    r.curve = session.scheduler().task(0).curve();
    r.critical = session.scheduler().policy(0).critical_positions();
  }

  double global_best = 1e300;
  for (const Run& r : runs) global_best = std::min(global_best, r.best_ms);

  Table curve_table("Figure 7(a): normalized performance vs trials");
  std::vector<std::string> header = {"trials"};
  for (const Run& r : runs) header.push_back(policy_kind_name(r.kind));
  curve_table.set_header(header);
  for (std::int64_t t = trials / 10; t <= trials; t += trials / 10) {
    std::vector<std::string> row = {std::to_string(t)};
    for (const Run& r : runs) {
      double b = best_at(r.curve, t);
      row.push_back(Table::fmt(std::isfinite(b) ? global_best / b : 0.0, 3));
    }
    curve_table.add_row(row);
  }
  curve_table.print();
  args.maybe_save(curve_table, "fig7a_curves");

  std::printf("\nFinal bests: ");
  for (const Run& r : runs) {
    std::printf("%s=%.4f ms  ", policy_kind_name(r.kind), r.best_ms);
  }
  std::printf("\n\nFigure 7(b): critical-step position histograms\n");
  const char* labels[2] = {"Fixed-Length", "Adaptive-Stopping"};
  const Run* hist_runs[2] = {&runs[1], &runs[2]};
  Table fig7b("Figure 7(b): critical-step distribution (fraction per decile)");
  fig7b.set_header({"position", labels[0], labels[1]});
  Histogram hists[2] = {Histogram(0, 1, 10), Histogram(0, 1, 10)};
  for (int k = 0; k < 2; ++k) hists[k].add_all(hist_runs[k]->critical);
  for (std::size_t b = 0; b < 10; ++b) {
    std::vector<std::string> row = {
        Table::fmt(hists[0].bin_lo(b) * 100, 0) + "-" +
        Table::fmt(hists[0].bin_hi(b) * 100, 0) + "%"};
    for (int k = 0; k < 2; ++k) {
      double frac = hists[k].total() > 0 ? static_cast<double>(hists[k].count(b)) /
                                               static_cast<double>(hists[k].total())
                                         : 0;
      row.push_back(Table::fmt(frac, 3));
    }
    fig7b.add_row(row);
  }
  fig7b.print();
  args.maybe_save(fig7b, "fig7b_critical_steps");

  std::printf(
      "\nlast-10%% mass: fixed=%.3f adaptive=%.3f (paper: adaptive pushes most\n"
      "critical steps into the final decile => <10%% wasted steps)\n",
      hists[0].fraction_at_or_above(0.9), hists[1].fraction_at_or_above(0.9));
  return 0;
}
