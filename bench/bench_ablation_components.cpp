/// Component-level ablation of HARL's four learned/adaptive levels (the rows
/// of the paper's Table 1, each switched off independently):
///
///   full HARL                — all four levels learned/adaptive
///   w/o adaptive stopping    — fixed-length tracks ("Hierarchical-RL", Fig. 7a)
///   w/o sketch MAB           — uniform sketch choice (Ansor's assumption)
///   w/o RL policy            — uniform random parameter modifications
///   w/o RL + w/o adaptive    — both off: a cost-model-guided random walk
///
/// Extends the paper's Figure 7(a)/Table 4 ablations to every component on
/// the GEMM-L headline operator.  Expected shape: removing any component
/// costs performance or search speed; the RL policy and adaptive stopping
/// carry the largest margins.

#include "bench_common.hpp"

using namespace harl;
using namespace harl::bench;

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  std::int64_t trials = args.trials > 0 ? args.trials : (args.paper ? 1000 : 300);
  Subgraph gemm = make_gemm(1024, 1024, 1024);

  std::printf("Component ablation on GEMM-L 1024^3 (%lld trials, %s preset)\n\n",
              (long long)trials, args.paper ? "paper" : "quick");

  struct Variant {
    const char* name;
    bool adaptive;
    bool sketch_mab;
    bool rl_policy;
  };
  std::vector<Variant> variants = {
      {"HARL (full)", true, true, true},
      {"w/o adaptive stopping", false, true, true},
      {"w/o sketch MAB", true, false, true},
      {"w/o RL policy", true, true, false},
      {"w/o RL + adaptive", false, true, false},
  };

  struct Result {
    double best_ms;
    std::vector<CurvePoint> curve;
  };
  std::vector<Result> results;
  for (const Variant& v : variants) {
    // Each registered HARL policy fixes stop.enabled, so the fixed-length
    // variants must run the "Hierarchical-RL" policy.
    PolicyKind kind = v.adaptive ? PolicyKind::kHarl : PolicyKind::kHarlFixedLength;
    SearchOptions opts = args.options(kind);
    opts.harl.use_sketch_mab = v.sketch_mab;
    opts.harl.use_rl_policy = v.rl_policy;
    TuningSession session(gemm, HardwareConfig::xeon_6226r(), opts);
    session.run(trials);
    results.push_back(
        {session.task_best_ms(0), session.scheduler().task(0).curve()});
  }

  double full_best = results[0].best_ms;
  Table t("HARL component ablation");
  t.set_header({"variant", "best ms", "vs full HARL", "trials to full-HARL best"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    std::int64_t reach = trials_to_reach(results[i].curve, full_best);
    t.add(variants[i].name, Table::fmt(results[i].best_ms, 4),
          Table::fmt(full_best / results[i].best_ms, 3),
          reach >= 0 ? std::to_string(reach) : std::string("never"));
  }
  t.print();
  args.maybe_save(t, "ablation_components");
  std::printf("\n(each row removes one Table 1 mechanism; 'vs full HARL' < 1.0 means\n"
              " the component was contributing performance)\n");
  return 0;
}
