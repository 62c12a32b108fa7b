#pragma once

/// \file harl_search.hpp
/// The full HARL policy (Algorithm 1): sketch-level SW-UCB, PPO-guided
/// modification tracks, adaptive stopping, cost-model top-K measurement.
/// Invariant: a round is deterministic from the per-task seed and history.
/// Collaborators: bandit, rl, adaptive_stopping, search_common.

#include <memory>
#include <vector>

#include "bandit/sw_ucb.hpp"
#include "features/feature_extractor.hpp"
#include "rl/ppo.hpp"
#include "search/adaptive_stopping.hpp"
#include "search/search_common.hpp"

namespace harl {

/// HARL per-subgraph search configuration (Tables 5 and Section 6.2).
struct HarlConfig {
  AdaptiveStopConfig stop;   ///< lambda/rho/p-hat/I; stop.enabled=false gives
                             ///< the fixed-length "Hierarchical-RL" ablation
  PpoConfig ppo;             ///< actor-critic hyper-parameters
  SwUcbConfig sketch_ucb;    ///< c = 0.25, window = 256 (Table 5)
  double measure_epsilon = 0.05;  ///< random fraction of the top-K slots

  // Component-ablation switches (each removes one row of Table 1's "HARL"
  // column; used by bench_ablation_components):
  bool use_sketch_mab = true;  ///< false: uniform sketch choice (Ansor-style)
  bool use_rl_policy = true;   ///< false: uniform random valid actions; the
                               ///< advantage degenerates to the raw reward
  std::uint64_t seed = 1;
};

/// The paper's core contribution (Sections 4 and 5, Algorithm 1, Figure 3):
///
/// Per tuning round:
///   1. the sketch-level non-stationary MAB (SW-UCB, Eq. 1/2) picks sketch u;
///   2. I initial schedules of u are sampled (PHASE 1 of Figure 3) and
///      evolved as independent *schedule tracks* by the PPO actor: each step
///      the actor emits one sub-action per modification-type head (Table 3),
///      the cost model scores the new state, the reward is the relative
///      score change, and the critic's one-step advantage (Eq. 6) feeds both
///      PPO training and the adaptive-stopping module;
///   3. every `lambda` steps the lowest-advantage fraction `rho` of tracks is
///      eliminated until `p-hat` remain (Section 5, Figure 4);
///   4. all visited schedules enter the top-K selection phase (PHASE 2):
///      the K best cost-model scores are measured, the cost model and the
///      sketch bandit are updated from the results.
class HarlSearchPolicy : public SearchPolicy {
 public:
  HarlSearchPolicy(TaskState* task, HarlConfig cfg);

  const char* name() const override {
    return cfg_.stop.enabled ? "HARL" : "Hierarchical-RL";
  }

  std::vector<MeasuredRecord> tune_round(Measurer& measurer,
                                         int num_measures) override;

  const SwUcb& sketch_bandit() const { return sketch_mab_; }
  const HarlConfig& config() const { return cfg_; }

  /// Length of the longest completed track in the last round (diagnostics
  /// for Figure 7b's "longest tracks" statistic).
  int last_round_max_track_len() const { return last_round_max_len_; }

 private:
  PpoAgent& agent_for(int sketch_id);

  TaskState* task_;
  HarlConfig cfg_;
  SwUcb sketch_mab_;
  FeatureExtractor fx_;
  /// Per sketch (lazy): the agent and the codec of the states its ring stores.
  std::vector<std::unique_ptr<RlStateCodec>> codecs_;
  std::vector<std::unique_ptr<PpoAgent>> agents_;
  Rng rng_;
  int last_round_max_len_ = 0;
};

}  // namespace harl
