#pragma once

/// \file flextensor_search.hpp
/// Flextensor baseline: fixed-sketch RL search (PPO over modifications of
/// one sketch, no hierarchy, no adaptive stopping).  Collaborators:
/// TaskState, rl/ppo.

#include <memory>

#include "features/feature_extractor.hpp"
#include "rl/ppo.hpp"
#include "search/search_common.hpp"

namespace harl {

/// Configuration of the Flextensor-style baseline.
struct FlextensorConfig {
  int tracks = 8;         ///< parameter batches explored per round
  int track_length = 16;  ///< fixed number of steps per track
  PpoConfig ppo;
  std::uint64_t seed = 3;
};

/// Reimplementation of the Flextensor baseline (Table 1 row 2):
///   - a *fixed* sketch (the first generated one — Flextensor's general
///     template),
///   - an RL agent for schedule selection,
///   - fixed-length, uniformly allocated schedule tracks,
///   - every visited schedule is measured directly (no cost model), which is
///     why each round consumes tracks x track_length trials.
///
/// `critical_positions()` records where on each track the best measurement
/// landed — the data behind Figure 1c's search-path-efficiency histogram.
class FlextensorSearchPolicy : public SearchPolicy {
 public:
  FlextensorSearchPolicy(TaskState* task, FlextensorConfig cfg);

  const char* name() const override { return "Flextensor"; }

  /// `num_measures` is ignored: Flextensor's trial consumption is
  /// tracks x track_length by construction.
  std::vector<MeasuredRecord> tune_round(Measurer& measurer,
                                         int num_measures) override;

 private:
  TaskState* task_;
  FlextensorConfig cfg_;
  FeatureExtractor fx_;
  std::unique_ptr<RlStateCodec> codec_;  ///< states of agent_'s replay ring
  std::unique_ptr<PpoAgent> agent_;
  Rng rng_;
};

}  // namespace harl
