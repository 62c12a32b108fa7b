#pragma once

/// \file presets.hpp
/// Option presets: `paper_options` reproduces Table 5 verbatim;
/// `quick_options` shrinks only scale knobs (tracks, population, minibatch)
/// so suites run in minutes while preserving every algorithmic property.
/// Collaborators: SearchOptions consumers everywhere (benches, examples).

#include "search/policy_registry.hpp"
#include "search/task_scheduler.hpp"

namespace harl {

/// Option presets.  Each sets `SearchOptions::policy_name` to the kind's
/// registry name (`policy_kind_name`), so a preset and a bare name run the
/// same search.
///
/// `paper_options` reproduces Table 5 / Section 6.2 verbatim: adaptive
/// stopping with lambda=20, rho=0.5, p-hat=64, 256 initial tracks; PPO with
/// lr_a=3e-4, lr_c=1e-3, gamma=0.9, w_MSE=0.5, w_entropy=0.01, T_rl=2;
/// SW-UCB with c=0.25, tau=256; gradient alpha=0.2, beta=2.
///
/// `quick_options` shrinks only the *scale* knobs (track counts, population,
/// PPO minibatch) so the full benchmark suite runs in minutes on a laptop
/// while preserving every algorithmic property; all learning-rate/UCB/
/// gradient hyper-parameters stay at the paper values.  Benchmarks use this
/// preset by default and accept `--paper` to switch.
SearchOptions quick_options(PolicyKind policy, std::uint64_t seed = 42);
SearchOptions paper_options(PolicyKind policy, std::uint64_t seed = 42);

}  // namespace harl
