#include "core/presets.hpp"

namespace harl {

SearchOptions paper_options(PolicyKind policy, std::uint64_t seed) {
  SearchOptions opts;
  opts.policy_name = policy_kind_name(policy);
  opts.seed = seed;
  // Table 5 defaults are already encoded in the config structs' defaults;
  // restate the scale knobs explicitly for clarity.
  opts.harl.stop.window = 20;
  opts.harl.stop.elimination = 0.5;
  opts.harl.stop.min_tracks = 64;
  opts.harl.stop.initial_tracks = 256;
  opts.harl.ppo.train_interval = 2;
  opts.ansor.population = 512;
  opts.ansor.generations = 4;
  opts.flextensor.tracks = 8;
  opts.flextensor.track_length = 16;
  opts.autotvm.walkers = 64;
  opts.autotvm.steps_per_round = 32;
  opts.measures_per_round = 10;
  return opts;
}

SearchOptions quick_options(PolicyKind policy, std::uint64_t seed) {
  SearchOptions opts = paper_options(policy, seed);
  opts.harl.stop.window = 10;
  opts.harl.stop.min_tracks = 8;
  opts.harl.stop.initial_tracks = 32;
  opts.harl.ppo.minibatch_size = 32;
  opts.harl.ppo.update_epochs = 2;
  opts.ansor.population = 112;   // matches HARL's ~560-visit episode budget
  opts.ansor.generations = 4;
  opts.flextensor.tracks = 4;
  opts.flextensor.track_length = 16;
  opts.flextensor.ppo.minibatch_size = 16;
  opts.flextensor.ppo.update_epochs = 2;
  opts.autotvm.walkers = 32;
  opts.autotvm.steps_per_round = 16;
  return opts;
}

}  // namespace harl
