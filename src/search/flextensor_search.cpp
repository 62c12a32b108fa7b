#include "search/flextensor_search.hpp"

#include <algorithm>
#include <utility>

namespace harl {

FlextensorSearchPolicy::FlextensorSearchPolicy(TaskState* task, FlextensorConfig cfg)
    : task_(task), cfg_(cfg), fx_(&task->hardware()), rng_(cfg.seed ^ 0x464c58ULL) {}

std::vector<MeasuredRecord> FlextensorSearchPolicy::tune_round(Measurer& measurer,
                                                               int /*num_measures*/) {
  const Sketch& sketch = task_->sketch(0);  // fixed template
  const ActionSpace& space = task_->space(0);

  if (!agent_) {
    codec_ = std::make_unique<RlStateCodec>(fx_, space);
    RlStateCodec* c = codec_.get();
    auto sizes = space.head_sizes();
    agent_ = std::make_unique<PpoAgent>(
        rl_observation_dim(space), c->bytes(),
        [c](const std::uint8_t* state, double* obs) { c->observe(state, obs); },
        std::vector<int>(sizes.begin(), sizes.end()), cfg_.ppo, cfg_.seed,
        space.tile_action_support(), rl_observation_support(space));
  }

  std::vector<MeasuredRecord> all_records;
  // Step buffers reused across steps and tracks; the agent copies rows in.
  std::vector<std::uint8_t> state(static_cast<std::size_t>(codec_->bytes()));
  std::vector<double> obs;
  std::vector<double> next_obs;
  std::vector<bool> mask;
  for (int track = 0; track < cfg_.tracks; ++track) {
    Schedule cur = random_schedule(sketch, space.num_unroll_options(), rng_);
    rl_observation_into(fx_, space, cur, obs);
    MeasureResult first = measurer.measure_one(cur);
    double cur_time = first.time_ms;
    all_records.push_back({cur, first.time_ms, first.trial_index, first.cached});

    double best_time = cur_time;
    int best_step = 0;
    for (int step = 1; step <= cfg_.track_length; ++step) {
      space.tile_action_mask(cur, &mask);
      PpoAgent::ActResult act = agent_->act(obs, mask, rng_);
      Schedule next = cur;
      JointAction ja{};
      for (int h = 0; h < kNumActionHeads; ++h) {
        ja[static_cast<std::size_t>(h)] = act.actions[static_cast<std::size_t>(h)];
      }
      space.apply(&next, ja);
      MeasureResult stepped = measurer.measure_one(next);
      double next_time = stepped.time_ms;
      all_records.push_back({next, stepped.time_ms, stepped.trial_index, stepped.cached});

      rl_observation_into(fx_, space, next, next_obs);
      // Reward: measured relative speedup (Flextensor learns from hardware).
      double reward = (cur_time - next_time) / std::max(next_time, 1e-9);
      double next_value = agent_->value(next_obs);
      codec_->encode(cur, state.data());
      agent_->store(state, act, reward, next_value, mask);
      if (step % cfg_.ppo.train_interval == 0) agent_->train(rng_);

      cur = std::move(next);
      std::swap(obs, next_obs);
      cur_time = next_time;
      if (next_time < best_time) {
        best_time = next_time;
        best_step = step;
      }
    }
    critical_positions_.push_back(static_cast<double>(best_step) /
                                  static_cast<double>(cfg_.track_length));
  }

  task_->commit_measurements(all_records);
  return all_records;
}

}  // namespace harl
