#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>

#include "nn/categorical.hpp"
#include "rl/ppo.hpp"

namespace {

/// Bytes asked of the global operator new in this binary (never decreases).
std::atomic<std::size_t> g_new_bytes{0};

}  // namespace

// Out of line, new and delete alike, so the compiler never pairs an inlined
// malloc() or free() with the other operator (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace harl {
namespace {

PpoConfig small_config() {
  PpoConfig cfg;
  cfg.hidden_dim = 32;
  cfg.minibatch_size = 32;
  cfg.update_epochs = 4;
  cfg.buffer_capacity = 1024;
  return cfg;
}

/// States are two-byte ids into a table of observations: the ring stores the
/// id and `observe` looks the row up, as HARL's codec decodes a schedule.
class ObsTable {
 public:
  /// Appends `obs` and returns its state row.
  std::vector<std::uint8_t> add(std::vector<double> obs) {
    rows_.push_back(std::move(obs));
    const std::size_t id = rows_.size() - 1;
    return {static_cast<std::uint8_t>(id), static_cast<std::uint8_t>(id >> 8)};
  }

  PpoAgent::ObserveFn observe() const {
    return [this](const std::uint8_t* state, double* obs) {
      const std::vector<double>& row =
          rows_.at(std::size_t{state[0]} | std::size_t{state[1]} << 8);
      std::copy(row.begin(), row.end(), obs);
    };
  }

 private:
  std::vector<std::vector<double>> rows_;
};

PpoAgent make_agent(const ObsTable& table, int obs_dim, std::vector<int> head_sizes,
                    PpoConfig cfg, std::uint64_t seed) {
  return PpoAgent(obs_dim, 2, table.observe(), std::move(head_sizes), cfg, seed);
}

TEST(Ppo, AdvantageIsOneStepTd) {
  ObsTable table;
  PpoAgent agent = make_agent(table, 2, {3}, small_config(), 1);
  // A = r + gamma * V(s') - V(s) with gamma = 0.9 (Table 5).
  EXPECT_NEAR(agent.advantage(1.0, 0.5, 2.0), 1.0 + 0.9 * 2.0 - 0.5, 1e-12);
}

TEST(Ppo, ActReturnsValidActionsAndLogp) {
  ObsTable table;
  PpoAgent agent = make_agent(table, 4, {5, 3}, small_config(), 2);
  Rng rng(1);
  std::vector<double> obs = {0.1, 0.2, -0.3, 0.4};
  for (int i = 0; i < 50; ++i) {
    auto res = agent.act(obs, {}, rng);
    ASSERT_EQ(res.actions.size(), 2u);
    ASSERT_GE(res.actions[0], 0);
    ASSERT_LT(res.actions[0], 5);
    ASSERT_GE(res.actions[1], 0);
    ASSERT_LT(res.actions[1], 3);
    ASSERT_LE(res.logp, 0.0);
    ASSERT_TRUE(std::isfinite(res.value));
  }
}

TEST(Ppo, MaskExcludesActions) {
  ObsTable table;
  PpoAgent agent = make_agent(table, 2, {4}, small_config(), 3);
  Rng rng(2);
  std::vector<bool> mask = {false, true, false, true};
  std::vector<double> obs = {1.0, -1.0};
  for (int i = 0; i < 100; ++i) {
    auto res = agent.act(obs, mask, rng);
    ASSERT_TRUE(res.actions[0] == 1 || res.actions[0] == 3);
  }
}

TEST(Ppo, ActReturnsSupportActionIds) {
  ObsTable table;
  PpoAgent agent(2, 2, table.observe(), {6, 2}, small_config(), 3, {1, 3, 5});
  Rng rng(2);
  const std::vector<bool> mask = {false, true, false, false, false, true};
  std::vector<double> obs = {1.0, -1.0};
  for (int i = 0; i < 100; ++i) {
    const int any = agent.act(obs, {}, rng).actions[0];
    ASSERT_TRUE(any == 1 || any == 3 || any == 5) << any;
    const int masked = agent.act(obs, mask, rng).actions[0];
    ASSERT_TRUE(masked == 1 || masked == 5) << masked;
  }
}

TEST(Ppo, TrainIsNoopWhileBufferSmall) {
  ObsTable table;
  PpoAgent agent = make_agent(table, 2, {3}, small_config(), 4);
  Rng rng(3);
  EXPECT_EQ(agent.train(rng), 0.0);
  EXPECT_EQ(agent.buffer_size(), 0u);
}

TEST(Ppo, BufferIsBoundedRing) {
  PpoConfig cfg = small_config();
  cfg.buffer_capacity = 16;
  ObsTable table;
  PpoAgent agent = make_agent(table, 1, {2}, cfg, 5);
  const std::vector<std::uint8_t> state = table.add({0.0});
  PpoAgent::ActResult act;
  act.actions = {0};
  for (int i = 0; i < 100; ++i) agent.store(state, act, 0.0, 0.0, {});
  EXPECT_EQ(agent.buffer_size(), 16u);
}

/// PPO solves a contextual bandit: obs in {(1,0), (0,1)}; the rewarded
/// action equals the active context bit. Random policy reward = 0.5; a
/// learning agent should exceed 0.9.  The state is the context id.
TEST(Ppo, LearnsContextualBandit) {
  PpoConfig cfg = small_config();
  cfg.entropy_weight = 0.005;
  ObsTable table;
  const std::vector<std::uint8_t> states[2] = {table.add({1.0, 0.0}),
                                               table.add({0.0, 1.0})};
  const std::vector<double> observations[2] = {{1.0, 0.0}, {0.0, 1.0}};
  PpoAgent agent = make_agent(table, 2, {2}, cfg, 6);
  Rng rng(7);

  auto run_epoch = [&](bool train) {
    double total = 0;
    const int steps = 256;
    for (int i = 0; i < steps; ++i) {
      int ctx = rng.next_bool() ? 1 : 0;
      auto res = agent.act(observations[ctx], {}, rng);
      double reward = res.actions[0] == ctx ? 1.0 : 0.0;
      total += reward;
      if (train) {
        agent.store(states[ctx], res, reward, 0.0, {});  // episodic single-step
        if (i % 8 == 0) agent.train(rng);
      }
    }
    return total / steps;
  };

  for (int epoch = 0; epoch < 12; ++epoch) run_epoch(true);
  double final_reward = run_epoch(false);
  EXPECT_GT(final_reward, 0.9);
}

/// Multi-head credit assignment: reward requires head 0 correct AND head 1
/// correct; both heads must learn jointly through the summed log-prob.
TEST(Ppo, LearnsJointMultiHeadAction) {
  PpoConfig cfg = small_config();
  cfg.entropy_weight = 0.003;
  ObsTable table;
  const std::vector<double> obs = {1.0};
  const std::vector<std::uint8_t> state = table.add(obs);
  PpoAgent agent = make_agent(table, 1, {3, 3}, cfg, 8);
  Rng rng(9);

  auto run_epoch = [&](bool train) {
    double total = 0;
    const int steps = 256;
    for (int i = 0; i < steps; ++i) {
      auto res = agent.act(obs, {}, rng);
      double reward = (res.actions[0] == 2 && res.actions[1] == 0) ? 1.0 : 0.0;
      total += reward;
      if (train) {
        agent.store(state, res, reward, 0.0, {});
        if (i % 8 == 0) agent.train(rng);
      }
    }
    return total / steps;
  };

  for (int epoch = 0; epoch < 20; ++epoch) run_epoch(true);
  // Random chance is 1/9; learned policy should be far above.
  EXPECT_GT(run_epoch(false), 0.6);
}

TEST(Ppo, ValueLearnsReturns) {
  PpoConfig cfg = small_config();
  ObsTable table;
  PpoAgent agent = make_agent(table, 1, {2}, cfg, 10);
  Rng rng(11);
  // Constant reward 1 with next_value 0: the TD target is exactly 1.
  const std::vector<double> obs = {1.0};
  const std::vector<std::uint8_t> state = table.add(obs);
  for (int i = 0; i < 600; ++i) {
    auto res = agent.act(obs, {}, rng);
    agent.store(state, res, 1.0, 0.0, {});
    if (i % 4 == 0) agent.train(rng);
  }
  EXPECT_NEAR(agent.value(obs), 1.0, 0.2);
}


// ---------------------------------------------------------------------------
// Differential oracle: the agent as it was when every replay row was its own
// heap-owning struct holding the raw observation, int actions, and the
// reward and V(s') from which train() derived the TD target, and whose
// networks were full width.  PpoAgent's flat ring of opaque state bytes and
// uint16 actions, observed again at train() time, with the target computed
// once by store(), and its compact first and last layers must reproduce it
// bit for bit.

struct PpoTransition {
  std::vector<double> obs;
  std::vector<int> actions;
  double logp = 0;
  double reward = 0;
  double value = 0;
  double next_value = 0;
  std::vector<bool> head0_mask;
};

class ReferencePpoAgent {
 public:
  ReferencePpoAgent(int obs_dim, std::vector<int> head_sizes, PpoConfig cfg,
                    std::uint64_t seed)
      : cfg_(cfg),
        head_sizes_(std::move(head_sizes)),
        actor_([&] {
          Rng rng(seed);
          int total = std::accumulate(head_sizes_.begin(), head_sizes_.end(), 0);
          return Mlp({obs_dim, cfg.hidden_dim, cfg.hidden_dim, total}, rng);
        }()),
        critic_([&] {
          Rng rng(seed ^ 0x5bd1e995ULL);
          return Mlp({obs_dim, cfg.hidden_dim, cfg.hidden_dim, 1}, rng);
        }()) {}

  PpoAgent::ActResult act(const std::vector<double>& obs, const std::vector<bool>& head0_mask,
                          Rng& rng) const {
    PpoAgent::ActResult res;
    std::vector<std::vector<double>> heads = split_heads(actor_.forward(obs));
    for (std::size_t h = 0; h < heads.size(); ++h) {
      const std::vector<bool>* mask =
          (h == 0 && !head0_mask.empty()) ? &head0_mask : nullptr;
      std::vector<double> probs = masked_softmax(heads[h], mask);
      int a = sample_categorical(probs, rng);
      res.actions.push_back(a);
      res.logp += categorical_log_prob(probs, a);
    }
    res.value = critic_.forward(obs)[0];
    return res;
  }

  double value(const std::vector<double>& obs) const { return critic_.forward(obs)[0]; }

  void store(PpoTransition t) {
    if (buffer_.size() < static_cast<std::size_t>(cfg_.buffer_capacity)) {
      buffer_.push_back(std::move(t));
    } else {
      buffer_[buffer_next_ % buffer_.size()] = std::move(t);
    }
    ++buffer_next_;
  }

  std::size_t buffer_size() const { return buffer_.size(); }
  const Mlp& actor() const { return actor_; }
  const Mlp& critic() const { return critic_; }

  double train(Rng& rng) {
    if (buffer_.size() < static_cast<std::size_t>(cfg_.minibatch_size)) return 0;
    double mean_objective = 0;
    int num_updates = 0;
    for (int epoch = 0; epoch < cfg_.update_epochs; ++epoch) {
      std::vector<std::size_t> batch(static_cast<std::size_t>(cfg_.minibatch_size));
      for (std::size_t& i : batch) i = rng.pick_index(buffer_.size());
      std::vector<double> adv(batch.size());
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const PpoTransition& t = buffer_[batch[k]];
        adv[k] = t.reward + cfg_.gamma * t.next_value - t.value;
      }
      double mean = std::accumulate(adv.begin(), adv.end(), 0.0) /
                    static_cast<double>(adv.size());
      double var = 0;
      for (double a : adv) var += (a - mean) * (a - mean);
      double stdev = std::sqrt(var / static_cast<double>(adv.size())) + 1e-8;
      for (double& a : adv) a = (a - mean) / stdev;

      actor_.zero_grad();
      critic_.zero_grad();
      double inv_n = 1.0 / static_cast<double>(batch.size());
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const PpoTransition& t = buffer_[batch[k]];
        Mlp::Trace atrace;
        std::vector<double> logits = actor_.forward(t.obs, &atrace);
        std::vector<std::vector<double>> heads = split_heads(logits);
        double logp_new = 0;
        std::vector<std::vector<double>> head_probs(heads.size());
        for (std::size_t h = 0; h < heads.size(); ++h) {
          const std::vector<bool>* mask =
              (h == 0 && !t.head0_mask.empty()) ? &t.head0_mask : nullptr;
          head_probs[h] = masked_softmax(heads[h], mask);
          logp_new += categorical_log_prob(head_probs[h], t.actions[h]);
        }
        double ratio = std::exp(std::clamp(logp_new - t.logp, -20.0, 20.0));
        double unclipped = ratio * adv[k];
        double clipped =
            std::clamp(ratio, 1.0 - cfg_.clip_eps, 1.0 + cfg_.clip_eps) * adv[k];
        mean_objective += std::min(unclipped, clipped);
        bool pass_gradient = (adv[k] >= 0 && ratio < 1.0 + cfg_.clip_eps) ||
                             (adv[k] < 0 && ratio > 1.0 - cfg_.clip_eps);
        double dlogp = pass_gradient ? -adv[k] * ratio : 0.0;
        std::vector<double> dlogits_full;
        for (std::size_t h = 0; h < heads.size(); ++h) {
          const std::vector<bool>* mask =
              (h == 0 && !t.head0_mask.empty()) ? &t.head0_mask : nullptr;
          std::vector<double> dl = categorical_backward(
              head_probs[h], t.actions[h], dlogp, -cfg_.entropy_weight, mask);
          dlogits_full.insert(dlogits_full.end(), dl.begin(), dl.end());
        }
        for (double& d : dlogits_full) d *= inv_n;
        actor_.backward(atrace, dlogits_full);

        Mlp::Trace ctrace;
        double v = critic_.forward(t.obs, &ctrace)[0];
        double target = t.reward + cfg_.gamma * t.next_value;
        critic_.backward(ctrace, {cfg_.value_loss_weight * 2.0 * (v - target) * inv_n});
      }
      actor_.adam_step(cfg_.lr_actor);
      critic_.adam_step(cfg_.lr_critic);
      num_updates += cfg_.minibatch_size;
    }
    return num_updates > 0 ? mean_objective / num_updates : 0.0;
  }

 private:
  std::vector<std::vector<double>> split_heads(const std::vector<double>& logits) const {
    std::vector<std::vector<double>> heads;
    auto it = logits.begin();
    for (int h : head_sizes_) {
      heads.emplace_back(it, it + h);
      it += h;
    }
    return heads;
  }

  PpoConfig cfg_;
  std::vector<int> head_sizes_;
  Mlp actor_;
  Mlp critic_;
  std::vector<PpoTransition> buffer_;
  std::size_t buffer_next_ = 0;
};

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// `ids`, or every index below `n` when empty.
std::vector<int> all_if_empty(const std::vector<int>& ids, int n) {
  if (!ids.empty()) return ids;
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// `got` is a compact copy of `want` that keeps output rows `rows` of the
/// last layer and input columns `cols` of the first (empty: all of them).
/// Every weight, bias and Adam moment it keeps must have the bits of the
/// entry of `want` it stands for.
void expect_same_kept_entries(const Mlp& got, const Mlp& want, const std::vector<int>& rows = {},
                              const std::vector<int>& cols = {}) {
  ASSERT_EQ(got.layers().size(), want.layers().size());
  const std::size_t last = got.layers().size() - 1;
  for (std::size_t l = 0; l <= last; ++l) {
    const LinearLayer& g = got.layers()[l];
    const LinearLayer& w = want.layers()[l];
    const std::vector<int> r = all_if_empty(l == last ? rows : std::vector<int>{}, w.out_dim);
    const std::vector<int> c = all_if_empty(l == 0 ? cols : std::vector<int>{}, w.in_dim);
    ASSERT_EQ(static_cast<std::size_t>(g.out_dim), r.size()) << "layer " << l;
    ASSERT_EQ(static_cast<std::size_t>(g.in_dim), c.size()) << "layer " << l;
    ASSERT_EQ(g.w.size(), r.size() * c.size()) << "layer " << l;
    for (std::size_t j = 0; j < r.size(); ++j) {
      const auto wr = static_cast<std::size_t>(r[j]);
      for (std::size_t k = 0; k < c.size(); ++k) {
        const std::size_t gi = j * c.size() + k;
        const std::size_t wi = wr * static_cast<std::size_t>(w.in_dim) +
                               static_cast<std::size_t>(c[k]);
        ASSERT_EQ(bits_of(g.w[gi]), bits_of(w.w[wi])) << "layer " << l << " w " << wi;
        ASSERT_EQ(bits_of(g.mw[gi]), bits_of(w.mw[wi])) << "layer " << l << " mw " << wi;
        ASSERT_EQ(bits_of(g.vw[gi]), bits_of(w.vw[wi])) << "layer " << l << " vw " << wi;
      }
      ASSERT_EQ(bits_of(g.b[j]), bits_of(w.b[wr])) << "layer " << l << " b " << wr;
      ASSERT_EQ(bits_of(g.mb[j]), bits_of(w.mb[wr])) << "layer " << l << " mb " << wr;
      ASSERT_EQ(bits_of(g.vb[j]), bits_of(w.vb[wr])) << "layer " << l << " vb " << wr;
    }
  }
}

/// The entries of the full-width `net` that a compact copy keeping `rows`
/// of its last layer and `cols` of its first drops never moved from
/// `initial`: weights as drawn, biases and Adam moments zero.
void expect_dropped_entries_never_moved(const Mlp& net, const Mlp& initial,
                                        const std::vector<int>& rows,
                                        const std::vector<int>& cols) {
  const std::size_t last = net.layers().size() - 1;
  for (std::size_t l = 0; l <= last; ++l) {
    const LinearLayer& now = net.layers()[l];
    const LinearLayer& init = initial.layers()[l];
    const std::vector<int> r = all_if_empty(l == last ? rows : std::vector<int>{}, now.out_dim);
    const std::vector<int> c = all_if_empty(l == 0 ? cols : std::vector<int>{}, now.in_dim);
    for (int o = 0; o < now.out_dim; ++o) {
      const bool row_kept = std::binary_search(r.begin(), r.end(), o);
      const auto ou = static_cast<std::size_t>(o);
      if (!row_kept) {
        ASSERT_EQ(bits_of(now.b[ou]), 0u) << "layer " << l << " dead row " << o;
        ASSERT_EQ(bits_of(now.mb[ou]), 0u) << "layer " << l << " dead row " << o;
        ASSERT_EQ(bits_of(now.vb[ou]), 0u) << "layer " << l << " dead row " << o;
      }
      for (int i = 0; i < now.in_dim; ++i) {
        if (row_kept && std::binary_search(c.begin(), c.end(), i)) continue;
        const std::size_t at = ou * static_cast<std::size_t>(now.in_dim) +
                               static_cast<std::size_t>(i);
        ASSERT_EQ(bits_of(now.w[at]), bits_of(init.w[at])) << "layer " << l << " " << o << "," << i;
        ASSERT_EQ(bits_of(now.mw[at]), 0u) << "layer " << l << " " << o << "," << i;
        ASSERT_EQ(bits_of(now.vw[at]), 0u) << "layer " << l << " " << o << "," << i;
      }
    }
  }
}

/// Drives a PpoAgent and the reference with one seeded stream of act, value,
/// store and train calls: masked and unmasked rows, several head layouts,
/// capacities that wrap the ring many times.  The agent stores four-byte
/// states {id, ~id} (two bytes each) into a table of the observations (the
/// second half pins the row stride and sets the top bits); the reference
/// stores the observations themselves.  Rewards mix unit and large scales,
/// so the TD targets the agent stores round as the reference's do.  Every
/// ActResult, value and train() objective, and the actor's and critic's
/// weights and Adam moments after every train(), must be bit-identical.
///
/// With a head-0 `support`, the agent keeps only the support's output rows
/// and the reference stays full width.  Every mask sets bits inside the
/// support only; where the agent gets an empty mask (the whole support), the
/// reference gets the support's indicator.
///
/// With an input support `cols`, the agent's actor and critic keep only
/// those input columns and the reference stays full width.  Every
/// observation holds +0.0 or -0.0 in the other columns.
///
/// The kept entries must match the reference's, and the reference's other
/// entries must end with their initial weights and zero moments: a
/// full-width agent never moves them.
void expect_matches_reference(int obs_dim, const std::vector<int>& head_sizes, int capacity,
                              std::uint64_t seed, const std::vector<int>& support = {},
                              const std::vector<int>& cols = {}) {
  PpoConfig cfg;
  cfg.hidden_dim = 16;
  cfg.minibatch_size = 8;
  cfg.update_epochs = 2;
  cfg.buffer_capacity = capacity;
  std::vector<std::vector<double>> table;
  auto observe = [&table](const std::uint8_t* state, double* out) {
    const std::size_t id = std::size_t{state[0]} | std::size_t{state[1]} << 8;
    const std::size_t check = std::size_t{state[2]} | std::size_t{state[3]} << 8;
    ASSERT_EQ(check, ~id & 0xffff) << "state row read at the wrong stride";
    const std::vector<double>& row = table.at(id);
    std::copy(row.begin(), row.end(), out);
  };
  PpoAgent agent(obs_dim, 4, observe, head_sizes, cfg, seed, support, cols);
  ReferencePpoAgent ref(obs_dim, head_sizes, cfg, seed);
  const Mlp initial_actor = ref.actor();
  const Mlp initial_critic = ref.critic();
  Rng stream(seed * 7919 + 1);
  Rng agent_rng(seed + 11);
  Rng ref_rng(seed + 11);
  const auto width = static_cast<std::size_t>(head_sizes[0]);
  // The reference's output rows the agent keeps: the support, then the
  // other heads whole.
  std::vector<int> kept = all_if_empty(support, head_sizes[0]);
  const int total = std::accumulate(head_sizes.begin(), head_sizes.end(), 0);
  for (int r = head_sizes[0]; r < total; ++r) kept.push_back(r);
  std::vector<bool> support_mask;
  if (!support.empty()) {
    support_mask.assign(width, false);
    for (int a : support) support_mask[static_cast<std::size_t>(a)] = true;
  }
  std::vector<bool> in_cols(static_cast<std::size_t>(obs_dim), cols.empty());
  for (int c : cols) in_cols[static_cast<std::size_t>(c)] = true;

  auto random_obs = [&] {
    std::vector<double> obs(static_cast<std::size_t>(obs_dim));
    for (std::size_t c = 0; c < obs.size(); ++c) {
      const double v = stream.next_range(-1, 1);
      obs[c] = in_cols[c] ? v : std::copysign(0.0, v);
    }
    return obs;
  };
  std::vector<double> obs = random_obs();
  std::vector<bool> mask;
  const int steps = capacity * 6 + 7;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Roughly half the rows carry a head-0 mask with at least one legal move.
    mask.clear();
    if (stream.next_bool()) {
      mask.assign(width, false);
      if (support.empty()) {
        for (std::size_t i = 0; i < width; ++i) mask[i] = stream.next_double() < 0.5;
        mask[stream.pick_index(width)] = true;
      } else {
        for (int a : support) mask[static_cast<std::size_t>(a)] = stream.next_double() < 0.5;
        mask[static_cast<std::size_t>(support[stream.pick_index(support.size())])] = true;
      }
    }
    const std::vector<bool>& ref_mask = mask.empty() ? support_mask : mask;
    PpoAgent::ActResult got = agent.act(obs, mask, agent_rng);
    PpoAgent::ActResult want = ref.act(obs, ref_mask, ref_rng);
    ASSERT_EQ(got.actions, want.actions);
    ASSERT_EQ(bits_of(got.logp), bits_of(want.logp));
    ASSERT_EQ(bits_of(got.value), bits_of(want.value));

    std::vector<double> next_obs = random_obs();
    double next_value = agent.value(next_obs);
    ASSERT_EQ(bits_of(next_value), bits_of(ref.value(next_obs)));
    double reward = stream.next_normal() * (stream.next_bool() ? 1.0 : 1e3);
    ASSERT_LT(table.size(), std::size_t{0x8000});
    const std::size_t id = table.size();
    table.push_back(obs);
    const std::size_t check = ~id & 0xffff;
    agent.store({static_cast<std::uint8_t>(id), static_cast<std::uint8_t>(id >> 8),
                 static_cast<std::uint8_t>(check), static_cast<std::uint8_t>(check >> 8)},
                got, reward, next_value, mask);
    ref.store({obs, want.actions, want.logp, reward, want.value, next_value, ref_mask});
    ASSERT_EQ(agent.buffer_size(), ref.buffer_size());

    if (stream.next_double() < 0.3) {
      ASSERT_EQ(bits_of(agent.train(agent_rng)), bits_of(ref.train(ref_rng)));
      expect_same_kept_entries(agent.actor(), ref.actor(), kept, cols);
      expect_same_kept_entries(agent.critic(), ref.critic(), {}, cols);
    }
    obs = std::move(next_obs);
  }
  // The ring wrapped: training over it still agrees, and so does the policy.
  ASSERT_EQ(agent.buffer_size(), static_cast<std::size_t>(capacity));
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(bits_of(agent.train(agent_rng)), bits_of(ref.train(ref_rng)));
  }
  expect_same_kept_entries(agent.actor(), ref.actor(), kept, cols);
  expect_same_kept_entries(agent.critic(), ref.critic(), {}, cols);
  ASSERT_EQ(bits_of(agent.act(obs, {}, agent_rng).logp),
            bits_of(ref.act(obs, support_mask, ref_rng).logp));

  // The entries the agent dropped never moved in the reference.
  expect_dropped_entries_never_moved(ref.actor(), initial_actor, kept, cols);
  expect_dropped_entries_never_moved(ref.critic(), initial_critic, {}, cols);
}

TEST(PpoRing, MatchesReferenceSingleHead) { expect_matches_reference(3, {5}, 16, 21); }

TEST(PpoRing, MatchesReferenceTwoHeads) { expect_matches_reference(5, {4, 3}, 33, 22); }

TEST(PpoRing, MatchesReferenceHarlLayout) {
  // HARL's four heads: tiling moves plus three knob deltas.
  expect_matches_reference(7, {9, 3, 3, 3}, 16, 23);
  expect_matches_reference(7, {9, 3, 3, 3}, 33, 24);
}

TEST(PpoRing, MatchesReferenceAcrossBlocks) {
  // 300 rows end inside the second block; 600 rows fill two blocks and end
  // inside a third.  Both rings wrap across block boundaries six times.
  static_assert(PpoAgent::kRingBlockRows < 300 && 2 * PpoAgent::kRingBlockRows < 600);
  expect_matches_reference(3, {5}, 300, 25);
  expect_matches_reference(7, {9, 3, 3, 3}, 600, 26);
}

TEST(PpoRing, MatchesReferenceWithActionsPastInt16) {
  // The ring stores actions as uint16: head 0's support index passes 32767
  // on about a fifth of the steps.
  expect_matches_reference(2, {40000, 3}, 8, 31);
}

/// A GEMM-like head 0: 101 nominal actions, 27 in the support, dummy last.
std::vector<int> gemm_like_support() {
  std::vector<int> support;
  for (int from = 0; from < 10; ++from) {
    for (int to = 0; to < 10; ++to) {
      const int axis_from = from < 8 ? from / 4 : 2;
      const int axis_to = to < 8 ? to / 4 : 2;
      if (from != to && axis_from == axis_to) support.push_back(from * 10 + to);
    }
  }
  support.push_back(100);
  return support;
}

TEST(PpoRing, MatchesFullWidthReferenceOnASupport) {
  const std::vector<int> gemm_support = gemm_like_support();
  ASSERT_EQ(gemm_support.size(), 27u);
  expect_matches_reference(7, {101, 3, 3, 3}, 33, 27, gemm_support);
  expect_matches_reference(7, {101, 3, 3, 3}, 300, 28, gemm_support);
  expect_matches_reference(7, {101, 3, 3, 3}, 600, 32, gemm_support);
  // A support of one action, and one that is not at either end.
  expect_matches_reference(3, {6, 2}, 16, 29, {5});
  expect_matches_reference(3, {6}, 16, 30, {1, 2, 4});
}

TEST(PpoRing, MatchesFullWidthReferenceOnAnInputSupport) {
  // Columns dropped at both ends and between kept ones.
  expect_matches_reference(9, {5}, 16, 33, {}, {1, 2, 4, 7});
  expect_matches_reference(9, {9, 3, 3, 3}, 33, 34, {}, {0, 3, 8});
  // One kept column, at either end.
  expect_matches_reference(6, {4, 3}, 16, 35, {}, {0});
  expect_matches_reference(6, {4, 3}, 16, 36, {}, {5});
  // With a head-0 support too, across ring blocks: HARL's layout.
  const std::vector<int> gemm_support = gemm_like_support();
  std::vector<int> cols;
  for (int c = 0; c < 40; ++c) {
    if (c % 3 != 1 && c != 38) cols.push_back(c);
  }
  expect_matches_reference(40, {101, 3, 3, 3}, 33, 37, gemm_support, cols);
  expect_matches_reference(40, {101, 3, 3, 3}, 300, 38, gemm_support, cols);
}

/// Heap bytes requested while `fn` runs.
template <class Fn>
std::size_t new_bytes(Fn&& fn) {
  const std::size_t before = g_new_bytes.load();
  fn();
  return g_new_bytes.load() - before;
}

/// The ring's memory follows the rows stored, not buffer_capacity: building
/// an agent costs the same at any capacity, storing n rows costs the same as
/// in an agent whose capacity is n rounded up to a block, and the rows
/// allocated never exceed that rounding.  Reserving the ring at capacity, or
/// growing it geometrically, fails one of these.  A row's bytes are pinned
/// too: its state bytes, 2 per head, three doubles (log-prob, value, TD
/// target), and one bit per support action plus the has-mask flag.
TEST(PpoRing, MemoryFollowsStoredRowsNotCapacity) {
  constexpr std::size_t kBlock = PpoAgent::kRingBlockRows;
  ObsTable table;
  const std::vector<std::uint8_t> state = table.add({0.5, -0.5});
  PpoAgent::ActResult act;
  act.actions = {4, 2};
  const std::vector<bool> mask(5, true);
  auto build = [&](std::size_t capacity) {
    PpoConfig cfg = small_config();
    cfg.buffer_capacity = static_cast<int>(capacity);
    return std::make_unique<PpoAgent>(2, 2, table.observe(), std::vector<int>{5, 3}, cfg, 1);
  };
  for (std::size_t rows : {std::size_t{1}, kBlock - 1, kBlock, kBlock + 1, 2 * kBlock + 88}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const std::size_t rounded = (rows + kBlock - 1) / kBlock * kBlock;
    std::unique_ptr<PpoAgent> big, fit;
    const std::size_t build_big = new_bytes([&] { big = build(4096); });
    const std::size_t build_fit = new_bytes([&] { fit = build(rounded); });
    EXPECT_EQ(build_big, build_fit);
    EXPECT_EQ(big->ring_rows_allocated(), 0u);
    auto fill = [&](PpoAgent& agent) {
      for (std::size_t i = 0; i < rows; ++i) agent.store(state, act, 1.0, 0.5, mask);
    };
    const std::size_t store_big = new_bytes([&] { fill(*big); });
    const std::size_t store_fit = new_bytes([&] { fill(*fit); });
    EXPECT_EQ(store_big, store_fit);
    EXPECT_GE(big->ring_rows_allocated(), rows);
    EXPECT_LE(big->ring_rows_allocated(), rounded);
    EXPECT_EQ(big->buffer_size(), rows);
  }

  // Two rings that each fill one block's reservation, of 64 and 128 rows,
  // differ by exactly 64 rows.
  // A five-byte state, as a packed HARL row of a small sketch.
  constexpr std::size_t kStateBytes = 5, kHeads = 4, kSupport = 5;
  const std::vector<std::uint8_t> wide_state = {state[0], state[1], 7, 0xff, 0x80};
  PpoAgent::ActResult act4;
  act4.actions = {4, 2, 1, 0};
  auto fill_bytes = [&](std::size_t rows) {
    PpoConfig cfg = small_config();
    cfg.buffer_capacity = static_cast<int>(rows);
    PpoAgent agent(2, kStateBytes, table.observe(), {kSupport, 3, 3, 3}, cfg, 1);
    return new_bytes([&] {
      for (std::size_t i = 0; i < rows; ++i) agent.store(wide_state, act4, 1.0, 0.5, mask);
    });
  };
  static_assert(128 <= kBlock);
  const std::size_t row_bytes = kStateBytes + 2 * kHeads + 3 * sizeof(double);
  EXPECT_EQ(row_bytes, 37u);
  EXPECT_EQ(fill_bytes(128) - fill_bytes(64), 64 * row_bytes + 64 * (kSupport + 1) / 8);
}

/// Head 0's nominal width costs nothing past its support: building an agent
/// and storing rows ask for the same bytes whether head 0 has 9 or 4097
/// actions, so no dropped row, Adam moment or mask bit is allocated.
TEST(PpoRing, MemoryFollowsTheSupportNotHead0Width) {
  constexpr std::size_t kBlock = PpoAgent::kRingBlockRows;
  ObsTable table;
  const std::vector<std::uint8_t> state = table.add({0.5, -0.5});
  const std::vector<int> support = {1, 3, 7, 8};
  PpoAgent::ActResult act;
  act.actions = {7, 2};
  std::size_t build_bytes = 0;
  std::size_t store_bytes = 0;
  for (int width : {9, 101, 4097}) {
    SCOPED_TRACE("head-0 width " + std::to_string(width));
    std::vector<bool> mask(static_cast<std::size_t>(width), false);
    mask[3] = mask[7] = true;
    std::unique_ptr<PpoAgent> agent;
    const std::size_t build = new_bytes([&] {
      agent = std::make_unique<PpoAgent>(2, 2, table.observe(), std::vector<int>{width, 3},
                                         small_config(), 1, support);
    });
    const std::size_t store = new_bytes([&] {
      for (std::size_t i = 0; i < kBlock + 5; ++i) agent->store(state, act, 1.0, 0.5, mask);
    });
    const LinearLayer& out = agent->actor().layers().back();
    EXPECT_EQ(out.out_dim, 4 + 3);
    EXPECT_EQ(out.w.capacity(), out.w.size());
    EXPECT_EQ(out.mw.capacity(), out.mw.size());
    if (build_bytes == 0) {
      build_bytes = build;
      store_bytes = store;
    }
    EXPECT_EQ(build, build_bytes);
    EXPECT_EQ(store, store_bytes);
  }
}

/// The observation's nominal width costs nothing past its input support:
/// building an agent asks for the same bytes whether the observation has 3
/// or 5000 columns, and the first layers hold the kept columns only.
TEST(PpoRing, MemoryFollowsTheInputSupportNotObsDim) {
  ObsTable table;
  const std::vector<int> cols = {0, 2};
  std::size_t build_bytes = 0;
  for (int obs_dim : {3, 100, 5000}) {
    SCOPED_TRACE("obs_dim " + std::to_string(obs_dim));
    std::unique_ptr<PpoAgent> agent;
    const std::size_t build = new_bytes([&] {
      agent = std::make_unique<PpoAgent>(obs_dim, 2, table.observe(), std::vector<int>{4, 3},
                                         small_config(), 1, std::vector<int>{}, cols);
    });
    for (const Mlp* net : {&agent->actor(), &agent->critic()}) {
      const LinearLayer& first = net->layers().front();
      EXPECT_EQ(first.in_dim, 2);
      EXPECT_EQ(first.w.size(), 2u * static_cast<std::size_t>(small_config().hidden_dim));
      EXPECT_EQ(first.mw.size(), first.w.size());
    }
    if (build_bytes == 0) build_bytes = build;
    EXPECT_EQ(build, build_bytes);
  }
}

// ---------------------------------------------------------------------------
// Inputs are checked, not trusted.

TEST(PpoDeathTest, RejectsZeroCapacity) {
  PpoConfig cfg = small_config();
  cfg.buffer_capacity = 0;
  ObsTable table;
  EXPECT_DEATH(make_agent(table, 2, {3}, cfg, 1), "buffer_capacity >= 1");
}

TEST(PpoDeathTest, RejectsZeroMinibatch) {
  PpoConfig cfg = small_config();
  cfg.minibatch_size = 0;
  ObsTable table;
  EXPECT_DEATH(make_agent(table, 2, {3}, cfg, 1), "minibatch_size >= 1");
}

TEST(PpoDeathTest, RejectsMissingStateLayout) {
  ObsTable table;
  EXPECT_DEATH(PpoAgent(2, 0, table.observe(), {3}, small_config(), 1),
               "state size and observe");
  EXPECT_DEATH(PpoAgent(2, 2, nullptr, {3}, small_config(), 1), "state size and observe");
}

TEST(PpoDeathTest, RejectsWrongObservationWidth) {
  ObsTable table;
  PpoAgent agent = make_agent(table, 64, {3}, small_config(), 1);
  Rng rng(1);
  const std::vector<double> narrow = {0.5, -0.5};
  EXPECT_DEATH(agent.act(narrow, {}, rng), "observation width differs from obs_dim");
  EXPECT_DEATH(agent.value(narrow), "observation width differs from obs_dim");
}

TEST(PpoDeathTest, RejectsWrongStateSize) {
  ObsTable table;
  PpoAgent agent = make_agent(table, 2, {3}, small_config(), 1);
  PpoAgent::ActResult act;
  act.actions = {0};
  EXPECT_DEATH(agent.store({}, act, 0, 0, {}), "state size differs from state_bytes");
  EXPECT_DEATH(agent.store({0}, act, 0, 0, {}), "state size differs from state_bytes");
  EXPECT_DEATH(agent.store({0, 0, 0}, act, 0, 0, {}), "state size differs from state_bytes");
}

TEST(PpoDeathTest, RejectsABadInputSupport) {
  ObsTable table;
  for (const std::vector<int>& cols :
       {std::vector<int>{2, 1}, std::vector<int>{1, 1}, std::vector<int>{0, 3},
        std::vector<int>{-1, 0}}) {
    EXPECT_DEATH(PpoAgent(3, 2, table.observe(), {4}, small_config(), 1, {}, cols),
                 "input support must be strictly ascending columns below obs_dim");
  }
}

/// A column outside the input support must read 0.0 (either sign) wherever
/// the agent meets an observation: act(), value() and train()'s observe.
TEST(PpoDeathTest, RejectsNonzeroColumnOutsideTheInputSupport) {
  ObsTable table;
  PpoConfig cfg = small_config();
  cfg.minibatch_size = 1;
  PpoAgent agent(3, 2, table.observe(), {4}, cfg, 1, {}, {0, 2});
  Rng rng(1);
  PpoAgent::ActResult act = agent.act({0.5, -0.0, 0.25}, {}, rng);
  EXPECT_EQ(agent.value({0.5, 0.0, 0.25}), agent.value({0.5, -0.0, 0.25}));
  const std::vector<double> bad = {0.5, 1e-300, 0.25};
  EXPECT_DEATH(agent.act(bad, {}, rng), "observation column outside the input support is nonzero");
  EXPECT_DEATH(agent.value(bad), "observation column outside the input support is nonzero");
  agent.store(table.add(bad), act, 1.0, 0.0, {});
  EXPECT_DEATH(agent.train(rng), "observation column outside the input support is nonzero");
}

TEST(PpoDeathTest, RejectsWrongMaskWidth) {
  ObsTable table;
  PpoAgent agent = make_agent(table, 2, {4, 2}, small_config(), 1);
  Rng rng(1);
  const std::vector<double> obs = {0.5, -0.5};
  const std::vector<std::uint8_t> state = table.add(obs);
  const std::vector<bool> short_mask = {true, false};
  PpoAgent::ActResult act;
  act.actions = {0, 1};
  EXPECT_DEATH(agent.act(obs, short_mask, rng), "head-0 mask width");
  EXPECT_DEATH(agent.store(state, act, 0, 0, short_mask), "head-0 mask width");
}

TEST(PpoDeathTest, RejectsABadSupport) {
  ObsTable table;
  EXPECT_DEATH(PpoAgent(2, 2, table.observe(), {4, 2}, small_config(), 1, {2, 1}),
               "strictly ascending ids below head 0's size");
  EXPECT_DEATH(PpoAgent(2, 2, table.observe(), {4, 2}, small_config(), 1, {1, 1}),
               "strictly ascending ids below head 0's size");
  EXPECT_DEATH(PpoAgent(2, 2, table.observe(), {4, 2}, small_config(), 1, {0, 4}),
               "strictly ascending ids below head 0's size");
}

TEST(PpoDeathTest, RejectsActionsPastSixteenBits) {
  ObsTable table;
  EXPECT_DEATH(PpoAgent(2, 2, table.observe(), {4, 65537}, small_config(), 1),
               "must fit in 16 bits");
  EXPECT_DEATH(PpoAgent(2, 2, table.observe(), {65537, 2}, small_config(), 1),
               "must fit in 16 bits");
  // Head 0's nominal width may pass 16 bits: the ring stores support indices.
  PpoConfig cfg = small_config();
  cfg.hidden_dim = 4;
  PpoAgent wide(2, 2, table.observe(), {70000, 65536}, cfg, 1, {5, 69999});
  PpoAgent::ActResult act;
  act.actions = {69999, 65535};
  wide.store(table.add({0.5, -0.5}), act, 0, 0, {});
  EXPECT_EQ(wide.buffer_size(), 1u);
}

TEST(PpoDeathTest, RejectsMoveOutsideTheSupport) {
  ObsTable table;
  PpoAgent agent(2, 2, table.observe(), {4, 2}, small_config(), 1, {1, 3});
  Rng rng(1);
  const std::vector<double> obs = {0.5, -0.5};
  const std::vector<std::uint8_t> state = table.add(obs);
  const std::vector<bool> outside = {false, true, true, false};
  PpoAgent::ActResult act;
  act.actions = {2, 0};
  EXPECT_DEATH(agent.act(obs, outside, rng), "mask sets an action outside the support");
  EXPECT_DEATH(agent.store(state, act, 0, 0, {}), "head-0 action outside the support");
  act.actions = {3, 0};
  EXPECT_DEATH(agent.store(state, act, 0, 0, outside), "mask sets an action outside the support");
}

TEST(PpoDeathTest, RejectsBadActions) {
  ObsTable table;
  PpoAgent agent = make_agent(table, 2, {4, 2}, small_config(), 1);
  const std::vector<std::uint8_t> state = table.add({0.5, -0.5});
  PpoAgent::ActResult act;
  act.actions = {0};
  EXPECT_DEATH(agent.store(state, act, 0, 0, {}), "one action per head");
  act.actions = {0, 2};
  EXPECT_DEATH(agent.store(state, act, 0, 0, {}), "out of its head's range");
  act.actions = {-1, 0};
  EXPECT_DEATH(agent.store(state, act, 0, 0, {}), "out of its head's range");
}

}  // namespace
}  // namespace harl
