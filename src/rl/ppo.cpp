#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "nn/categorical.hpp"
#include "util/logging.hpp"

namespace harl {

namespace {

std::vector<int> mlp_dims(int in, int hidden, int out) { return {in, hidden, hidden, out}; }

/// `ids` checked to be strictly ascending and below `n`, or all of [0, n)
/// when empty.
std::vector<int> checked_ids(std::vector<int> ids, int n, const char* what) {
  if (ids.empty()) {
    ids.resize(static_cast<std::size_t>(std::max(n, 0)));
    std::iota(ids.begin(), ids.end(), 0);
  }
  for (std::size_t j = 0; j < ids.size(); ++j) {
    HARL_CHECK(ids[j] >= (j == 0 ? 0 : ids[j - 1] + 1) && ids[j] < n, what);
  }
  return ids;
}

/// `support` checked against head 0's size, or all of head 0 when empty.
std::vector<int> checked_support(const std::vector<int>& head_sizes, std::vector<int> support) {
  HARL_CHECK(!head_sizes.empty(), "PpoAgent needs at least one action head");
  support = checked_ids(
      std::move(support), head_sizes[0],
      "PpoAgent: head-0 support must be strictly ascending ids below head 0's size");
  // The ring stores head 0's actions as support indices and the other
  // heads' as action ids, all as uint16.
  constexpr std::size_t kU16Values = std::size_t{UINT16_MAX} + 1;
  HARL_CHECK(support.size() <= kU16Values &&
                 std::all_of(head_sizes.begin() + 1, head_sizes.end(),
                             [](int n) { return static_cast<std::size_t>(n) <= kU16Values; }),
             "PpoAgent: head 0's support and every other head must fit in 16 bits");
  return support;
}

}  // namespace

PpoAgent::PpoAgent(int obs_dim, int state_bytes, ObserveFn observe,
                   std::vector<int> head_sizes, PpoConfig cfg, std::uint64_t seed,
                   std::vector<int> head0_support, std::vector<int> obs_support)
    : cfg_(cfg),
      obs_dim_(obs_dim),
      state_bytes_(state_bytes),
      observe_(std::move(observe)),
      head_sizes_(std::move(head_sizes)),
      support_(checked_support(head_sizes_, std::move(head0_support))),
      obs_support_(checked_ids(
          std::move(obs_support), obs_dim,
          "PpoAgent: input support must be strictly ascending columns below obs_dim")),
      actor_([&] {
        Rng rng(seed);
        int total = 0;
        for (int h : head_sizes_) total += h;
        // Head 0's support rows, then every row of the other heads.
        std::vector<int> rows = support_;
        for (int r = head_sizes_[0]; r < total; ++r) rows.push_back(r);
        return Mlp(mlp_dims(obs_dim, cfg.hidden_dim, total), rng, rows, obs_support_);
      }()),
      critic_([&] {
        Rng rng(seed ^ 0x5bd1e995ULL);
        return Mlp(mlp_dims(obs_dim, cfg.hidden_dim, 1), rng, {}, obs_support_);
      }()) {
  HARL_CHECK(cfg_.buffer_capacity >= 1, "PpoAgent needs buffer_capacity >= 1");
  HARL_CHECK(cfg_.minibatch_size >= 1, "PpoAgent needs minibatch_size >= 1");
  HARL_CHECK(state_bytes_ >= 1 && observe_, "PpoAgent needs a state size and observe");
}

std::size_t PpoAgent::ring_rows_allocated() const {
  std::size_t rows = 0;
  for (const RingBlock& b : blocks_) rows += b.logp.capacity();
  return rows;
}

void PpoAgent::gather(const double* obs, std::vector<double>* x) const {
  x->resize(obs_support_.size());
  std::size_t j = 0;
  for (int c = 0; c < obs_dim_; ++c) {
    if (j < obs_support_.size() && obs_support_[j] == c) {
      (*x)[j++] = obs[c];
    } else {
      HARL_CHECK(obs[c] == 0.0,
                 "PpoAgent: observation column outside the input support is nonzero");
    }
  }
}

std::vector<double> PpoAgent::gather_checked(const std::vector<double>& obs) const {
  HARL_CHECK(obs.size() == static_cast<std::size_t>(obs_dim_),
             "PpoAgent: observation width differs from obs_dim");
  std::vector<double> x;
  gather(obs.data(), &x);
  return x;
}

void PpoAgent::check_mask(const std::vector<bool>& head0_mask) const {
  if (head0_mask.empty()) return;
  HARL_CHECK(head0_mask.size() == static_cast<std::size_t>(head_sizes_[0]),
             "PpoAgent: head-0 mask width differs from head 0's size");
  std::size_t in_support = 0;
  for (int a : support_) in_support += head0_mask[static_cast<std::size_t>(a)] ? 1 : 0;
  HARL_CHECK(in_support == static_cast<std::size_t>(
                               std::count(head0_mask.begin(), head0_mask.end(), true)),
             "PpoAgent: head-0 mask sets an action outside the support");
}

std::vector<std::vector<double>> PpoAgent::split_heads(
    const std::vector<double>& logits) const {
  std::vector<std::vector<double>> heads;
  heads.reserve(head_sizes_.size());
  std::size_t off = 0;
  for (std::size_t h = 0; h < head_sizes_.size(); ++h) {
    const std::size_t n =
        h == 0 ? support_.size() : static_cast<std::size_t>(head_sizes_[h]);
    heads.emplace_back(logits.begin() + static_cast<std::ptrdiff_t>(off),
                       logits.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
  }
  return heads;
}

PpoAgent::ActResult PpoAgent::act(const std::vector<double>& obs,
                                  const std::vector<bool>& head0_mask,
                                  Rng& rng) const {
  const std::vector<double> x = gather_checked(obs);
  check_mask(head0_mask);
  std::vector<bool> mask0(head0_mask.empty() ? 0 : support_.size());
  for (std::size_t j = 0; j < mask0.size(); ++j) {
    mask0[j] = head0_mask[static_cast<std::size_t>(support_[j])];
  }
  ActResult res;
  std::vector<double> logits = actor_.forward(x);
  std::vector<std::vector<double>> heads = split_heads(logits);
  for (std::size_t h = 0; h < heads.size(); ++h) {
    const std::vector<bool>* mask = (h == 0 && !mask0.empty()) ? &mask0 : nullptr;
    std::vector<double> probs = masked_softmax(heads[h], mask);
    int a = sample_categorical(probs, rng);
    // Head 0 samples a support index; callers get the action id.
    res.actions.push_back(h == 0 ? support_[static_cast<std::size_t>(a)] : a);
    res.logp += categorical_log_prob(probs, a);
  }
  res.value = critic_.forward(x)[0];
  return res;
}

double PpoAgent::value(const std::vector<double>& obs) const {
  return critic_.forward(gather_checked(obs))[0];
}

void PpoAgent::store(const std::vector<std::uint8_t>& state, const ActResult& act,
                     double reward, double next_value,
                     const std::vector<bool>& head0_mask) {
  HARL_CHECK(state.size() == static_cast<std::size_t>(state_bytes_),
             "PpoAgent::store: state size differs from state_bytes");
  check_mask(head0_mask);
  const std::size_t heads = head_sizes_.size();
  HARL_CHECK(act.actions.size() == heads, "PpoAgent::store: need one action per head");
  for (std::size_t h = 0; h < heads; ++h) {
    HARL_CHECK(act.actions[h] >= 0 && act.actions[h] < head_sizes_[h],
               "PpoAgent::store: action out of its head's range");
  }
  const auto in_support = std::lower_bound(support_.begin(), support_.end(), act.actions[0]);
  HARL_CHECK(in_support != support_.end() && *in_support == act.actions[0],
             "PpoAgent::store: head-0 action outside the support");
  const auto sw = static_cast<std::size_t>(state_bytes_);
  const std::size_t width = support_.size();
  const auto cap = static_cast<std::size_t>(cfg_.buffer_capacity);
  const std::size_t row = buffer_next_ % cap;
  ++buffer_next_;
  if (row / kRingBlockRows == blocks_.size()) {  // first row of a new block
    const std::size_t n = std::min(kRingBlockRows, cap - row);
    RingBlock& b = blocks_.emplace_back();
    b.states.reserve(n * sw);
    b.actions.reserve(n * heads);
    for (std::vector<double>* col : {&b.logp, &b.value, &b.target}) col->reserve(n);
    b.mask_bits.reserve(n * width);
    b.has_mask.reserve(n);
  }
  RingBlock& b = blocks_[row / kRingBlockRows];
  const std::size_t i = row % kRingBlockRows;
  if (i == b.logp.size()) {  // still filling: grow each column by one row
    b.states.resize(b.states.size() + sw);
    b.actions.resize(b.actions.size() + heads);
    for (std::vector<double>* col : {&b.logp, &b.value, &b.target}) col->push_back(0.0);
    b.mask_bits.resize(b.mask_bits.size() + width);
    b.has_mask.push_back(false);
  }
  std::copy(state.begin(), state.end(), b.states.begin() + static_cast<std::ptrdiff_t>(i * sw));
  std::uint16_t* actions = &b.actions[i * heads];
  actions[0] = static_cast<std::uint16_t>(in_support - support_.begin());
  for (std::size_t h = 1; h < heads; ++h) {
    actions[h] = static_cast<std::uint16_t>(act.actions[h]);
  }
  b.logp[i] = act.logp;
  b.value[i] = act.value;
  b.target[i] = reward + cfg_.gamma * next_value;
  const bool masked = !head0_mask.empty();
  b.has_mask[i] = masked;
  for (std::size_t j = 0; j < width; ++j) {
    b.mask_bits[i * width + j] =
        masked && head0_mask[static_cast<std::size_t>(support_[j])];
  }
}

double PpoAgent::train(Rng& rng) {
  const std::size_t rows = buffer_size();
  if (rows < static_cast<std::size_t>(cfg_.minibatch_size)) return 0;
  const auto sw = static_cast<std::size_t>(state_bytes_);
  const std::size_t num_heads = head_sizes_.size();
  const std::size_t width = support_.size();
  double mean_objective = 0;
  int num_updates = 0;
  // One row of the ring, unpacked for the Mlp and the masked softmax.
  std::vector<double> obs(static_cast<std::size_t>(obs_dim_));
  std::vector<double> x;
  std::vector<bool> mask(width);

  for (int epoch = 0; epoch < cfg_.update_epochs; ++epoch) {
    // Sample one minibatch (with replacement across epochs).
    std::vector<std::size_t> batch(static_cast<std::size_t>(cfg_.minibatch_size));
    for (std::size_t& i : batch) i = rng.pick_index(rows);

    // Advantages target - V(s) from collection-time values (advantage(),
    // Eq. 6), normalized per batch.
    std::vector<double> adv(batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const RingBlock& b = blocks_[batch[k] / kRingBlockRows];
      const std::size_t i = batch[k] % kRingBlockRows;
      adv[k] = b.target[i] - b.value[i];
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
      const RingBlock& b = blocks_[batch[k] / kRingBlockRows];
      const std::size_t i = batch[k] % kRingBlockRows;
      observe_(&b.states[i * sw], obs.data());
      gather(obs.data(), &x);
      const std::vector<bool>* mask0 = nullptr;
      if (b.has_mask[i]) {
        for (std::size_t j = 0; j < width; ++j) mask[j] = b.mask_bits[i * width + j];
        mask0 = &mask;
      }
      const std::uint16_t* actions = &b.actions[i * num_heads];
      Mlp::Trace atrace;
      std::vector<double> logits = actor_.forward(x, &atrace);
      std::vector<std::vector<double>> heads = split_heads(logits);

      double logp_new = 0;
      std::vector<std::vector<double>> head_probs(heads.size());
      for (std::size_t h = 0; h < heads.size(); ++h) {
        head_probs[h] = masked_softmax(heads[h], h == 0 ? mask0 : nullptr);
        logp_new += categorical_log_prob(head_probs[h], actions[h]);
      }

      double ratio = std::exp(std::clamp(logp_new - b.logp[i], -20.0, 20.0));
      double unclipped = ratio * adv[k];
      double clipped =
          std::clamp(ratio, 1.0 - cfg_.clip_eps, 1.0 + cfg_.clip_eps) * adv[k];
      mean_objective += std::min(unclipped, clipped);
      // Gradient flows through logp only when the unclipped branch is active.
      bool pass_gradient = (adv[k] >= 0 && ratio < 1.0 + cfg_.clip_eps) ||
                           (adv[k] < 0 && ratio > 1.0 - cfg_.clip_eps);
      double dlogp = pass_gradient ? -adv[k] * ratio : 0.0;  // d(-objective)/dlogp

      std::vector<double> dlogits_full;
      dlogits_full.reserve(logits.size());
      for (std::size_t h = 0; h < heads.size(); ++h) {
        // Loss = -objective - w_ent * H  =>  dLoss/dlogits via helper with
        // coef_logp = dlogp and coef_entropy = -(-w_ent) handled by sign:
        std::vector<double> dl = categorical_backward(
            head_probs[h], actions[h], dlogp, -cfg_.entropy_weight, h == 0 ? mask0 : nullptr);
        // categorical_backward returns d(coef_logp*logp + coef_ent*H); since
        // we folded the loss signs into the coefficients, accumulate as-is.
        dlogits_full.insert(dlogits_full.end(), dl.begin(), dl.end());
      }
      for (double& d : dlogits_full) d *= inv_n;
      actor_.backward(atrace, dlogits_full);

      // Critic: w_MSE * (V(s) - (r + gamma * V(s')))^2.
      Mlp::Trace ctrace;
      double v = critic_.forward(x, &ctrace)[0];
      std::vector<double> dv = {cfg_.value_loss_weight * 2.0 * (v - b.target[i]) * inv_n};
      critic_.backward(ctrace, dv);
    }

    actor_.adam_step(cfg_.lr_actor);
    critic_.adam_step(cfg_.lr_critic);
    num_updates += cfg_.minibatch_size;
  }
  return num_updates > 0 ? mean_objective / num_updates : 0.0;
}

}  // namespace harl
