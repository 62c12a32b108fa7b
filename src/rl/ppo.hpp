#pragma once

/// \file ppo.hpp
/// PPO actor-critic over schedule modification actions (clipped surrogate,
/// GAE, entropy bonus) — the low level of HARL's hierarchy.  Invariant:
/// updates are deterministic from the seed and minibatch layout.
/// Collaborators: nn (Mlp, Categorical), HarlSearchPolicy.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "nn/mlp.hpp"

namespace harl {

/// PPO hyper-parameters; defaults are the paper's Table 5 values.
struct PpoConfig {
  double lr_actor = 3e-4;        ///< lr_a
  double lr_critic = 1e-3;       ///< lr_c
  double gamma = 0.9;            ///< discount factor of Eq. 6
  double clip_eps = 0.2;         ///< PPO clipped-surrogate epsilon
  double entropy_weight = 0.01;  ///< w_entropy
  double value_loss_weight = 0.5;///< w_MSE
  int train_interval = 2;        ///< T_rl: steps between training calls
  int update_epochs = 4;         ///< minibatches sampled per train()
  int minibatch_size = 64;       ///< >= 1
  int hidden_dim = 64;
  int buffer_capacity = 4096;    ///< replay ring rows, >= 1
};

/// Proximal Policy Optimization agent with a multi-head categorical policy.
///
/// The actor trunk emits one logit block per modification-type head (Table 3:
/// tiling pairs, compute-at, parallel-loops, auto-unroll); the joint action
/// log-probability is the sum over heads.  Head 0 takes a legality mask
/// (invalid tiling moves get probability zero).  The critic is a separate
/// value MLP; both use two tanh hidden layers, trained with Adam.
///
/// Head 0 has a *support*: the ascending action ids any mask can ever set
/// (HARL's is ActionSpace::tile_action_support(); empty means every id).
/// The actor's output layer holds only the support's rows of head 0, drawn
/// as the full layer would draw them (see LinearLayer), so its outputs are
/// those of a full-width actor whose other rows are always masked: such
/// rows get no gradient and never move.  Callers keep head 0's full
/// numbering: masks are head_sizes()[0] wide, act() returns action ids and
/// store() takes them; the agent gathers the support's bits and compact
/// indices inside.  An empty mask allows the whole support.
///
/// The observation has an *input support* too: the ascending columns that
/// can ever be nonzero (HARL's is rl_observation_support(); empty means
/// every column).  The first layer of the actor and of the critic holds
/// only those columns, drawn as the full layer would draw them, so every
/// output, gradient and update is bit-identical to a full-width agent's
/// (LinearLayer says why).  Callers still pass, and `observe` still writes,
/// the full obs_dim-wide observation; the agent gathers the kept columns
/// and aborts if a dropped one is not exactly 0.0.
///
/// Training samples minibatches from a bounded replay ring (Algorithm 1,
/// lines 14-17) and applies the clipped surrogate objective with an entropy
/// bonus; the critic minimizes MSE against the one-step TD target
/// r + gamma * V(s') (Eq. 6).
///
/// Memory: the ring stores each step's *state*, not its observation.  A
/// state is an opaque, caller-defined row of `state_bytes` bytes (HARL's is
/// the schedule's decisions bit-packed by RlStateCodec), and train()
/// rebuilds the observation of every sampled row through the `observe`
/// function the agent was built with, so the networks see exactly what
/// act() saw.  The ring is a list of blocks of kRingBlockRows rows; each
/// block holds flat columns: states, actions (uint16, head 0 as a support
/// index), the collection-time log-prob and value, the one-step TD target
/// r + gamma * V(s') that store() computes once, head-0 mask bits over the
/// support and a has-mask flag per row.  A row thus costs its state bytes,
/// 2 bytes per head, three doubles, and one bit per support action plus
/// one.  store() reserves a block's columns the first time it reaches the
/// block, grows them row by row inside that reservation while filling, and
/// never moves them: row r lives in block r / kRingBlockRows at offset
/// r % kRingBlockRows.  Nothing is reserved at `buffer_capacity`:
/// reserved-but-untouched pages stay out of the resident set only in a
/// fresh process, and once a process has freed an earlier session, later
/// reservations come from heap pages that are already resident.  So an
/// agent's memory is its stored rows rounded up to one block, in every
/// session of a process.  Rows fill in order and then overwrite the oldest.
/// The actor and critic keep weights and Adam moments; their gradients
/// exist only inside train().  No head-0 action outside the support and no
/// observation column outside the input support costs a weight, a moment
/// or a mask bit, so an agent's memory depends on its supports, not on
/// head 0's nominal width or obs_dim.
///
/// Every input is checked: an observation must be `obs_dim` wide with every
/// column outside the input support 0.0, a state `state_bytes` long, an
/// action list must hold one in-range index per head (head 0's inside the
/// support), and a head-0 mask must be empty or exactly head 0's width with
/// no bit set outside the support.  Every stored action must fit a uint16:
/// heads after the first, and head 0's support, hold at most 65,536
/// actions.
class PpoAgent {
 public:
  /// Writes the observation (obs_dim doubles) of one stored state row
  /// (state_bytes bytes).  Must be deterministic: it is called again for
  /// every sampled row in train().
  using ObserveFn = std::function<void(const std::uint8_t* state, double* obs)>;

  /// `head0_support` lists head 0's possible actions, strictly ascending
  /// and below head_sizes[0]; `obs_support` lists the observation columns
  /// that can be nonzero, strictly ascending and below obs_dim.  Empty means
  /// all of them.
  PpoAgent(int obs_dim, int state_bytes, ObserveFn observe, std::vector<int> head_sizes,
           PpoConfig cfg, std::uint64_t seed, std::vector<int> head0_support = {},
           std::vector<int> obs_support = {});

  struct ActResult {
    std::vector<int> actions;
    double logp = 0;
    double value = 0;
  };

  /// Sample a joint action. `head0_mask` may be empty (the whole support).
  ActResult act(const std::vector<double>& obs, const std::vector<bool>& head0_mask,
                Rng& rng) const;

  /// Critic estimate V(obs).
  double value(const std::vector<double>& obs) const;

  /// One-step advantage A = r + gamma*V(s') - V(s) (paper Eq. 6).
  double advantage(double reward, double value, double next_value) const {
    return reward + cfg_.gamma * next_value - value;
  }

  /// Record one environment step (Algorithm 1, line 12): the state acted
  /// in, the action taken with its collection-time log-prob and value, the
  /// reward, V(s') and head 0's mask (may be empty).  The row keeps the TD
  /// target r + gamma * V(s'), not r and V(s').  It is copied in; callers
  /// keep and reuse their buffers.
  void store(const std::vector<std::uint8_t>& state, const ActResult& act, double reward,
             double next_value, const std::vector<bool>& head0_mask);
  std::size_t buffer_size() const {
    return std::min(buffer_next_, static_cast<std::size_t>(cfg_.buffer_capacity));
  }

  /// Run `update_epochs` minibatch updates (no-op while the buffer is
  /// smaller than one minibatch). Returns the mean actor objective.
  double train(Rng& rng);

  const PpoConfig& config() const { return cfg_; }
  int obs_dim() const { return obs_dim_; }
  const std::vector<int>& head_sizes() const { return head_sizes_; }

  /// Rows per ring block.
  static constexpr std::size_t kRingBlockRows = 256;

  /// White-box access for differential tests.
  const Mlp& actor() const { return actor_; }
  const Mlp& critic() const { return critic_; }
  /// Ring rows allocated so far (stored rows rounded up to a block).
  std::size_t ring_rows_allocated() const;

 private:
  /// Split the actor's flat logits into per-head vectors (head 0 over the
  /// support).
  std::vector<std::vector<double>> split_heads(const std::vector<double>& logits) const;

  /// The input support's columns of the obs_dim-wide `obs`, written to
  /// `x`; aborts unless every other column is 0.0.
  void gather(const double* obs, std::vector<double>* x) const;
  /// gather() of a caller's observation; aborts unless it is obs_dim wide.
  std::vector<double> gather_checked(const std::vector<double>& obs) const;
  /// Aborts unless `head0_mask` is empty or head 0's width with no bit set
  /// outside the support.
  void check_mask(const std::vector<bool>& head0_mask) const;

  PpoConfig cfg_;
  int obs_dim_;
  int state_bytes_;
  ObserveFn observe_;
  std::vector<int> head_sizes_;
  std::vector<int> support_;      ///< head 0's action ids, ascending
  std::vector<int> obs_support_;  ///< observation columns kept, ascending
  Mlp actor_;
  Mlp critic_;
  /// Up to kRingBlockRows consecutive rows of the replay ring.
  struct RingBlock {
    std::vector<std::uint8_t> states;    ///< rows x state_bytes
    std::vector<std::uint16_t> actions;  ///< rows x heads, head 0 as a support index
    std::vector<double> logp, value;     ///< at collection time
    std::vector<double> target;          ///< r + gamma * V(s')
    std::vector<bool> mask_bits;         ///< rows x support size
    std::vector<bool> has_mask;
  };
  std::vector<RingBlock> blocks_;
  std::size_t buffer_next_ = 0;     ///< ring write cursor (steps stored so far)
};

}  // namespace harl
