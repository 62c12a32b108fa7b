#pragma once

/// \file mlp.hpp
/// Minimal MLP (dense layers + tanh) with manual backprop — the function
/// approximator for the PPO actor and critic.  Invariant: initialization
/// and updates are deterministic from the seed.  Collaborators: rl/ppo.

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace harl {

/// A fully-connected layer with its Adam optimizer state.
///
/// Weights are row-major [out x in]. Gradients accumulate across backward
/// calls until `adam_step` consumes and releases them, so minibatch gradients
/// are averaged by the caller's scaling of the loss.  `gw`/`gb` are empty
/// outside that window: `zero_grad` (or the first `backward` after a step)
/// allocates them zeroed, and a layer at rest holds only weights and Adam
/// moments.
struct LinearLayer {
  /// Xavier-uniform weights drawn row by row for an in_dim x out_dim layer.
  /// A non-empty `rows` (strictly ascending, each < out_dim) keeps only those
  /// output rows: every row's draws are still taken, with the full layer's
  /// bound, so a kept row starts with exactly the weights the full layer
  /// gives it, and the dropped rows are never stored.
  LinearLayer(int in_dim, int out_dim, Rng& rng, const std::vector<int>& rows = {});

  void forward(const std::vector<double>& x, std::vector<double>* y) const;

  /// Accumulate dL/dW, dL/db given dL/dy and the cached input x (starting
  /// from zero when no gradients are held); writes dL/dx into `dx` when
  /// non-null.
  void backward(const std::vector<double>& x, const std::vector<double>& dy,
                std::vector<double>* dx);

  /// Allocate zeroed gradients (or zero the held ones).
  void zero_grad();
  /// Apply the held gradients and release them; aborts when none are held.
  void adam_step(double lr, double beta1, double beta2, double eps, int t);

  int in_dim;
  int out_dim;
  std::vector<double> w, b;
  std::vector<double> gw, gb;  // empty outside zero_grad/backward .. adam_step
  std::vector<double> mw, vw, mb, vb;  // Adam moments
};

/// Multi-layer perceptron with tanh hidden activations and a linear output
/// layer, trained by explicit backprop + Adam.  Small by design: the paper's
/// PPO actor/critic networks are two-hidden-layer MLPs over schedule
/// observations.
class Mlp {
 public:
  /// dims = {input, hidden..., output}.  A non-empty `output_rows` keeps
  /// only those rows of the output layer (see LinearLayer); out_dim() is
  /// then their count.
  Mlp(const std::vector<int>& dims, Rng& rng, const std::vector<int>& output_rows = {});

  int in_dim() const { return layers_.front().in_dim; }
  int out_dim() const { return layers_.back().out_dim; }

  /// Activations of every layer for one sample; index 0 is the input copy,
  /// back() is the network output.  Needed for backward.
  struct Trace {
    std::vector<std::vector<double>> acts;
  };

  /// Forward one sample; fills `trace` when non-null.  `x` must be
  /// in_dim() wide.
  std::vector<double> forward(const std::vector<double>& x, Trace* trace = nullptr) const;

  /// Backprop dL/dout through the trace, accumulating parameter gradients.
  void backward(const Trace& trace, const std::vector<double>& dout);

  void zero_grad();

  /// One Adam update over all layers (increments the internal step counter),
  /// consuming and releasing the gradients.
  void adam_step(double lr);

  /// Global L2 norm of accumulated gradients, 0 when none are held (for
  /// diagnostics/tests).
  double grad_norm() const;

  std::size_t num_parameters() const;

  /// White-box access for gradient-checking tests.
  std::vector<LinearLayer>& layers() { return layers_; }
  const std::vector<LinearLayer>& layers() const { return layers_; }

 private:
  std::vector<LinearLayer> layers_;
  int adam_t_ = 0;
};

}  // namespace harl
