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
///
/// A layer may be a *compact* copy of a full in_full x out_full layer: it
/// keeps some output rows and some input columns and stores nothing of the
/// others.  Every weight of the full layer is still drawn, row-major with
/// the full layer's Xavier bound, so each kept weight starts exactly as the
/// full layer's does.  Dropping rows is exact when the caller never lets a
/// dropped output matter (PpoAgent: a head-0 action no mask allows).
/// Dropping columns is exact when every dropped input is exactly +-0.0 and
/// the layer is a network's first (it computes no dx):
///   - forward: a dropped term w * 0.0 is +-0.0, and adding +-0.0 to an
///     accumulator leaves it unchanged unless the accumulator is -0.0.  In
///     round-to-nearest a sum is -0.0 only when both addends are, and the
///     accumulator starts at the bias, which is never -0.0: it starts at
///     +0.0, and an Adam step p - u yields +0.0 whenever it yields zero.
///     So the accumulator never becomes -0.0, and the kept terms sum to the
///     same bits in the same order;
///   - backward: a dropped weight's gradient d * 0.0 is +-0.0 added to a
///     +0.0 accumulator, so it stays +0.0; its Adam moments stay 0 and the
///     weight never moves.  The full layer's dropped entries keep their
///     initial values, and the kept ones move as the compact layer's do.
struct LinearLayer {
  /// Xavier-uniform weights drawn row by row for an in_dim x out_dim layer.
  /// A non-empty `rows` (strictly ascending, each < out_dim) keeps only those
  /// output rows, and a non-empty `cols` (strictly ascending, each < in_dim)
  /// only those input columns; in_dim and out_dim are then the kept counts.
  LinearLayer(int in_dim, int out_dim, Rng& rng, const std::vector<int>& rows = {},
              const std::vector<int>& cols = {});

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
  /// only those rows of the output layer and a non-empty `input_cols` only
  /// those columns of the first layer (see LinearLayer); out_dim() and
  /// in_dim() are then their counts, and forward() takes the kept columns
  /// only.
  Mlp(const std::vector<int>& dims, Rng& rng, const std::vector<int>& output_rows = {},
      const std::vector<int>& input_cols = {});

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
