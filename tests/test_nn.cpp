#include <gtest/gtest.h>

#include <cmath>

#include "nn/categorical.hpp"
#include "nn/mlp.hpp"

namespace harl {
namespace {

TEST(Mlp, OutputShapeAndDeterminism) {
  Rng rng(1);
  Mlp net({4, 8, 3}, rng);
  EXPECT_EQ(net.in_dim(), 4);
  EXPECT_EQ(net.out_dim(), 3);
  EXPECT_EQ(net.num_parameters(), 4u * 8 + 8 + 8u * 3 + 3);
  std::vector<double> x = {0.1, -0.2, 0.3, 0.5};
  EXPECT_EQ(net.forward(x), net.forward(x));
}

/// Finite-difference check of `net`'s backprop at `x`: every weight and
/// bias of every layer.
void expect_gradient_matches_finite_difference(Mlp& net, const std::vector<double>& x) {
  auto loss = [&]() {
    std::vector<double> y = net.forward(x);
    double l = 0;
    for (double v : y) l += v * v;  // L = sum out^2
    return l;
  };

  Mlp::Trace trace;
  std::vector<double> y = net.forward(x, &trace);
  std::vector<double> dout(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) dout[i] = 2 * y[i];
  net.zero_grad();
  net.backward(trace, dout);

  const double eps = 1e-6;
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    LinearLayer& layer = net.layers()[l];
    for (std::size_t k = 0; k < layer.w.size(); ++k) {
      double save = layer.w[k];
      layer.w[k] = save + eps;
      double lp = loss();
      layer.w[k] = save - eps;
      double lm = loss();
      layer.w[k] = save;
      double numeric = (lp - lm) / (2 * eps);
      ASSERT_NEAR(layer.gw[k], numeric, 1e-5)
          << "layer " << l << " weight " << k;
    }
    for (std::size_t k = 0; k < layer.b.size(); ++k) {
      double save = layer.b[k];
      layer.b[k] = save + eps;
      double lp = loss();
      layer.b[k] = save - eps;
      double lm = loss();
      layer.b[k] = save;
      double numeric = (lp - lm) / (2 * eps);
      ASSERT_NEAR(layer.gb[k], numeric, 1e-5) << "layer " << l << " bias " << k;
    }
  }
}

TEST(Mlp, GradientMatchesFiniteDifference) {
  Rng rng(2);
  Mlp net({3, 5, 2}, rng);
  expect_gradient_matches_finite_difference(net, {0.3, -0.7, 1.1});
}

/// The same check on a compact net: its first layer keeps 3 of 6 input
/// columns and its last layer 2 of 4 output rows, and it takes the kept
/// columns only.
TEST(Mlp, CompactGradientMatchesFiniteDifference) {
  Rng rng(2);
  Mlp net({6, 5, 4}, rng, {1, 3}, {0, 2, 5});
  ASSERT_EQ(net.in_dim(), 3);
  ASSERT_EQ(net.out_dim(), 2);
  EXPECT_EQ(net.num_parameters(), 3u * 5 + 5 + 5u * 2 + 2);
  expect_gradient_matches_finite_difference(net, {0.3, -0.7, 1.1});
  // A single layer that keeps both rows and columns.
  Mlp one({5, 4}, rng, {0, 3}, {1, 4});
  expect_gradient_matches_finite_difference(one, {-0.4, 0.9});
}

/// A compact net draws every weight of the full one, in the full one's
/// order and with its bounds: each kept weight equals the full net's entry,
/// and both leave the Rng in the same state.
TEST(Mlp, CompactNetKeepsTheFullNetsDraws) {
  const std::vector<int> dims = {6, 5, 4};
  const std::vector<int> rows = {1, 3};
  const std::vector<int> cols = {0, 2, 5};
  Rng full_rng(9);
  Rng compact_rng(9);
  const Mlp full(dims, full_rng);
  const Mlp compact(dims, compact_rng, rows, cols);
  EXPECT_EQ(full_rng.serial_state(), compact_rng.serial_state());
  // Layer 0 keeps every row and the columns `cols`.
  const LinearLayer& f0 = full.layers()[0];
  const LinearLayer& c0 = compact.layers()[0];
  ASSERT_EQ(c0.in_dim, 3);
  ASSERT_EQ(c0.out_dim, 5);
  for (std::size_t o = 0; o < 5; ++o) {
    for (std::size_t k = 0; k < cols.size(); ++k) {
      ASSERT_EQ(c0.w[o * 3 + k], f0.w[o * 6 + static_cast<std::size_t>(cols[k])]);
    }
  }
  // Layer 1 keeps every column and the rows `rows`.
  const LinearLayer& f1 = full.layers()[1];
  const LinearLayer& c1 = compact.layers()[1];
  ASSERT_EQ(c1.in_dim, 5);
  ASSERT_EQ(c1.out_dim, 2);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    for (std::size_t i = 0; i < 5; ++i) {
      ASSERT_EQ(c1.w[j * 5 + i], f1.w[static_cast<std::size_t>(rows[j]) * 5 + i]);
    }
  }
}

/// The real gradient check: train on a fixed sample; if gradients were
/// wrong, Adam steps along them would not reduce the loss monotonically-ish.
TEST(Mlp, AdamDescendsQuadraticLoss) {
  Rng rng(3);
  Mlp net({2, 16, 1}, rng);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> x = {rng.next_range(-1, 1), rng.next_range(-1, 1)};
    ys.push_back(0.7 * x[0] - 1.3 * x[1] + 0.2);
    xs.push_back(std::move(x));
  }
  auto epoch_loss = [&]() {
    double l = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double p = net.forward(xs[i])[0];
      l += (p - ys[i]) * (p - ys[i]);
    }
    return l / static_cast<double>(xs.size());
  };
  double initial = epoch_loss();
  for (int epoch = 0; epoch < 300; ++epoch) {
    net.zero_grad();
    for (std::size_t i = 0; i < xs.size(); ++i) {
      Mlp::Trace tr;
      double p = net.forward(xs[i], &tr)[0];
      net.backward(tr, {2 * (p - ys[i]) / static_cast<double>(xs.size())});
    }
    net.adam_step(1e-2);
  }
  EXPECT_LT(epoch_loss(), initial * 0.01);
}

TEST(Mlp, BackwardAccumulatesAcrossSamples) {
  Rng rng(4);
  Mlp net({2, 4, 1}, rng);
  std::vector<double> x1 = {1.0, 0.0}, x2 = {0.0, 1.0};
  net.zero_grad();
  Mlp::Trace t1;
  net.forward(x1, &t1);
  net.backward(t1, {1.0});
  double g1 = net.grad_norm();
  Mlp::Trace t2;
  net.forward(x2, &t2);
  net.backward(t2, {1.0});
  double g2 = net.grad_norm();
  EXPECT_NE(g1, g2);  // second backward added gradient mass
}

/// Gradients live only from zero_grad/backward to adam_step.
TEST(Mlp, AdamStepReleasesGradients) {
  Rng rng(5);
  Mlp net({3, 4, 2}, rng);
  EXPECT_EQ(net.grad_norm(), 0.0);
  net.zero_grad();
  Mlp::Trace tr;
  net.forward({0.2, -0.4, 0.9}, &tr);
  net.backward(tr, {1.0, -1.0});
  EXPECT_GT(net.grad_norm(), 0.0);
  net.adam_step(1e-3);
  EXPECT_EQ(net.grad_norm(), 0.0);
  for (const LinearLayer& layer : net.layers()) {
    EXPECT_TRUE(layer.gw.empty());
    EXPECT_TRUE(layer.gb.empty());
  }
}

/// A backward on a fresh net, or right after a step, starts from zero: it
/// matches a backward preceded by an explicit zero_grad.
TEST(Mlp, BackwardAccumulatesFromZero) {
  const std::vector<double> x = {0.3, -0.1, 0.7};
  auto grads_after_backward = [&](bool zero_first, bool step_first) {
    Rng rng(6);
    Mlp net({3, 4, 2}, rng);
    Mlp::Trace tr;
    if (step_first) {
      net.forward(x, &tr);
      net.backward(tr, {0.5, 0.5});
      net.adam_step(1e-3);
    }
    if (zero_first) net.zero_grad();
    net.forward(x, &tr);
    net.backward(tr, {1.0, 2.0});
    std::vector<double> g;
    for (const LinearLayer& layer : net.layers()) {
      g.insert(g.end(), layer.gw.begin(), layer.gw.end());
      g.insert(g.end(), layer.gb.begin(), layer.gb.end());
    }
    return g;
  };
  EXPECT_EQ(grads_after_backward(false, false), grads_after_backward(true, false));
  EXPECT_EQ(grads_after_backward(false, true), grads_after_backward(true, true));
}

TEST(MlpDeathTest, SecondAdamStepWithoutGradientsDies) {
  Rng rng(7);
  Mlp net({2, 3, 1}, rng);
  Mlp::Trace tr;
  net.zero_grad();
  net.forward({1.0, -1.0}, &tr);
  net.backward(tr, {1.0});
  net.adam_step(1e-2);
  EXPECT_DEATH(net.adam_step(1e-2), "no gradients");
}

TEST(MlpDeathTest, ForwardRejectsWrongInputWidth) {
  Rng rng(8);
  Mlp net({4, 3, 1}, rng);
  EXPECT_DEATH(net.forward({1.0, 2.0}), "input width differs from in_dim");
  // A compact net takes its kept columns only.
  Mlp compact({4, 3, 1}, rng, {}, {1, 3});
  EXPECT_DEATH(compact.forward({1.0, 2.0, 3.0, 4.0}), "input width differs from in_dim");
}

TEST(MlpDeathTest, RejectsBadKeptRowsOrColumns) {
  Rng rng(8);
  EXPECT_DEATH(Mlp({4, 3}, rng, {2, 1}), "kept rows must be strictly ascending");
  EXPECT_DEATH(Mlp({4, 3}, rng, {0, 3}), "kept rows must be strictly ascending");
  EXPECT_DEATH(Mlp({4, 3}, rng, {}, {1, 1}), "kept columns must be strictly ascending");
  EXPECT_DEATH(Mlp({4, 3}, rng, {}, {0, 4}), "kept columns must be strictly ascending");
}

TEST(Categorical, SoftmaxSumsToOne) {
  std::vector<double> logits = {1.0, 2.0, 3.0, -1.0};
  auto p = masked_softmax(logits, nullptr);
  double sum = 0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Categorical, MaskZeroesInvalidActions) {
  std::vector<double> logits = {5.0, 1.0, 1.0};
  std::vector<bool> mask = {false, true, true};
  auto p = masked_softmax(logits, &mask);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_NEAR(p[1] + p[2], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(Categorical, SoftmaxNumericallyStableForHugeLogits) {
  std::vector<double> logits = {1000.0, 1001.0};
  auto p = masked_softmax(logits, nullptr);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(Categorical, SamplingFollowsDistribution) {
  std::vector<double> p = {0.1, 0.6, 0.3};
  Rng rng(5);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[sample_categorical(p, rng)];
  EXPECT_NEAR(counts[1] / 10000.0, 0.6, 0.03);
  EXPECT_NEAR(counts[2] / 10000.0, 0.3, 0.03);
}

TEST(Categorical, EntropyExtremes) {
  EXPECT_NEAR(categorical_entropy({0.5, 0.5}), std::log(2.0), 1e-12);
  EXPECT_NEAR(categorical_entropy({1.0, 0.0}), 0.0, 1e-12);
}

TEST(Categorical, ArgmaxAndLogProb) {
  std::vector<double> p = {0.2, 0.7, 0.1};
  EXPECT_EQ(argmax_categorical(p), 1);
  EXPECT_NEAR(categorical_log_prob(p, 1), std::log(0.7), 1e-12);
}

/// Finite-difference check of categorical_backward: perturb logits and
/// compare d(coef_logp*logp + coef_ent*H)/dlogits.
TEST(Categorical, BackwardMatchesFiniteDifference) {
  std::vector<double> logits = {0.4, -0.3, 1.2, 0.0};
  std::vector<bool> mask = {true, true, false, true};
  const int action = 1;
  const double cl = 0.8, ce = 0.3;

  auto objective = [&](const std::vector<double>& lg) {
    auto p = masked_softmax(lg, &mask);
    return cl * categorical_log_prob(p, action) + ce * categorical_entropy(p);
  };
  auto p = masked_softmax(logits, &mask);
  auto analytic = categorical_backward(p, action, cl, ce, &mask);

  const double eps = 1e-6;
  for (std::size_t k = 0; k < logits.size(); ++k) {
    std::vector<double> lp = logits, lm = logits;
    lp[k] += eps;
    lm[k] -= eps;
    double numeric = (objective(lp) - objective(lm)) / (2 * eps);
    EXPECT_NEAR(analytic[k], numeric, 1e-6) << "logit " << k;
  }
}

}  // namespace
}  // namespace harl
