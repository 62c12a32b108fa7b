#include "nn/mlp.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace harl {

namespace {

/// Advances `next` past `i` when `i` is kept: every index when `kept` is
/// empty, else the indices it lists (strictly ascending, walked in order).
bool take_kept(const std::vector<int>& kept, std::vector<int>::const_iterator* next, int i) {
  if (kept.empty()) return true;
  if (*next == kept.end() || **next != i) return false;
  ++*next;
  return true;
}

}  // namespace

LinearLayer::LinearLayer(int in, int out, Rng& rng, const std::vector<int>& rows,
                         const std::vector<int>& cols)
    : in_dim(cols.empty() ? in : static_cast<int>(cols.size())),
      out_dim(rows.empty() ? out : static_cast<int>(rows.size())) {
  std::size_t n = static_cast<std::size_t>(in_dim) * static_cast<std::size_t>(out_dim);
  w.resize(n);
  // Xavier/Glorot uniform initialization over the full layer.
  double bound = std::sqrt(6.0 / (in + out));
  auto next_row = rows.begin();
  auto next_col = cols.begin();
  double* dst = w.data();
  for (int o = 0; o < out; ++o) {
    const bool keep_row = take_kept(rows, &next_row, o);
    next_col = cols.begin();
    for (int i = 0; i < in; ++i) {
      double v = rng.next_range(-bound, bound);
      if (take_kept(cols, &next_col, i) && keep_row) *dst++ = v;
    }
    HARL_CHECK(next_col == cols.end(),
               "LinearLayer: kept columns must be strictly ascending and below in_dim");
  }
  HARL_CHECK(next_row == rows.end(),
             "LinearLayer: kept rows must be strictly ascending and below out_dim");
  b.assign(static_cast<std::size_t>(out_dim), 0.0);
  mw.assign(n, 0.0);
  vw.assign(n, 0.0);
  mb.assign(static_cast<std::size_t>(out_dim), 0.0);
  vb.assign(static_cast<std::size_t>(out_dim), 0.0);
}

void LinearLayer::forward(const std::vector<double>& x, std::vector<double>* y) const {
  y->assign(static_cast<std::size_t>(out_dim), 0.0);
  for (int o = 0; o < out_dim; ++o) {
    const double* row = &w[static_cast<std::size_t>(o) * in_dim];
    double acc = b[static_cast<std::size_t>(o)];
    for (int i = 0; i < in_dim; ++i) acc += row[i] * x[static_cast<std::size_t>(i)];
    (*y)[static_cast<std::size_t>(o)] = acc;
  }
}

void LinearLayer::backward(const std::vector<double>& x, const std::vector<double>& dy,
                           std::vector<double>* dx) {
  if (gw.empty()) zero_grad();
  if (dx != nullptr) dx->assign(static_cast<std::size_t>(in_dim), 0.0);
  for (int o = 0; o < out_dim; ++o) {
    double d = dy[static_cast<std::size_t>(o)];
    if (d == 0.0) continue;
    double* grow = &gw[static_cast<std::size_t>(o) * in_dim];
    const double* row = &w[static_cast<std::size_t>(o) * in_dim];
    gb[static_cast<std::size_t>(o)] += d;
    for (int i = 0; i < in_dim; ++i) {
      grow[i] += d * x[static_cast<std::size_t>(i)];
      if (dx != nullptr) (*dx)[static_cast<std::size_t>(i)] += d * row[i];
    }
  }
}

void LinearLayer::zero_grad() {
  gw.assign(w.size(), 0.0);
  gb.assign(b.size(), 0.0);
}

void LinearLayer::adam_step(double lr, double beta1, double beta2, double eps, int t) {
  HARL_CHECK(!gw.empty(), "adam_step: no gradients (call zero_grad or backward first)");
  double bc1 = 1.0 - std::pow(beta1, t);
  double bc2 = 1.0 - std::pow(beta2, t);
  auto update = [&](std::vector<double>& p, std::vector<double>& g,
                    std::vector<double>& m, std::vector<double>& v) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      m[i] = beta1 * m[i] + (1 - beta1) * g[i];
      v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i];
      p[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
    }
  };
  update(w, gw, mw, vw);
  update(b, gb, mb, vb);
  // Release, not clear: a resting layer holds no gradient storage.
  std::vector<double>().swap(gw);
  std::vector<double>().swap(gb);
}

Mlp::Mlp(const std::vector<int>& dims, Rng& rng, const std::vector<int>& output_rows,
         const std::vector<int>& input_cols) {
  HARL_CHECK(dims.size() >= 2, "Mlp needs at least input and output dims");
  const std::vector<int> all;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng, i + 2 == dims.size() ? output_rows : all,
                         i == 0 ? input_cols : all);
  }
}

std::vector<double> Mlp::forward(const std::vector<double>& x, Trace* trace) const {
  HARL_CHECK(x.size() == static_cast<std::size_t>(in_dim()),
             "Mlp::forward: input width differs from in_dim");
  std::vector<double> cur = x;
  if (trace != nullptr) {
    trace->acts.clear();
    trace->acts.push_back(cur);
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<double> next;
    layers_[l].forward(cur, &next);
    if (l + 1 < layers_.size()) {
      for (double& v : next) v = std::tanh(v);
    }
    cur = std::move(next);
    if (trace != nullptr) trace->acts.push_back(cur);
  }
  return cur;
}

void Mlp::backward(const Trace& trace, const std::vector<double>& dout) {
  HARL_CHECK(trace.acts.size() == layers_.size() + 1, "trace/layer mismatch");
  std::vector<double> grad = dout;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    // Undo the tanh of hidden layers: dpre = dact * (1 - act^2).
    if (l + 1 < layers_.size()) {
      const std::vector<double>& act = trace.acts[l + 1];
      for (std::size_t i = 0; i < grad.size(); ++i) grad[i] *= 1.0 - act[i] * act[i];
    }
    std::vector<double> dx;
    layers_[l].backward(trace.acts[l], grad, l > 0 ? &dx : nullptr);
    grad = std::move(dx);
  }
}

void Mlp::zero_grad() {
  for (LinearLayer& l : layers_) l.zero_grad();
}

void Mlp::adam_step(double lr) {
  ++adam_t_;
  for (LinearLayer& l : layers_) l.adam_step(lr, 0.9, 0.999, 1e-8, adam_t_);
}

double Mlp::grad_norm() const {
  double s = 0;
  for (const LinearLayer& l : layers_) {
    for (double g : l.gw) s += g * g;
    for (double g : l.gb) s += g * g;
  }
  return std::sqrt(s);
}

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (const LinearLayer& l : layers_) n += l.w.size() + l.b.size();
  return n;
}

}  // namespace harl
