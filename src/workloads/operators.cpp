#include "workloads/operators.hpp"

#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "workloads/networks.hpp"

namespace harl {

namespace {

std::int64_t conv_out(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                      std::int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

std::int64_t t2d_out(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                     std::int64_t pad) {
  return (in - 1) * stride - 2 * pad + kernel;
}

/// Input position of a sliding window: stride * output axis + kernel axis.
DimExpr window(int out_axis, std::int64_t stride, int kernel_axis) {
  DimExpr e;
  e.terms = {{out_axis, stride}, {kernel_axis, 1}};
  return e;
}

/// A two-stage subgraph built by moving both operators into place; the
/// wiring lists name each input's producer stage (-1 = external tensor).
Subgraph two_stage(std::string name, TensorOp first, std::vector<int> first_wiring,
                   TensorOp second, std::vector<int> second_wiring, double weight) {
  std::vector<Stage> stages(2);
  stages[0].op = std::move(first);
  stages[0].producer_of_input = std::move(first_wiring);
  stages[1].op = std::move(second);
  stages[1].producer_of_input = std::move(second_wiring);
  return Subgraph(std::move(name), std::move(stages), weight);
}

}  // namespace

TensorOp make_gemm_op(std::int64_t m, std::int64_t k, std::int64_t n,
                      std::int64_t batch, std::string name) {
  TensorOp op;
  const bool batched = batch > 1;
  op.name = std::move(name);
  op.kind = batched ? OpKind::kBatchGemm : OpKind::kGemm;
  op.flops_per_point = 2.0;
  int axis = 0;
  int b_ax = -1;
  op.axes.reserve(batched ? 4 : 3);
  if (batched) {
    op.axes.push_back({"b", batch, AxisKind::kSpatial});
    b_ax = axis++;
  }
  op.axes.push_back({"i", m, AxisKind::kSpatial});
  int i_ax = axis++;
  op.axes.push_back({"j", n, AxisKind::kSpatial});
  int j_ax = axis++;
  op.axes.push_back({"k", k, AxisKind::kReduction});
  int k_ax = axis++;

  op.inputs.reserve(2);
  TensorAccess& a = op.inputs.emplace_back();
  a.tensor_name = "A";
  a.dims.reserve(batched ? 3 : 2);
  if (batched) a.dims.push_back(DimExpr::of_axis(b_ax));
  a.dims.push_back(DimExpr::of_axis(i_ax));
  a.dims.push_back(DimExpr::of_axis(k_ax));
  TensorAccess& b = op.inputs.emplace_back();
  b.tensor_name = "B";
  b.dims.reserve(batched ? 3 : 2);
  if (batched) b.dims.push_back(DimExpr::of_axis(b_ax));
  b.dims.push_back(DimExpr::of_axis(k_ax));
  b.dims.push_back(DimExpr::of_axis(j_ax));
  return op;
}

TensorOp make_conv1d_op(std::int64_t batch, std::int64_t length, std::int64_t ci,
                        std::int64_t co, std::int64_t kernel, std::int64_t stride,
                        std::int64_t pad, std::string name) {
  std::int64_t lo = conv_out(length, kernel, stride, pad);
  TensorOp op;
  op.name = std::move(name);
  op.kind = OpKind::kConv1d;
  op.flops_per_point = 2.0;
  op.axes = {{"n", batch, AxisKind::kSpatial},
             {"l", lo, AxisKind::kSpatial},
             {"co", co, AxisKind::kSpatial},
             {"rc", ci, AxisKind::kReduction},
             {"rk", kernel, AxisKind::kReduction}};
  op.inputs.reserve(2);
  op.inputs.push_back({"X", {DimExpr::of_axis(0), DimExpr::of_axis(3), window(1, stride, 4)}});
  op.inputs.push_back(
      {"W", {DimExpr::of_axis(2), DimExpr::of_axis(3), DimExpr::of_axis(4)}});
  return op;
}

TensorOp make_conv2d_op(std::int64_t batch, std::int64_t h, std::int64_t w,
                        std::int64_t ci, std::int64_t co, std::int64_t kernel,
                        std::int64_t stride, std::int64_t pad, std::string name) {
  std::int64_t ho = conv_out(h, kernel, stride, pad);
  std::int64_t wo = conv_out(w, kernel, stride, pad);
  TensorOp op;
  op.name = std::move(name);
  op.kind = OpKind::kConv2d;
  op.flops_per_point = 2.0;
  op.axes = {{"n", batch, AxisKind::kSpatial},   // 0
             {"oh", ho, AxisKind::kSpatial},     // 1
             {"ow", wo, AxisKind::kSpatial},     // 2
             {"co", co, AxisKind::kSpatial},     // 3
             {"rc", ci, AxisKind::kReduction},   // 4
             {"rh", kernel, AxisKind::kReduction},  // 5
             {"rw", kernel, AxisKind::kReduction}}; // 6
  op.inputs.reserve(2);
  op.inputs.push_back({"X", {DimExpr::of_axis(0), DimExpr::of_axis(4),
                             window(1, stride, 5), window(2, stride, 6)}});
  op.inputs.push_back({"W", {DimExpr::of_axis(3), DimExpr::of_axis(4),
                             DimExpr::of_axis(5), DimExpr::of_axis(6)}});
  return op;
}

TensorOp make_depthwise_conv2d_op(std::int64_t batch, std::int64_t h, std::int64_t w,
                                  std::int64_t channels, std::int64_t kernel,
                                  std::int64_t stride, std::int64_t pad,
                                  std::string name) {
  std::int64_t ho = conv_out(h, kernel, stride, pad);
  std::int64_t wo = conv_out(w, kernel, stride, pad);
  TensorOp op;
  op.name = std::move(name);
  op.kind = OpKind::kConv2d;
  op.flops_per_point = 2.0;
  op.axes = {{"n", batch, AxisKind::kSpatial},    // 0
             {"c", channels, AxisKind::kSpatial}, // 1
             {"oh", ho, AxisKind::kSpatial},      // 2
             {"ow", wo, AxisKind::kSpatial},      // 3
             {"rh", kernel, AxisKind::kReduction},   // 4
             {"rw", kernel, AxisKind::kReduction}};  // 5
  op.inputs.reserve(2);
  op.inputs.push_back({"X", {DimExpr::of_axis(0), DimExpr::of_axis(1),
                             window(2, stride, 4), window(3, stride, 5)}});
  op.inputs.push_back(
      {"W", {DimExpr::of_axis(1), DimExpr::of_axis(4), DimExpr::of_axis(5)}});
  return op;
}

TensorOp make_conv3d_op(std::int64_t batch, std::int64_t d, std::int64_t h,
                        std::int64_t w, std::int64_t ci, std::int64_t co,
                        std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                        std::string name) {
  std::int64_t dout = conv_out(d, kernel, stride, pad);
  std::int64_t ho = conv_out(h, kernel, stride, pad);
  std::int64_t wo = conv_out(w, kernel, stride, pad);
  TensorOp op;
  op.name = std::move(name);
  op.kind = OpKind::kConv3d;
  op.flops_per_point = 2.0;
  op.axes = {{"n", batch, AxisKind::kSpatial},   // 0
             {"od", dout, AxisKind::kSpatial},   // 1
             {"oh", ho, AxisKind::kSpatial},     // 2
             {"ow", wo, AxisKind::kSpatial},     // 3
             {"co", co, AxisKind::kSpatial},     // 4
             {"rc", ci, AxisKind::kReduction},   // 5
             {"rd", kernel, AxisKind::kReduction},  // 6
             {"rh", kernel, AxisKind::kReduction},  // 7
             {"rw", kernel, AxisKind::kReduction}}; // 8
  op.inputs.reserve(2);
  op.inputs.push_back({"X", {DimExpr::of_axis(0), DimExpr::of_axis(5), window(1, stride, 6),
                             window(2, stride, 7), window(3, stride, 8)}});
  op.inputs.push_back({"W", {DimExpr::of_axis(4), DimExpr::of_axis(5), DimExpr::of_axis(6),
                             DimExpr::of_axis(7), DimExpr::of_axis(8)}});
  return op;
}

TensorOp make_t2d_op(std::int64_t batch, std::int64_t h, std::int64_t w,
                     std::int64_t ci, std::int64_t co, std::int64_t kernel,
                     std::int64_t stride, std::int64_t pad, std::string name) {
  std::int64_t ho = t2d_out(h, kernel, stride, pad);
  std::int64_t wo = t2d_out(w, kernel, stride, pad);
  TensorOp op;
  op.name = std::move(name);
  op.kind = OpKind::kTransposedConv2d;
  op.flops_per_point = 2.0;
  op.axes = {{"n", batch, AxisKind::kSpatial},   // 0
             {"oh", ho, AxisKind::kSpatial},     // 1
             {"ow", wo, AxisKind::kSpatial},     // 2
             {"co", co, AxisKind::kSpatial},     // 3
             {"rc", ci, AxisKind::kReduction},   // 4
             {"rh", kernel, AxisKind::kReduction},  // 5
             {"rw", kernel, AxisKind::kReduction}}; // 6
  // Transposed convolution reads input positions (oh + pad - rh) / stride.
  // The exact footprint divides by stride; we approximate the slab extent
  // with unit coefficients, which upper-bounds reuse by at most `stride`,
  // uniformly across schedules (shape-preserving for search comparisons).
  op.inputs.reserve(2);
  op.inputs.push_back({"X", {DimExpr::of_axis(0), DimExpr::of_axis(4), window(1, 1, 5),
                             window(2, 1, 6)}});
  op.inputs.push_back({"W", {DimExpr::of_axis(3), DimExpr::of_axis(4),
                             DimExpr::of_axis(5), DimExpr::of_axis(6)}});
  return op;
}

TensorOp make_elementwise_op(std::int64_t elems, double flops_per_point, int arity,
                             std::string name) {
  TensorOp op;
  op.name = std::move(name);
  op.kind = OpKind::kElementwise;
  op.flops_per_point = flops_per_point;
  op.axes = {{"x", elems, AxisKind::kSpatial}};
  op.inputs.reserve(static_cast<std::size_t>(arity < 0 ? 0 : arity));
  for (int i = 0; i < arity; ++i) {
    op.inputs.push_back({"I" + std::to_string(i), {DimExpr::of_axis(0)}});
  }
  return op;
}

Subgraph make_gemm(std::int64_t m, std::int64_t k, std::int64_t n,
                   std::int64_t batch, std::string name, double weight) {
  for (std::int64_t d : {m, k, n}) {
    HARL_CHECK(d >= 1 && d <= kMaxGemmDim,
               "make_gemm: dimension outside [1, kMaxGemmDim]");
  }
  HARL_CHECK(batch >= 1 && batch <= kMaxBatch,
             "make_gemm: batch outside [1, kMaxBatch]");
  return make_single_op_subgraph(make_gemm_op(m, k, n, batch, std::move(name)), weight);
}

Subgraph make_batch_gemm(std::int64_t b, std::int64_t m, std::int64_t k,
                         std::int64_t n, std::string name, double weight) {
  return make_single_op_subgraph(make_gemm_op(m, k, n, b, std::move(name)), weight);
}

Subgraph make_conv1d(std::int64_t batch, std::int64_t length, std::int64_t ci,
                     std::int64_t co, std::int64_t kernel, std::int64_t stride,
                     std::int64_t pad, std::string name, double weight) {
  return make_single_op_subgraph(
      make_conv1d_op(batch, length, ci, co, kernel, stride, pad, std::move(name)), weight);
}

Subgraph make_conv2d(std::int64_t batch, std::int64_t h, std::int64_t w,
                     std::int64_t ci, std::int64_t co, std::int64_t kernel,
                     std::int64_t stride, std::int64_t pad, std::string name,
                     double weight) {
  return make_single_op_subgraph(
      make_conv2d_op(batch, h, w, ci, co, kernel, stride, pad, std::move(name)), weight);
}

Subgraph make_depthwise_conv2d(std::int64_t batch, std::int64_t h, std::int64_t w,
                               std::int64_t channels, std::int64_t kernel,
                               std::int64_t stride, std::int64_t pad,
                               std::string name, double weight) {
  return make_single_op_subgraph(
      make_depthwise_conv2d_op(batch, h, w, channels, kernel, stride, pad, std::move(name)),
      weight);
}

Subgraph make_conv3d(std::int64_t batch, std::int64_t d, std::int64_t h,
                     std::int64_t w, std::int64_t ci, std::int64_t co,
                     std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                     std::string name, double weight) {
  return make_single_op_subgraph(
      make_conv3d_op(batch, d, h, w, ci, co, kernel, stride, pad, std::move(name)), weight);
}

Subgraph make_t2d(std::int64_t batch, std::int64_t h, std::int64_t w,
                  std::int64_t ci, std::int64_t co, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad, std::string name,
                  double weight) {
  return make_single_op_subgraph(
      make_t2d_op(batch, h, w, ci, co, kernel, stride, pad, std::move(name)), weight);
}

Subgraph make_elementwise(std::int64_t elems, double flops_per_point,
                          std::string name, double weight) {
  return make_single_op_subgraph(
      make_elementwise_op(elems, flops_per_point, 2, std::move(name)), weight);
}

Subgraph make_softmax(std::int64_t rows, std::int64_t cols, std::string name,
                      double weight) {
  // Stage 0: row-wise reduction producing the normalizer (exp-sum).
  TensorOp reduce;
  reduce.name = name + ".reduce";
  reduce.kind = OpKind::kReduce;
  reduce.flops_per_point = 2.0;  // exp + add
  reduce.axes = {{"r", rows, AxisKind::kSpatial}, {"rc", cols, AxisKind::kReduction}};
  reduce.inputs.push_back({"X", {DimExpr::of_axis(0), DimExpr::of_axis(1)}});

  // Stage 1: elementwise normalization, consuming X and the stage-0 output
  // (broadcast along columns — a data-reuse pattern).
  TensorOp norm;
  norm.name = name + ".norm";
  norm.kind = OpKind::kSoftmax;
  norm.flops_per_point = 2.0;  // exp + div
  norm.axes = {{"r", rows, AxisKind::kSpatial}, {"c", cols, AxisKind::kSpatial}};
  norm.inputs.reserve(2);
  norm.inputs.push_back({"X", {DimExpr::of_axis(0), DimExpr::of_axis(1)}});
  norm.inputs.push_back({reduce.name, {DimExpr::of_axis(0)}});

  return two_stage(std::move(name), std::move(reduce), {-1}, std::move(norm), {-1, 0},
                   weight);
}

Subgraph make_gemm_act(std::int64_t m, std::int64_t k, std::int64_t n,
                       const std::string& act_name, std::string name,
                       double weight) {
  TensorOp gemm = make_gemm_op(m, k, n, 1, name + ".gemm");

  TensorOp act;
  act.name = name + "." + act_name;
  act.kind = OpKind::kElementwise;
  act.flops_per_point = 4.0;  // bias add + activation polynomial
  act.axes = {{"i", m, AxisKind::kSpatial}, {"j", n, AxisKind::kSpatial}};
  act.inputs.push_back({gemm.name, {DimExpr::of_axis(0), DimExpr::of_axis(1)}});

  return two_stage(std::move(name), std::move(gemm), {-1, -1}, std::move(act), {0},
                   weight);
}

Subgraph make_conv2d_relu(std::int64_t batch, std::int64_t h, std::int64_t w,
                          std::int64_t ci, std::int64_t co, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad,
                          std::string name, double weight) {
  TensorOp conv = make_conv2d_op(batch, h, w, ci, co, kernel, stride, pad,
                                 name + ".conv");

  TensorOp relu;
  relu.name = name + ".relu";
  relu.kind = OpKind::kElementwise;
  relu.flops_per_point = 2.0;  // bias add + max
  relu.axes = {{"x", conv.output_elems(), AxisKind::kSpatial}};
  relu.inputs.push_back({conv.name, {DimExpr::of_axis(0)}});

  return two_stage(std::move(name), std::move(conv), {-1, -1}, std::move(relu), {0},
                   weight);
}

}  // namespace harl
