#pragma once

/// \file operators.hpp
/// Single-operator constructors (GEMM, conv variants, elementwise, ...)
/// with shapes from the paper's Table 6.  Collaborators: suites, networks,
/// tests/benches.

#include <cstdint>
#include <string>

#include "ir/subgraph.hpp"

namespace harl {

/// Factories for the tensor operators evaluated in the paper (Table 6 and the
/// BERT subgraph inventory of Table 4).  Every factory returns a `Subgraph`
/// ready for sketch generation; multi-stage factories wire producer stages so
/// the Inline / Tiling-with-Fusion sketch rules have something to fuse.
///
/// All shapes follow the paper's notation:
///   GEMM  (M, K, N)              C[i,j]     = sum_k A[i,k] * B[k,j]
///   C1D   (L, Ci, Co, K, s, p)   1-D convolution, NCW layout
///   C2D   (H, W, Ci, Co, K, s, p) 2-D convolution, NCHW layout
///   C3D   (D, H, W, Ci, Co, K, s, p)
///   T2D   (H, W, Ci, Co, K, s, p) transposed 2-D convolution
/// `batch` prepends a batch axis (paper tests batch sizes 1 and 16).

// --- Raw operator builders ----------------------------------------------

TensorOp make_gemm_op(std::int64_t m, std::int64_t k, std::int64_t n,
                      std::int64_t batch = 1, std::string name = "gemm");

TensorOp make_conv1d_op(std::int64_t batch, std::int64_t length, std::int64_t ci,
                        std::int64_t co, std::int64_t kernel, std::int64_t stride,
                        std::int64_t pad, std::string name = "conv1d");

TensorOp make_conv2d_op(std::int64_t batch, std::int64_t h, std::int64_t w,
                        std::int64_t ci, std::int64_t co, std::int64_t kernel,
                        std::int64_t stride, std::int64_t pad,
                        std::string name = "conv2d");

/// Depthwise 2-D convolution (per-channel filter; used by MobileNet-V2).
TensorOp make_depthwise_conv2d_op(std::int64_t batch, std::int64_t h, std::int64_t w,
                                  std::int64_t channels, std::int64_t kernel,
                                  std::int64_t stride, std::int64_t pad,
                                  std::string name = "dwconv2d");

TensorOp make_conv3d_op(std::int64_t batch, std::int64_t d, std::int64_t h,
                        std::int64_t w, std::int64_t ci, std::int64_t co,
                        std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                        std::string name = "conv3d");

TensorOp make_t2d_op(std::int64_t batch, std::int64_t h, std::int64_t w,
                     std::int64_t ci, std::int64_t co, std::int64_t kernel,
                     std::int64_t stride, std::int64_t pad,
                     std::string name = "t2d");

/// Pure elementwise op over `elems` points with `flops_per_point` work and
/// `arity` input tensors of the same shape.
TensorOp make_elementwise_op(std::int64_t elems, double flops_per_point,
                             int arity = 1, std::string name = "elementwise");

// --- Subgraph builders ----------------------------------------------------

/// Single-operator subgraphs.  make_gemm aborts unless every dimension is
/// in [1, kMaxGemmDim] and batch in [1, kMaxBatch] (networks.hpp).
Subgraph make_gemm(std::int64_t m, std::int64_t k, std::int64_t n,
                   std::int64_t batch = 1, std::string name = "gemm",
                   double weight = 1.0);
Subgraph make_batch_gemm(std::int64_t b, std::int64_t m, std::int64_t k,
                         std::int64_t n, std::string name = "batch_gemm",
                         double weight = 1.0);
Subgraph make_conv1d(std::int64_t batch, std::int64_t length, std::int64_t ci,
                     std::int64_t co, std::int64_t kernel, std::int64_t stride,
                     std::int64_t pad, std::string name = "conv1d",
                     double weight = 1.0);
Subgraph make_conv2d(std::int64_t batch, std::int64_t h, std::int64_t w,
                     std::int64_t ci, std::int64_t co, std::int64_t kernel,
                     std::int64_t stride, std::int64_t pad,
                     std::string name = "conv2d", double weight = 1.0);
Subgraph make_depthwise_conv2d(std::int64_t batch, std::int64_t h, std::int64_t w,
                               std::int64_t channels, std::int64_t kernel,
                               std::int64_t stride, std::int64_t pad,
                               std::string name = "dwconv2d",
                               double weight = 1.0);
Subgraph make_conv3d(std::int64_t batch, std::int64_t d, std::int64_t h,
                     std::int64_t w, std::int64_t ci, std::int64_t co,
                     std::int64_t kernel, std::int64_t stride, std::int64_t pad,
                     std::string name = "conv3d", double weight = 1.0);
Subgraph make_t2d(std::int64_t batch, std::int64_t h, std::int64_t w,
                  std::int64_t ci, std::int64_t co, std::int64_t kernel,
                  std::int64_t stride, std::int64_t pad,
                  std::string name = "t2d", double weight = 1.0);
Subgraph make_elementwise(std::int64_t elems, double flops_per_point,
                          std::string name = "elementwise",
                          double weight = 1.0);

/// Softmax over `rows` x `cols`: two stages — a row reduction producing the
/// normalizer, then an elementwise normalization consuming it (exercises the
/// multi-stage sketch rules).
Subgraph make_softmax(std::int64_t rows, std::int64_t cols,
                      std::string name = "softmax", double weight = 1.0);

/// GEMM followed by a fusable elementwise activation (bias + tanh/GeLU):
/// the "GEMM+Tanh" BERT subgraph; exercises Tiling-with-Fusion.
Subgraph make_gemm_act(std::int64_t m, std::int64_t k, std::int64_t n,
                       const std::string& act_name = "tanh",
                       std::string name = "gemm_tanh", double weight = 1.0);

/// Conv2D followed by a fusable bias+ReLU stage (ResNet/MobileNet block body).
Subgraph make_conv2d_relu(std::int64_t batch, std::int64_t h, std::int64_t w,
                          std::int64_t ci, std::int64_t co, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad,
                          std::string name = "conv2d_relu",
                          double weight = 1.0);

}  // namespace harl
