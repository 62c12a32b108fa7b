#pragma once

/// \file networks.hpp
/// Shipped network inventory (BERT, ResNet-50, MobileNet-V2) behind
/// `make_network(name, batch)`.  Invariant: the "<base>_b<batch>" naming
/// scheme is what the builtin experience resolver parses back.
/// Collaborators: TuningSession, benches, exp/experience.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/subgraph.hpp"

namespace harl {

/// End-to-end network inventories for the paper's Section 6.3 experiments.
///
/// Each network is represented as its set of *distinct* subgraphs (the
/// paper's tasks) with appearance-count weights w_n, matching how TVM/Ansor
/// decompose a model for tuning:
///   - BERT-base (seq len 128): 10 distinct subgraphs (Table 4 inventory:
///     GEMM-I..IV, Softmax, Batch_GEMM-I/II, Element-wise-I/II, GEMM+Tanh),
///   - ResNet-50 (224x224): 24 distinct subgraphs (convolutions + dense),
///   - MobileNet-V2 (224x224): 21 distinct subgraphs (expand / depthwise /
///     project stages of the inverted-residual blocks).
Network make_bert(std::int64_t batch = 1);
Network make_resnet50(std::int64_t batch = 1);
Network make_mobilenet_v2(std::int64_t batch = 1);

/// Largest batch a builtin network or a Table 6 suite is built at.  Every
/// extent product of every shipped network stays far inside int64 at this
/// batch (they overflow from about 2^40), and it bounds the daemon's
/// resolver memo, which keeps one network per distinct valid name: at most
/// 3 x kMaxBatch = 3072 networks, 72.5 MB of heap (glibc, x86-64).  Entry
/// points that read a batch from outside (`tune_network --batch`, a daemon
/// `tune`, a journaled job, a "<base>_b<batch>" name) reject a larger one;
/// make_network and table6_suite abort on it.
inline constexpr std::int64_t kMaxBatch = 1024;

/// Largest M, K or N of a GEMM built by `make_gemm`: the largest bound at
/// which a batch-kMaxBatch GEMM's iteration-space product and its FLOP
/// count, 2 x kMaxBatch x M x K x N, still fit in int64.  `tune_network
/// --network=gemm:MxKxN` rejects a larger dimension; make_gemm aborts on it.
inline constexpr std::int64_t kMaxGemmDim = 165140;

/// Lookup by name: "bert", "resnet50", "mobilenet_v2".
/// Throws std::invalid_argument for unknown names; aborts unless
/// 1 <= batch <= kMaxBatch.
Network make_network(const std::string& name, std::int64_t batch = 1);

const std::vector<std::string>& network_names();

}  // namespace harl
