#pragma once

/// \file subgraph.hpp
/// Subgraph and Network: the tunable unit (a fused stage DAG with weight
/// and flops) and a named collection of them.  Invariant:
/// `structure_signature()` is extent-free, so structurally equal tasks
/// match across shapes.  Collaborators: workloads, sketches, TaskState.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/tensor_op.hpp"

namespace harl {

/// A stage is one operator instance inside a subgraph together with its
/// producer wiring: `producer_of_input[i]` is the index of the stage whose
/// output feeds `op.inputs[i]`, or -1 when the input is an external tensor
/// (model weight / activation from a previous subgraph).
struct Stage {
  TensorOp op;
  std::vector<int> producer_of_input;  ///< same length as op.inputs
};

/// A subgraph (the paper's "task"): a small DAG of tensor operators fused and
/// optimized together, e.g. GEMM + bias-add + GeLU.  Stages are stored in
/// topological order; the last stage produces the subgraph output.
///
/// `weight` is w_n from the paper's objective f(S) = sum_n w_n * g_n — the
/// number of times the subgraph appears in the network.
class Subgraph {
 public:
  Subgraph() = default;
  Subgraph(std::string name, std::vector<Stage> stages, double weight = 1.0);

  const std::string& name() const { return name_; }
  double weight() const { return weight_; }
  void set_weight(double w) { weight_ = w; }

  int num_stages() const { return static_cast<int>(stages_.size()); }
  const Stage& stage(int i) const { return stages_.at(static_cast<std::size_t>(i)); }
  const std::vector<Stage>& stages() const { return stages_; }

  /// Indices of stages consuming stage `i`'s output.
  const std::vector<int>& consumers(int i) const {
    return consumers_.at(static_cast<std::size_t>(i));
  }

  /// The compute-dominant stage (most FLOPs): the anchor for multi-level
  /// tiling and for the RL agent's tile-action slots.
  int anchor_stage() const { return anchor_; }

  /// Stage `i` output feeds exactly one consumer and is elementwise there.
  bool is_output_stage(int i) const { return consumers(i).empty(); }

  double total_flops() const;

  /// The operator kind of the anchor stage; used for "similar task" grouping.
  OpKind dominant_kind() const;

  /// Compact structural signature: the per-stage op kinds joined with "|"
  /// (e.g. "gemm|elementwise").  Extent-free by design — two tasks with the
  /// same signature differ only in sizes, which is exactly the "sibling
  /// task" relation experience transfer scores by extent ratio.  Stamped
  /// into tuning records (field `sig`).
  std::string structure_signature() const;

  /// Empty string when the DAG is consistent (topological producer order,
  /// wiring lengths match, ops validate); else a diagnostic message.
  std::string validate() const;

 private:
  void build_consumers();

  std::string name_;
  std::vector<Stage> stages_;
  std::vector<std::vector<int>> consumers_;
  double weight_ = 1.0;
  int anchor_ = 0;
};

/// A whole network to optimize end-to-end: distinct subgraphs with
/// appearance-count weights (BERT: 10 distinct subgraphs, ResNet-50: 24,
/// MobileNet-V2: 21 in this reproduction's inventory).
struct Network {
  std::string name;
  std::vector<Subgraph> subgraphs;

  /// Estimated network latency from per-subgraph times: sum_n w_n * g_n.
  double estimate_latency(const std::vector<double>& subgraph_time_ms) const;
};

/// Convenience builder: a single-stage subgraph wrapping one operator, named
/// after it.  Pass the operator as an rvalue to build without copying it.
Subgraph make_single_op_subgraph(TensorOp op, double weight = 1.0);

}  // namespace harl
