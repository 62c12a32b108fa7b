#pragma once

/// \file tensor_op.hpp
/// Tensor operators: typed compute stages (GEMM, conv, elementwise, ...)
/// with iteration spaces and byte/flop accounting used by featurization and
/// the simulator.  Collaborators: Subgraph, FeatureExtractor, CostSimulator.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "ir/axis.hpp"

namespace harl {

/// Broad operator families. Used for:
///  - sketch generation rule dispatch (Table 2),
///  - "similar task" grouping in the subgraph-selection reward (Eq. 3's
///    max over M(a), the set of subgraphs with comparable structure).
enum class OpKind {
  kGemm,
  kBatchGemm,
  kConv1d,
  kConv2d,
  kConv3d,
  kTransposedConv2d,
  kSoftmax,
  kElementwise,
  kReduce,
  kGeneric,
};

const char* op_kind_name(OpKind kind);

/// Affine index expression of one tensor dimension in terms of the operator's
/// iteration axes:  index = sum_i coeff_i * axis_i  (+ implicit kernel span).
///
/// The *footprint extent* of the dimension under per-axis tile sizes `t` is
///   sum_i coeff_i * (t[axis_i] - 1) + 1,
/// the exact size of the data slab a tile touches for strided/dilated
/// accesses (e.g. conv input height = stride*(t_oh-1) + dilation*(t_kh-1)+1).
///
/// Terms are stored inline, at most `kMaxTerms` of them: one axis for a plain
/// dimension, two for a windowed one (output position * stride + kernel
/// offset).  A dimension owns no heap memory, so building and copying an
/// operator allocates nothing per dimension.  Adding a third term aborts.
struct DimExpr {
  struct Term {
    int axis = 0;          ///< index into TensorOp::axes
    std::int64_t coeff = 1;
  };
  static constexpr std::size_t kMaxTerms = 2;

  /// Fixed-capacity term list with the read interface of a vector.
  class Terms {
   public:
    Terms() = default;
    Terms(std::initializer_list<Term> init);  ///< aborts past kMaxTerms

    void push_back(const Term& t);            ///< aborts past kMaxTerms
    std::size_t size() const { return size_; }
    const Term& operator[](std::size_t i) const { return items_[i]; }
    const Term* begin() const { return items_; }
    const Term* end() const { return items_ + size_; }

   private:
    Term items_[kMaxTerms];
    std::size_t size_ = 0;
  };
  Terms terms;

  /// Footprint extent for the given per-axis tile sizes.
  std::int64_t footprint(const std::vector<std::int64_t>& tile_sizes) const;
  std::int64_t footprint(const std::int64_t* tile_sizes) const;

  /// Convenience: a dimension that is exactly one axis.
  static DimExpr of_axis(int axis, std::int64_t coeff = 1);
};

/// One input tensor read by an operator, with its access map.
struct TensorAccess {
  std::string tensor_name;
  std::vector<DimExpr> dims;   ///< one entry per tensor dimension
  int elem_bytes = 4;          ///< fp32 by default

  /// Number of elements touched by a tile with the given per-axis sizes.
  /// The pointer overloads (one entry per op axis) are the allocation-free
  /// path the feature extractor's hot loop uses.
  std::int64_t tile_elems(const std::vector<std::int64_t>& tile_sizes) const;
  std::int64_t tile_elems(const std::int64_t* tile_sizes) const;
  std::int64_t tile_bytes(const std::vector<std::int64_t>& tile_sizes) const;
  std::int64_t tile_bytes(const std::int64_t* tile_sizes) const;
};

/// A single tensor computation stage (one output tensor).
///
/// The operator is described declaratively: iteration axes, floating point
/// work per iteration-space point, and the access maps of its inputs.  This
/// is the complete information the schedule space, the sketch rules and the
/// analytical hardware model need; no loop AST is materialized.
struct TensorOp {
  std::string name;
  OpKind kind = OpKind::kGeneric;
  std::vector<Axis> axes;            ///< spatial axes first, then reduction
  double flops_per_point = 1.0;      ///< e.g. 2.0 for multiply-accumulate
  std::vector<TensorAccess> inputs;
  int out_elem_bytes = 4;

  // --- Structure queries -------------------------------------------------
  int num_axes() const { return static_cast<int>(axes.size()); }
  int num_spatial_axes() const;
  int num_reduction_axes() const;
  bool has_reduction() const { return num_reduction_axes() > 0; }

  /// Pure elementwise map: no reduction and every input dimension is a
  /// single unit-coefficient axis. Such stages can be inlined (Table 2).
  bool is_elementwise() const;

  /// "Has data reuse" in the sense of Ansor's tiling rule: some input element
  /// is read by more than one output point (reduction present, or an input
  /// does not depend on all spatial axes).
  bool has_data_reuse() const;

  // --- Size accounting ----------------------------------------------------
  std::int64_t iter_space_points() const;      ///< product of all extents
  std::int64_t output_elems() const;           ///< product of spatial extents
  std::int64_t output_bytes() const;
  double total_flops() const;
  std::int64_t input_bytes_once() const;       ///< compulsory input traffic

  /// Per-axis extents as a vector (tile size == full extent).
  std::vector<std::int64_t> full_tile() const;

  /// Validate internal consistency (axis indices in range, extents positive).
  /// Returns an empty string when valid, else a diagnostic.
  std::string validate() const;
};

}  // namespace harl
