#include "ir/tensor_op.hpp"

#include <sstream>

#include "util/logging.hpp"

namespace harl {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kGemm: return "gemm";
    case OpKind::kBatchGemm: return "batch_gemm";
    case OpKind::kConv1d: return "conv1d";
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kConv3d: return "conv3d";
    case OpKind::kTransposedConv2d: return "t2d";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kElementwise: return "elementwise";
    case OpKind::kReduce: return "reduce";
    case OpKind::kGeneric: return "generic";
  }
  return "?";
}

DimExpr::Terms::Terms(std::initializer_list<Term> init) {
  for (const Term& t : init) push_back(t);
}

void DimExpr::Terms::push_back(const Term& t) {
  HARL_CHECK(size_ < kMaxTerms, "DimExpr: more than kMaxTerms terms");
  items_[size_++] = t;
}

std::int64_t DimExpr::footprint(const std::vector<std::int64_t>& tile_sizes) const {
  return footprint(tile_sizes.data());
}

std::int64_t DimExpr::footprint(const std::int64_t* tile_sizes) const {
  std::int64_t extent = 1;
  for (const Term& t : terms) {
    extent += t.coeff * (tile_sizes[static_cast<std::size_t>(t.axis)] - 1);
  }
  return extent;
}

DimExpr DimExpr::of_axis(int axis, std::int64_t coeff) {
  DimExpr e;
  e.terms.push_back({axis, coeff});
  return e;
}

std::int64_t TensorAccess::tile_elems(const std::vector<std::int64_t>& tile_sizes) const {
  return tile_elems(tile_sizes.data());
}

std::int64_t TensorAccess::tile_elems(const std::int64_t* tile_sizes) const {
  std::int64_t n = 1;
  for (const DimExpr& d : dims) n *= d.footprint(tile_sizes);
  return n;
}

std::int64_t TensorAccess::tile_bytes(const std::vector<std::int64_t>& tile_sizes) const {
  return tile_elems(tile_sizes.data()) * elem_bytes;
}

std::int64_t TensorAccess::tile_bytes(const std::int64_t* tile_sizes) const {
  return tile_elems(tile_sizes) * elem_bytes;
}

int TensorOp::num_spatial_axes() const {
  int n = 0;
  for (const Axis& a : axes) n += (a.kind == AxisKind::kSpatial) ? 1 : 0;
  return n;
}

int TensorOp::num_reduction_axes() const { return num_axes() - num_spatial_axes(); }

bool TensorOp::is_elementwise() const {
  if (has_reduction()) return false;
  for (const TensorAccess& in : inputs) {
    for (const DimExpr& d : in.dims) {
      if (d.terms.size() != 1 || d.terms[0].coeff != 1) return false;
    }
  }
  return true;
}

bool TensorOp::has_data_reuse() const {
  if (has_reduction()) return true;
  int spatial = num_spatial_axes();
  for (const TensorAccess& in : inputs) {
    // Collect which spatial axes this input depends on; if some spatial axis
    // is absent, the input is broadcast along it and therefore reused.
    std::vector<bool> used(static_cast<std::size_t>(num_axes()), false);
    for (const DimExpr& d : in.dims) {
      for (const DimExpr::Term& t : d.terms) used[static_cast<std::size_t>(t.axis)] = true;
    }
    for (int a = 0; a < spatial; ++a) {
      if (axes[static_cast<std::size_t>(a)].kind == AxisKind::kSpatial &&
          !used[static_cast<std::size_t>(a)]) {
        return true;
      }
    }
  }
  return false;
}

std::int64_t TensorOp::iter_space_points() const {
  std::int64_t n = 1;
  for (const Axis& a : axes) n *= a.extent;
  return n;
}

std::int64_t TensorOp::output_elems() const {
  std::int64_t n = 1;
  for (const Axis& a : axes) {
    if (a.kind == AxisKind::kSpatial) n *= a.extent;
  }
  return n;
}

std::int64_t TensorOp::output_bytes() const { return output_elems() * out_elem_bytes; }

double TensorOp::total_flops() const {
  return flops_per_point * static_cast<double>(iter_space_points());
}

std::int64_t TensorOp::input_bytes_once() const {
  std::int64_t total = 0;
  std::vector<std::int64_t> full = full_tile();
  for (const TensorAccess& in : inputs) total += in.tile_bytes(full);
  return total;
}

std::vector<std::int64_t> TensorOp::full_tile() const {
  std::vector<std::int64_t> t;
  t.reserve(axes.size());
  for (const Axis& a : axes) t.push_back(a.extent);
  return t;
}

std::string TensorOp::validate() const {
  std::ostringstream err;
  if (axes.empty()) err << "op '" << name << "' has no axes; ";
  bool seen_reduction = false;
  for (const Axis& a : axes) {
    if (a.extent < 1) err << "axis '" << a.name << "' extent " << a.extent << " < 1; ";
    if (a.kind == AxisKind::kReduction) {
      seen_reduction = true;
    } else if (seen_reduction) {
      err << "spatial axis '" << a.name << "' after reduction axes; ";
    }
  }
  for (const TensorAccess& in : inputs) {
    for (const DimExpr& d : in.dims) {
      for (const DimExpr::Term& t : d.terms) {
        if (t.axis < 0 || t.axis >= num_axes()) {
          err << "input '" << in.tensor_name << "' references axis " << t.axis
              << " out of range; ";
        }
        if (t.coeff <= 0) {
          err << "input '" << in.tensor_name << "' has non-positive coeff; ";
        }
      }
    }
  }
  return err.str();
}

}  // namespace harl
