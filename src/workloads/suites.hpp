#pragma once

/// \file suites.hpp
/// The paper's operator benchmark suites: named (operator, shape) lists
/// driving the per-operator tables.  Collaborators: bench harnesses.

#include <cstdint>
#include <string>
#include <vector>

#include "ir/subgraph.hpp"

namespace harl {

/// One operator-benchmark case from Table 6 of the paper.
struct OperatorCase {
  std::string suite;      ///< "GEMM-S", "GEMM-M", "GEMM-L", "C1D", "C2D", "C3D", "T2D"
  std::string config;     ///< human-readable shape string
  Subgraph graph;
};

/// The seven suite names in paper order (Figures 5 and 6 x-axis).
const std::vector<std::string>& table6_suite_names();

/// All four configurations of one suite at the given batch size.  Aborts
/// unless 1 <= batch <= kMaxBatch (networks.hpp).
/// Throws std::invalid_argument for unknown suite names.
std::vector<OperatorCase> table6_suite(const std::string& suite, std::int64_t batch);

/// Every case of every suite (7 suites x 4 configs) at the given batch size.
std::vector<OperatorCase> table6_all(std::int64_t batch);

}  // namespace harl
