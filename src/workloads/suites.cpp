#include "workloads/suites.hpp"

#include <iterator>
#include <stdexcept>

#include "util/logging.hpp"
#include "workloads/networks.hpp"
#include "workloads/operators.hpp"

namespace harl {

namespace {

std::string shape_str(std::initializer_list<std::int64_t> vals) {
  std::string s = "(";
  bool first = true;
  for (std::int64_t v : vals) {
    if (!first) s += ",";
    s += std::to_string(v);
    first = false;
  }
  s += ")";
  return s;
}

}  // namespace

const std::vector<std::string>& table6_suite_names() {
  static const std::vector<std::string> names = {"GEMM-S", "GEMM-M", "GEMM-L",
                                                 "C1D", "C2D", "C3D", "T2D"};
  return names;
}

std::vector<OperatorCase> table6_suite(const std::string& suite, std::int64_t batch) {
  HARL_CHECK(batch >= 1 && batch <= kMaxBatch, "table6_suite: batch outside [1, kMaxBatch]");
  std::vector<OperatorCase> cases;
  cases.reserve(4);
  auto add_gemm = [&](std::int64_t m, std::int64_t k, std::int64_t n) {
    std::string cfg = shape_str({m, k, n});
    cases.push_back({suite, cfg,
                     make_gemm(m, k, n, batch, suite + cfg + "_b" + std::to_string(batch))});
  };
  auto add_c1d = [&](std::int64_t l, std::int64_t ci, std::int64_t co, std::int64_t k,
                     std::int64_t s, std::int64_t p) {
    std::string cfg = shape_str({l, ci, co, k, s, p});
    cases.push_back({suite, cfg,
                     make_conv1d(batch, l, ci, co, k, s, p,
                                 suite + cfg + "_b" + std::to_string(batch))});
  };
  auto add_c2d = [&](std::int64_t h, std::int64_t w, std::int64_t ci, std::int64_t co,
                     std::int64_t k, std::int64_t s, std::int64_t p) {
    std::string cfg = shape_str({h, w, ci, co, k, s, p});
    cases.push_back({suite, cfg,
                     make_conv2d(batch, h, w, ci, co, k, s, p,
                                 suite + cfg + "_b" + std::to_string(batch))});
  };
  auto add_c3d = [&](std::int64_t d, std::int64_t h, std::int64_t w, std::int64_t ci,
                     std::int64_t co, std::int64_t k, std::int64_t s, std::int64_t p) {
    std::string cfg = shape_str({d, h, w, ci, co, k, s, p});
    cases.push_back({suite, cfg,
                     make_conv3d(batch, d, h, w, ci, co, k, s, p,
                                 suite + cfg + "_b" + std::to_string(batch))});
  };
  auto add_t2d = [&](std::int64_t h, std::int64_t w, std::int64_t ci, std::int64_t co,
                     std::int64_t k, std::int64_t s, std::int64_t p) {
    std::string cfg = shape_str({h, w, ci, co, k, s, p});
    cases.push_back({suite, cfg,
                     make_t2d(batch, h, w, ci, co, k, s, p,
                              suite + cfg + "_b" + std::to_string(batch))});
  };

  if (suite == "GEMM-S") {
    add_gemm(128, 128, 128);
    add_gemm(128, 256, 128);
    add_gemm(256, 256, 256);
    add_gemm(512, 32, 512);
  } else if (suite == "GEMM-M") {
    add_gemm(512, 512, 512);
    add_gemm(128, 1536, 512);
    add_gemm(128, 512, 1536);
    add_gemm(256, 1024, 512);
  } else if (suite == "GEMM-L") {
    add_gemm(1024, 1024, 1024);
    add_gemm(128, 3072, 768);
    add_gemm(128, 768, 3072);
    add_gemm(256, 1536, 768);
  } else if (suite == "C1D") {
    add_c1d(256, 64, 128, 3, 2, 1);
    add_c1d(128, 128, 256, 1, 2, 0);
    add_c1d(64, 256, 256, 5, 1, 2);
    add_c1d(32, 512, 512, 3, 1, 1);
  } else if (suite == "C2D") {
    add_c2d(224, 224, 3, 64, 7, 2, 3);
    add_c2d(56, 56, 64, 64, 1, 1, 0);
    add_c2d(14, 14, 256, 256, 3, 1, 1);
    add_c2d(7, 7, 512, 512, 3, 1, 1);
  } else if (suite == "C3D") {
    add_c3d(16, 224, 224, 3, 64, 7, 2, 3);
    add_c3d(16, 56, 56, 64, 64, 1, 1, 0);
    add_c3d(16, 14, 14, 256, 256, 3, 1, 1);
    add_c3d(16, 7, 7, 512, 512, 3, 1, 1);
  } else if (suite == "T2D") {
    add_t2d(4, 4, 512, 256, 4, 2, 1);
    add_t2d(8, 8, 256, 128, 4, 2, 1);
    add_t2d(16, 16, 128, 64, 4, 2, 1);
    add_t2d(32, 32, 64, 3, 4, 2, 1);
  } else {
    throw std::invalid_argument("unknown Table 6 suite: " + suite);
  }
  return cases;
}

std::vector<OperatorCase> table6_all(std::int64_t batch) {
  std::vector<OperatorCase> all;
  all.reserve(4 * table6_suite_names().size());
  for (const std::string& suite : table6_suite_names()) {
    auto cases = table6_suite(suite, batch);
    all.insert(all.end(), std::make_move_iterator(cases.begin()),
               std::make_move_iterator(cases.end()));
  }
  return all;
}

}  // namespace harl
