#include <gtest/gtest.h>

#include "core/report.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

SearchOptions tiny(PolicyKind kind) {
  SearchOptions opts = quick_options(kind, 13);
  opts.harl.stop.initial_tracks = 8;
  opts.harl.stop.min_tracks = 2;
  opts.harl.stop.window = 4;
  opts.harl.ppo.minibatch_size = 16;
  opts.harl.ppo.update_epochs = 1;
  opts.measures_per_round = 5;
  return opts;
}

TEST(Report, SummaryLineBeforeAndAfterMeasurement) {
  TuningSession session(make_gemm(64, 64, 64), HardwareConfig::xeon_6226r(),
                        tiny(PolicyKind::kHarl));
  std::string before = session_summary_line(session);
  EXPECT_NE(before.find("not all subgraphs measured"), std::string::npos);
  session.run(10);
  std::string after = session_summary_line(session);
  EXPECT_NE(after.find("ms after"), std::string::npos);
  EXPECT_EQ(after.find("not all"), std::string::npos);
}

TEST(Report, FullReportListsEveryTask) {
  Network net;
  net.name = "duo";
  net.subgraphs.push_back(make_gemm(64, 64, 64, 1, "g0", 2.0));
  net.subgraphs.push_back(make_elementwise(1 << 12, 1.0, "e0"));
  TuningSession session(std::move(net), HardwareConfig::xeon_6226r(),
                        tiny(PolicyKind::kHarl));
  session.run(40);
  std::string report = render_session_report(session);
  EXPECT_NE(report.find("g0"), std::string::npos);
  EXPECT_NE(report.find("e0"), std::string::npos);
  EXPECT_NE(report.find("per-subgraph results"), std::string::npos);
  EXPECT_NE(report.find("convergence"), std::string::npos);
  EXPECT_NE(report.find("HARL"), std::string::npos);
  EXPECT_NE(report.find("xeon_6226r"), std::string::npos);
}

TEST(Report, NamesThePolicyThatRan) {
  SearchOptions opts = tiny(PolicyKind::kHarl);
  opts.policy_name = "Random";
  TuningSession session(make_gemm(64, 64, 64), HardwareConfig::xeon_6226r(), opts);
  session.run(10);
  EXPECT_NE(render_session_report(session).find("policy   : Random\n"),
            std::string::npos);
}

TEST(Report, CurveDownsamplingRespectsPointBudget) {
  TuningSession session(make_gemm(64, 64, 64), HardwareConfig::xeon_6226r(),
                        tiny(PolicyKind::kRandom));
  session.run(100);  // 20 rounds of 5
  std::string report = render_session_report(session, 4);
  // Count curve rows: lines after the convergence header that start with a
  // digit.
  std::size_t pos = report.find("convergence");
  ASSERT_NE(pos, std::string::npos);
  int rows = 0;
  std::istringstream in(report.substr(pos));
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && std::isdigit(static_cast<unsigned char>(line[0]))) ++rows;
  }
  EXPECT_GE(rows, 4);
  EXPECT_LE(rows, 6);  // stride rounding can add one, plus the final point
}

}  // namespace
}  // namespace harl
