#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "io/record_logger.hpp"
#include "util/fnv.hpp"
#include "workloads/operators.hpp"

// Output pinned across commits: short HARL and FlexTensor runs must write
// exactly the record log and round log they wrote when these digests were
// taken.  A change meant to be bit-identical (a cheaper PPO actor, batched
// forwards, a leaner ring) keeps them; a change meant to alter the search
// updates them and says so.  The digests were taken from a g++ Release
// build on x86-64; another compiler or floating-point flags may round
// differently.

namespace harl {
namespace {

struct RunDigest {
  std::uint64_t records = 0;  ///< FNV-1a of the record log's bytes
  std::uint64_t rounds = 0;   ///< FNV-1a of the round log, as --dump-rounds prints it
};

RunDigest run_digest(const Subgraph& graph, PolicyKind policy, std::uint64_t seed,
                     std::int64_t trials) {
  const std::string path = "harl_test_output_digest_" + std::to_string(seed) + ".jsonl";
  std::remove(path.c_str());
  TuningSession session(graph, *HardwareConfig::preset("xeon"), quick_options(policy, seed));
  RunDigest digest;
  {
    RecordLogger logger;
    EXPECT_TRUE(logger.open(path));
    session.add_callback(&logger);
    session.run(trials);
    session.remove_callback(&logger);
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty());
  digest.records = fnv1a_nonzero(bytes);

  std::string rounds;
  char line[96];
  for (const TaskScheduler::RoundLog& r : session.scheduler().round_log()) {
    std::snprintf(line, sizeof line, "%d %lld %a\n", r.task,
                  static_cast<long long>(r.trials_after), r.net_latency_ms);
    rounds += line;
  }
  digest.rounds = fnv1a_nonzero(rounds);
  return digest;
}

void expect_digest(const RunDigest& got, std::uint64_t records, std::uint64_t rounds) {
  EXPECT_EQ(got.records, records) << "record log digest 0x" << std::hex << got.records;
  EXPECT_EQ(got.rounds, rounds) << "round log digest 0x" << std::hex << got.rounds;
}

TEST(OutputDigest, HarlGemm) {
  expect_digest(run_digest(make_gemm(256, 256, 256), PolicyKind::kHarl, 1, 100),
                0xc1d5207d06cf9ab2ULL, 0xaba0543fb4905689ULL);
}

TEST(OutputDigest, HarlConv2d) {
  // A convolution's tiling head is mostly moves no schedule can make.
  expect_digest(run_digest(make_conv2d(1, 28, 28, 128, 128, 3, 1, 1), PolicyKind::kHarl, 7, 100),
                0x746869b4f3b68203ULL, 0xc69985567c3168e5ULL);
}

TEST(OutputDigest, FlextensorGemm) {
  expect_digest(run_digest(make_gemm(256, 256, 256), PolicyKind::kFlextensor, 3, 100),
                0xb8551bea2e7e419bULL, 0xb8d4d7222a0ab006ULL);
}

}  // namespace
}  // namespace harl
