#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/presets.hpp"
#include "core/tuning.hpp"
#include "cost/gbdt_io.hpp"
#include "io/record_logger.hpp"
#include "server/protocol.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "workloads/operators.hpp"

// Output pinned across commits: short HARL and FlexTensor runs must write
// exactly the record log and round log they wrote when these digests were
// taken.  A change meant to be bit-identical (a cheaper PPO actor, batched
// forwards, a leaner ring) keeps them; a change meant to alter the search
// updates them and says so.  The digests were taken from a g++ Release
// build on x86-64; another compiler or floating-point flags may round
// differently.  The model-file and wire-protocol digests pin the encoders'
// bytes the same way: a seeded fitted GBDT in both split modes, and a
// request/reply corpus that sets every field and every sentinel.

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

/// A seeded fitted model: 160 rows of 5 features, a nonlinear target.
std::uint64_t gbdt_digest(SplitMode mode) {
  Rng rng(29);
  const int d = 5;
  std::vector<double> x, y;
  for (int i = 0; i < 160; ++i) {
    double t = 0;
    for (int j = 0; j < d; ++j) {
      const double v = rng.next_range(-2, 2);
      x.push_back(v);
      t += (j + 1) * v * v - v;
    }
    y.push_back(t + 0.1 * rng.next_normal());
  }
  GbdtConfig cfg;
  cfg.num_trees = 12;
  cfg.max_depth = 4;
  cfg.learning_rate = 0.2;
  cfg.seed = 0xfedcba9876543210ULL;
  cfg.split_mode = mode;
  cfg.histogram_bins = 16;
  Gbdt model(cfg);
  model.fit(x, d, y);
  model.fit_more(x, d, y, 3);
  return fnv1a_nonzero(gbdt_to_json(model));
}

TEST(OutputDigest, GbdtModelFileExact) {
  EXPECT_EQ(gbdt_digest(SplitMode::kExact), 0x030212bf82f2cb19ULL)
      << "0x" << std::hex << gbdt_digest(SplitMode::kExact);
}

TEST(OutputDigest, GbdtModelFileHistogram) {
  EXPECT_EQ(gbdt_digest(SplitMode::kHistogram), 0x4c3ba82f96af9108ULL)
      << "0x" << std::hex << gbdt_digest(SplitMode::kHistogram);
}

/// Every request and reply field, set and at its sentinel, plus values on
/// each side of a sentinel and strings that need every escape.
std::string protocol_corpus() {
  const char* const names[] = {"", "t", "q\"uote\\back/slash", "tab\tnl\nctl\x01",
                               "utf8 \xc3\xa9"};
  const double doubles[] = {-1.0, -0.0, 0.0, 1e-300, 0.1, 6.795162141492879, 1e300};
  const std::int64_t ints[] = {-2, -1, 0, 1, 42, 9223372036854775807LL};
  const std::uint64_t words[] = {0, 1, 42, 18446744073709551615ULL};
  std::string out;
  for (int i = 0; i < 7; ++i) {
    Request req;
    req.type = static_cast<RequestType>(i);
    out += request_to_json(req) + "\n";  // every field at its sentinel
    req.version = i - 3;
    req.tenant = names[i % 5];
    req.budget = ints[i % 6];
    req.network = names[(i + 1) % 5];
    req.task = names[(i + 2) % 5];
    req.hw = names[(i + 3) % 5];
    req.trials = ints[(i + 1) % 6];
    req.batch = ints[(i + 2) % 6];
    req.seed = words[i % 4];
    req.policy = names[(i + 4) % 5];
    req.job = ints[(i + 3) % 6];
    req.weight = doubles[i % 7];
    out += request_to_json(req) + "\n";
  }
  out += response_to_json(Response{}) + "\n";
  for (int i = 0; i < 14; ++i) {
    Response r;
    r.version = i - 7;
    r.ok = i % 2 == 0;
    r.error = names[i % 5];
    r.event = names[(i + 1) % 5];
    r.tier = names[(i + 2) % 5];
    r.est_time_ms = doubles[i % 7];
    r.score = doubles[(i + 1) % 7];
    r.schedule_fp = words[i % 4];
    r.record = names[(i + 3) % 5];
    r.serve_us = doubles[(i + 2) % 7];
    r.cache_gen = words[(i + 1) % 4];
    r.job = ints[i % 6];
    r.state = names[(i + 4) % 5];
    r.trials_used = ints[(i + 1) % 6];
    r.latency_ms = doubles[(i + 3) % 7];
    r.round = ints[(i + 2) % 6];
    r.trials_after = ints[(i + 3) % 6];
    r.net_latency_ms = doubles[(i + 4) % 7];
    r.task = names[i % 5];
    std::int64_t k = i;
    for (std::int64_t* c : {&r.queries, &r.l1_hits, &r.l2_hits, &r.l3_hits, &r.misses,
                            &r.jobs_admitted, &r.jobs_rejected, &r.jobs_completed,
                            &r.jobs_resumed, &r.tenants, &r.refreshes, &r.invalidations,
                            &r.reloads}) {
      *c = ints[k++ % 6];
    }
    r.role = names[(i + 1) % 5];
    out += response_to_json(r) + "\n";
  }
  return out;
}

TEST(OutputDigest, ProtocolCorpus) {
  const std::string corpus = protocol_corpus();
  EXPECT_EQ(fnv1a_nonzero(corpus), 0x59ddaf096434bf89ULL)
      << "0x" << std::hex << fnv1a_nonzero(corpus) << "\n" << corpus;
}

}  // namespace
}  // namespace harl
