#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <set>

#include "util/fnv.hpp"
#include "workloads/networks.hpp"
#include "workloads/operators.hpp"
#include "workloads/suites.hpp"

namespace harl {
namespace {

TEST(Suites, SevenSuitesInPaperOrder) {
  const auto& names = table6_suite_names();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "GEMM-S");
  EXPECT_EQ(names[2], "GEMM-L");
  EXPECT_EQ(names[6], "T2D");
}

TEST(Suites, FourConfigsEach) {
  for (const std::string& suite : table6_suite_names()) {
    auto cases = table6_suite(suite, 1);
    EXPECT_EQ(cases.size(), 4u) << suite;
    for (const OperatorCase& c : cases) {
      EXPECT_EQ(c.suite, suite);
      EXPECT_FALSE(c.config.empty());
    }
  }
}

TEST(Suites, GemmLHeadlineShape) {
  auto cases = table6_suite("GEMM-L", 1);
  // First configuration is the paper's 1024x1024x1024 headline GEMM.
  const TensorOp& op = cases[0].graph.stage(0).op;
  EXPECT_EQ(op.axes[0].extent, 1024);
  EXPECT_EQ(op.axes[1].extent, 1024);
  EXPECT_EQ(op.axes[2].extent, 1024);
  EXPECT_DOUBLE_EQ(op.total_flops(), 2.0 * 1024 * 1024 * 1024);
}

TEST(Suites, BatchScalesIterationSpace) {
  auto b1 = table6_suite("C2D", 1);
  auto b16 = table6_suite("C2D", 16);
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_NEAR(b16[i].graph.total_flops() / b1[i].graph.total_flops(), 16.0, 1e-9)
        << b1[i].config;
  }
}

TEST(Suites, ConvOutputDimsMatchFormula) {
  // C2D (224,224,3,64,k7,s2,p3): Ho = (224 + 6 - 7)/2 + 1 = 112.
  auto cases = table6_suite("C2D", 1);
  const TensorOp& op = cases[0].graph.stage(0).op;
  EXPECT_EQ(op.axes[1].extent, 112);
  EXPECT_EQ(op.axes[2].extent, 112);
  // T2D (4,4,512,256,k4,s2,p1): Ho = (4-1)*2 - 2 + 4 = 8.
  auto t2d = table6_suite("T2D", 1);
  EXPECT_EQ(t2d[0].graph.stage(0).op.axes[1].extent, 8);
}

TEST(Suites, UniqueNamesAcrossAllCases) {
  std::set<std::string> names;
  for (const OperatorCase& c : table6_all(1)) names.insert(c.graph.name());
  EXPECT_EQ(names.size(), 28u);
}

TEST(Networks, BertInventoryMatchesTable4) {
  Network bert = make_bert(1);
  ASSERT_EQ(bert.subgraphs.size(), 10u);
  std::set<std::string> names;
  for (const Subgraph& g : bert.subgraphs) names.insert(g.name());
  for (const char* expect :
       {"GEMM-I", "GEMM-II", "GEMM-III", "GEMM-IV", "Softmax", "Batch_GEMM-I",
        "Batch_GEMM-II", "Element-wise-I", "Element-wise-II", "GEMM+Tanh"}) {
    EXPECT_TRUE(names.count(expect)) << expect;
  }
}

TEST(Networks, BertWeightsAreLayerCounts) {
  Network bert = make_bert(1);
  for (const Subgraph& g : bert.subgraphs) {
    if (g.name() == "GEMM+Tanh") {
      EXPECT_DOUBLE_EQ(g.weight(), 1.0);  // pooler appears once
    } else if (g.name() == "Element-wise-I") {
      EXPECT_DOUBLE_EQ(g.weight(), 24.0);  // two residual adds per layer
    } else {
      EXPECT_DOUBLE_EQ(g.weight(), 12.0) << g.name();
    }
  }
}

TEST(Networks, BertGemmsDominateFlops) {
  // Table 4: the four GEMMs carry ~87% of the execution time; in FLOP terms
  // they must strongly dominate the batch GEMMs and elementwise subgraphs.
  Network bert = make_bert(1);
  double gemm_flops = 0, rest_flops = 0;
  for (const Subgraph& g : bert.subgraphs) {
    double wf = g.weight() * g.total_flops();
    if (g.name().rfind("GEMM-", 0) == 0) gemm_flops += wf;
    else rest_flops += wf;
  }
  EXPECT_GT(gemm_flops, rest_flops * 10);
}

TEST(Networks, ResNetAndMobileNetCounts) {
  EXPECT_EQ(make_resnet50(1).subgraphs.size(), 24u);
  EXPECT_EQ(make_mobilenet_v2(1).subgraphs.size(), 21u);
}

TEST(Networks, BatchPropagatesToSubgraphs) {
  Network b1 = make_bert(1);
  Network b16 = make_bert(16);
  EXPECT_NEAR(b16.subgraphs[0].total_flops() / b1.subgraphs[0].total_flops(), 16.0,
              1e-9);
  EXPECT_EQ(b16.name, "bert_b16");
}

TEST(Networks, AllSubgraphsValidateAtBothBatchSizes) {
  for (const std::string& name : network_names()) {
    for (std::int64_t batch : {1, 16}) {
      Network net = make_network(name, batch);
      for (const Subgraph& g : net.subgraphs) {
        EXPECT_EQ(g.validate(), "") << net.name << "/" << g.name();
        EXPECT_GT(g.weight(), 0) << g.name();
      }
    }
  }
}

// --- IR identity ----------------------------------------------------------
//
// A digest of every field of the IR the builders produce: subgraph and op
// names, kinds, axes and extents, access maps term by term, element bytes,
// flops per point, wiring, consumers, weights, anchors and structure
// signatures.  Record logs, round dumps, models and caches are all derived
// from these fields, so a builder change that moves any digest below changes
// persisted bytes.  The pinned values were computed from the builders before
// they were made copy-free.

void mix_str(Fnv1a& h, const std::string& s) {
  h.mix(s.size());
  h.mix_bytes(s);
}

void mix_f64(Fnv1a& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  h.mix(bits);
}

void mix_i64(Fnv1a& h, std::int64_t v) { h.mix(static_cast<std::uint64_t>(v)); }

void mix_subgraph(Fnv1a& h, const Subgraph& g) {
  mix_str(h, g.name());
  mix_f64(h, g.weight());
  mix_i64(h, g.anchor_stage());
  mix_str(h, g.structure_signature());
  mix_i64(h, g.num_stages());
  for (int s = 0; s < g.num_stages(); ++s) {
    const Stage& st = g.stage(s);
    const TensorOp& op = st.op;
    mix_str(h, op.name);
    mix_i64(h, static_cast<int>(op.kind));
    mix_f64(h, op.flops_per_point);
    mix_i64(h, op.out_elem_bytes);
    mix_i64(h, op.num_axes());
    for (const Axis& a : op.axes) {
      mix_str(h, a.name);
      mix_i64(h, a.extent);
      mix_i64(h, static_cast<int>(a.kind));
    }
    mix_i64(h, static_cast<std::int64_t>(op.inputs.size()));
    for (const TensorAccess& in : op.inputs) {
      mix_str(h, in.tensor_name);
      mix_i64(h, in.elem_bytes);
      mix_i64(h, static_cast<std::int64_t>(in.dims.size()));
      for (const DimExpr& d : in.dims) {
        mix_i64(h, static_cast<std::int64_t>(d.terms.size()));
        for (const DimExpr::Term& t : d.terms) {
          mix_i64(h, t.axis);
          mix_i64(h, t.coeff);
        }
      }
    }
    mix_i64(h, static_cast<std::int64_t>(st.producer_of_input.size()));
    for (int p : st.producer_of_input) mix_i64(h, p);
    mix_i64(h, static_cast<std::int64_t>(g.consumers(s).size()));
    for (int c : g.consumers(s)) mix_i64(h, c);
  }
}

std::map<std::string, std::uint64_t> ir_digests() {
  std::map<std::string, std::uint64_t> out;
  for (std::int64_t batch : {1, 16}) {
    for (const std::string& name : network_names()) {
      Network net = make_network(name, batch);
      Fnv1a h;
      mix_str(h, net.name);
      mix_i64(h, static_cast<std::int64_t>(net.subgraphs.size()));
      for (const Subgraph& g : net.subgraphs) mix_subgraph(h, g);
      out[net.name] = h.value();
    }
    for (const std::string& suite : table6_suite_names()) {
      Fnv1a h;
      for (const OperatorCase& c : table6_suite(suite, batch)) {
        mix_str(h, c.suite);
        mix_str(h, c.config);
        mix_subgraph(h, c.graph);
      }
      out[suite + "_b" + std::to_string(batch)] = h.value();
    }
  }
  return out;
}

TEST(IrIdentity, EveryBuiltinGraphMatchesItsPinnedDigest) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"C1D_b1", 18283750237283620082ULL},
      {"C1D_b16", 16180933340279989136ULL},
      {"C2D_b1", 14935376938575246704ULL},
      {"C2D_b16", 3468549599206943034ULL},
      {"C3D_b1", 9941432319402981145ULL},
      {"C3D_b16", 4087290997013689095ULL},
      {"GEMM-L_b1", 5189092004979432543ULL},
      {"GEMM-L_b16", 14339047826465262123ULL},
      {"GEMM-M_b1", 5753175204284791442ULL},
      {"GEMM-M_b16", 7270512948267512872ULL},
      {"GEMM-S_b1", 7442349491791066194ULL},
      {"GEMM-S_b16", 4364727262485345320ULL},
      {"T2D_b1", 10916177816226477319ULL},
      {"T2D_b16", 1826625392736904055ULL},
      {"bert_b1", 16766203938676571499ULL},
      {"bert_b16", 4433704418461103022ULL},
      {"mobilenet_v2_b1", 5324128273536430786ULL},
      {"mobilenet_v2_b16", 12518705540026913568ULL},
      {"resnet50_b1", 15851537424263507116ULL},
      {"resnet50_b16", 17428804287890094945ULL},
  };
  const std::map<std::string, std::uint64_t> actual = ir_digests();
  ASSERT_EQ(actual.size(), pinned.size());
  for (const auto& [what, digest] : actual) {
    auto it = pinned.find(what);
    ASSERT_NE(it, pinned.end()) << what;
    EXPECT_EQ(digest, it->second) << "{\"" << what << "\", " << digest << "ULL},";
  }
}

TEST(Networks, DistinctDominantKindsPresent) {
  // ResNet-50's inventory mixes convolutions, elementwise, reduce and dense —
  // exercising the "similar task" grouping of the Eq. 3 gradient.
  Network net = make_resnet50(1);
  std::set<OpKind> kinds;
  for (const Subgraph& g : net.subgraphs) kinds.insert(g.dominant_kind());
  EXPECT_GE(kinds.size(), 3u);
}

/// At the largest accepted batch every extent product of every builtin
/// network and Table 6 suite is still a positive int64 (they overflow from
/// about 2^40); one past it, the builders abort.
TEST(Networks, LargestBatchKeepsEveryExtentProductPositive) {
  auto expect_positive = [](const Subgraph& g) {
    EXPECT_GT(g.total_flops(), 0.0) << g.name();
    for (const Stage& s : g.stages()) EXPECT_GT(s.op.iter_space_points(), 0) << g.name();
  };
  for (const std::string& name : network_names()) {
    for (const Subgraph& g : make_network(name, kMaxBatch).subgraphs) expect_positive(g);
  }
  for (const OperatorCase& c : table6_all(kMaxBatch)) expect_positive(c.graph);
}

TEST(NetworksDeathTest, BuildersRefuseABatchPastTheBound) {
  EXPECT_DEATH(make_network("bert", kMaxBatch + 1), "batch outside");
  EXPECT_DEATH(make_network("resnet50", 0), "batch outside");
  EXPECT_DEATH(table6_suite("C2D", kMaxBatch + 1), "batch outside");
}

/// The largest GEMM make_gemm builds, at the largest batch, still counts its
/// points and its FLOPs (2 per point) inside int64; one more in any
/// dimension would not.
TEST(Networks, LargestGemmKeepsItsPointAndFlopCountsInInt64) {
  constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t d = kMaxGemmDim;
  Subgraph g = make_gemm(d, d, d, kMaxBatch);
  const std::int64_t points = g.stages()[0].op.iter_space_points();
  EXPECT_EQ(points, kMaxBatch * d * d * d);
  EXPECT_LE(points, kInt64Max / 2);  // the FLOP count fits too
  EXPECT_EQ(g.total_flops(), 2.0 * static_cast<double>(points));
  // kMaxGemmDim is the largest such bound: one more overflows the FLOPs.
  const std::int64_t next = d + 1;
  EXPECT_GT(next * next * next, kInt64Max / 2 / kMaxBatch);
}

TEST(NetworksDeathTest, MakeGemmRefusesADimensionPastTheBound) {
  EXPECT_DEATH(make_gemm(kMaxGemmDim + 1, 64, 64), "dimension outside");
  EXPECT_DEATH(make_gemm(64, kMaxGemmDim + 1, 64), "dimension outside");
  EXPECT_DEATH(make_gemm(64, 64, std::int64_t{1} << 32), "dimension outside");
  EXPECT_DEATH(make_gemm(64, 64, 64, kMaxBatch + 1), "batch outside");
}

}  // namespace
}  // namespace harl
