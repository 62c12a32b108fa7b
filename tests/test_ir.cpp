#include <gtest/gtest.h>

#include "ir/subgraph.hpp"
#include "workloads/operators.hpp"

namespace harl {
namespace {

TEST(DimExpr, SingleAxisFootprintEqualsTile) {
  DimExpr e = DimExpr::of_axis(0);
  EXPECT_EQ(e.footprint({8}), 8);
  EXPECT_EQ(e.footprint({1}), 1);
}

TEST(DimExpr, StridedConvFootprint) {
  // in = 2*oh + rh: slab extent is stride*(t_oh-1) + (t_rh-1) + 1.
  DimExpr e;
  e.terms = {{0, 2}, {1, 1}};
  EXPECT_EQ(e.footprint({4, 3}), 2 * 3 + 2 + 1);  // 9
  EXPECT_EQ(e.footprint({1, 1}), 1);
}

TEST(DimExpr, TermsAreInlineAndCappedAtTwo) {
  DimExpr e;
  EXPECT_EQ(e.terms.size(), 0u);
  e.terms.push_back({3, 2});
  e.terms.push_back({1, 1});
  ASSERT_EQ(e.terms.size(), DimExpr::kMaxTerms);
  EXPECT_EQ(e.terms[0].axis, 3);
  EXPECT_EQ(e.terms[0].coeff, 2);
  EXPECT_EQ(e.terms[1].axis, 1);
  // Copies are independent values: no storage is shared.
  DimExpr copy = e;
  copy.terms = {{0, 5}};
  EXPECT_EQ(e.terms.size(), 2u);
  EXPECT_EQ(copy.terms.size(), 1u);
  EXPECT_EQ(copy.terms[0].coeff, 5);
}

void push_third_term() {
  DimExpr e = DimExpr::of_axis(0);
  e.terms.push_back({1, 1});
  e.terms.push_back({2, 1});
}

void list_three_terms() { DimExpr::Terms t({{0, 1}, {1, 1}, {2, 1}}); }

TEST(DimExprDeathTest, ThirdTermAborts) {
  EXPECT_DEATH(push_third_term(), "kMaxTerms");
  EXPECT_DEATH(list_three_terms(), "kMaxTerms");
}

TEST(DimExpr, WindowedFootprintsOfEveryConvBuilder) {
  // The windowed input dimensions (stride * out + kernel) of every conv
  // builder, at a 2x3 output tile with a full 3-wide kernel.
  auto window_extent = [](const TensorOp& op, std::size_t dim,
                          std::vector<std::int64_t> tile) {
    return op.inputs[0].dims[dim].footprint(tile);
  };
  // conv1d axes: n, l, co, rc, rk; X dims: n, rc, stride*l + rk.
  TensorOp c1 = make_conv1d_op(1, 32, 8, 8, 3, 2, 1);
  EXPECT_EQ(window_extent(c1, 2, {1, 4, 1, 1, 3}), 2 * 3 + 2 + 1);
  // conv2d axes: n, oh, ow, co, rc, rh, rw; X dims: n, rc, h, w.
  TensorOp c2 = make_conv2d_op(1, 14, 14, 8, 8, 3, 2, 1);
  EXPECT_EQ(window_extent(c2, 2, {1, 2, 3, 1, 1, 3, 3}), 2 * 1 + 2 + 1);
  EXPECT_EQ(window_extent(c2, 3, {1, 2, 3, 1, 1, 3, 3}), 2 * 2 + 2 + 1);
  EXPECT_EQ(c2.inputs[0].tile_elems({1, 2, 3, 1, 4, 3, 3}), 1 * 4 * 5 * 7);
  // depthwise axes: n, c, oh, ow, rh, rw; X dims: n, c, h, w.
  TensorOp dw = make_depthwise_conv2d_op(1, 14, 14, 8, 3, 1, 1);
  EXPECT_EQ(dw.inputs[0].tile_elems({1, 4, 2, 3, 3, 3}), 1 * 4 * 4 * 5);
  // conv3d axes: n, od, oh, ow, co, rc, rd, rh, rw.
  TensorOp c3 = make_conv3d_op(1, 8, 8, 8, 4, 4, 3, 2, 1);
  EXPECT_EQ(c3.inputs[0].tile_elems({1, 2, 2, 2, 1, 4, 3, 3, 3}), 1 * 4 * 5 * 5 * 5);
  // t2d reads with unit coefficients: out + kernel - 1.
  TensorOp t2 = make_t2d_op(1, 4, 4, 8, 8, 4, 2, 1);
  EXPECT_EQ(t2.inputs[0].tile_elems({1, 2, 3, 1, 4, 4, 4}), 1 * 4 * 5 * 6);
  // Full-tile input bytes are the compulsory traffic (fp32).
  EXPECT_EQ(c2.input_bytes_once(), 4 * (1 * 8 * (2 * 6 + 3) * (2 * 6 + 3) + 8 * 8 * 3 * 3));
}

TEST(TensorOpGemm, ShapesAndCounts) {
  TensorOp op = make_gemm_op(64, 32, 16);
  EXPECT_EQ(op.num_spatial_axes(), 2);
  EXPECT_EQ(op.num_reduction_axes(), 1);
  EXPECT_EQ(op.iter_space_points(), 64 * 32 * 16);
  EXPECT_EQ(op.output_elems(), 64 * 16);
  EXPECT_DOUBLE_EQ(op.total_flops(), 2.0 * 64 * 32 * 16);
  EXPECT_TRUE(op.has_reduction());
  EXPECT_TRUE(op.has_data_reuse());
  EXPECT_FALSE(op.is_elementwise());
  EXPECT_EQ(op.validate(), "");
}

TEST(TensorOpGemm, BatchAddsAxis) {
  TensorOp op = make_gemm_op(8, 8, 8, 4);
  EXPECT_EQ(op.kind, OpKind::kBatchGemm);
  EXPECT_EQ(op.num_spatial_axes(), 3);
  EXPECT_EQ(op.output_elems(), 4 * 8 * 8);
}

TEST(TensorOpGemm, InputFootprints) {
  TensorOp op = make_gemm_op(64, 32, 16);
  // Full tile: A is 64x32, B is 32x16.
  auto full = op.full_tile();
  EXPECT_EQ(op.inputs[0].tile_elems(full), 64 * 32);
  EXPECT_EQ(op.inputs[1].tile_elems(full), 32 * 16);
  // A sub-tile (i=8, j=4, k=16): A slab 8x16, B slab 16x4.
  EXPECT_EQ(op.inputs[0].tile_elems({8, 4, 16}), 8 * 16);
  EXPECT_EQ(op.inputs[1].tile_elems({8, 4, 16}), 16 * 4);
}

TEST(TensorOpConv2d, OutputDimsAndFootprint) {
  TensorOp op = make_conv2d_op(1, 14, 14, 256, 256, 3, 1, 1);
  // Ho = Wo = 14 with pad 1 stride 1 kernel 3.
  EXPECT_EQ(op.output_elems(), 1 * 14 * 14 * 256);
  // Input slab for a (oh=2, ow=2, rc=4, rh=3, rw=3) tile: (2+2)x(2+2)x4.
  // Axes: n, oh, ow, co, rc, rh, rw.
  EXPECT_EQ(op.inputs[0].tile_elems({1, 2, 2, 1, 4, 3, 3}), 1 * 4 * 4 * 4);
  EXPECT_EQ(op.validate(), "");
}

TEST(TensorOpElementwise, IsElementwiseAndInlinable) {
  TensorOp op = make_elementwise_op(1024, 2.0, 2);
  EXPECT_TRUE(op.is_elementwise());
  EXPECT_FALSE(op.has_data_reuse());
  EXPECT_FALSE(op.has_reduction());
}

TEST(TensorOpDepthwise, NoCrossChannelReduction) {
  TensorOp op = make_depthwise_conv2d_op(1, 14, 14, 64, 3, 1, 1);
  EXPECT_EQ(op.num_reduction_axes(), 2);  // rh, rw only
  EXPECT_EQ(op.validate(), "");
}

TEST(TensorOpValidate, CatchesBadAxisOrder) {
  TensorOp op;
  op.name = "bad";
  op.axes = {{"r", 4, AxisKind::kReduction}, {"s", 4, AxisKind::kSpatial}};
  EXPECT_NE(op.validate(), "");
}

TEST(TensorOpValidate, CatchesBadExtentAndAxisRef) {
  TensorOp op;
  op.name = "bad";
  op.axes = {{"s", 0, AxisKind::kSpatial}};
  TensorAccess in;
  in.tensor_name = "X";
  in.dims = {DimExpr::of_axis(5)};
  op.inputs = {in};
  std::string err = op.validate();
  EXPECT_NE(err.find("extent"), std::string::npos);
  EXPECT_NE(err.find("out of range"), std::string::npos);
}

TEST(Subgraph, ConsumersAndAnchor) {
  Subgraph g = make_gemm_act(32, 64, 16);
  ASSERT_EQ(g.num_stages(), 2);
  EXPECT_EQ(g.consumers(0).size(), 1u);
  EXPECT_EQ(g.consumers(0)[0], 1);
  EXPECT_TRUE(g.consumers(1).empty());
  EXPECT_EQ(g.anchor_stage(), 0);  // the GEMM dominates FLOPs
  EXPECT_EQ(g.dominant_kind(), OpKind::kGemm);
  EXPECT_EQ(g.validate(), "");
}

TEST(Subgraph, SingleOpWiring) {
  Subgraph g = make_single_op_subgraph(make_gemm_op(8, 8, 8), 3.0);
  EXPECT_EQ(g.num_stages(), 1);
  EXPECT_DOUBLE_EQ(g.weight(), 3.0);
  EXPECT_EQ(g.stage(0).producer_of_input.size(), 2u);
  EXPECT_EQ(g.stage(0).producer_of_input[0], -1);
}

TEST(Subgraph, ValidateCatchesNonTopologicalWiring) {
  Stage s0;
  s0.op = make_elementwise_op(16, 1.0, 1);
  s0.producer_of_input = {0};  // consumes itself: invalid
  Subgraph g("bad", {s0});
  EXPECT_NE(g.validate(), "");
}

TEST(Subgraph, TotalFlopsSumsStages) {
  Subgraph g = make_gemm_act(32, 64, 16);
  double expect = 2.0 * 32 * 64 * 16 + 4.0 * 32 * 16;
  EXPECT_DOUBLE_EQ(g.total_flops(), expect);
}

TEST(Network, EstimateLatencyWeighted) {
  Network net;
  net.subgraphs.push_back(make_gemm(8, 8, 8, 1, "a", 2.0));
  net.subgraphs.push_back(make_gemm(8, 8, 8, 1, "b", 3.0));
  EXPECT_DOUBLE_EQ(net.estimate_latency({1.0, 10.0}), 2.0 + 30.0);
}

TEST(Softmax, TwoStageStructure) {
  Subgraph g = make_softmax(128, 64);
  ASSERT_EQ(g.num_stages(), 2);
  EXPECT_TRUE(g.stage(0).op.has_reduction());
  EXPECT_FALSE(g.stage(1).op.has_reduction());
  // The normalizer input is broadcast along columns: data reuse.
  EXPECT_TRUE(g.stage(1).op.has_data_reuse());
  EXPECT_EQ(g.validate(), "");
}

}  // namespace
}  // namespace harl
