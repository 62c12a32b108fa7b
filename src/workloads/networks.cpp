#include "workloads/networks.hpp"

#include <stdexcept>

#include "util/logging.hpp"
#include "workloads/operators.hpp"

namespace harl {

Network make_bert(std::int64_t batch) {
  // BERT-base: 12 layers, hidden 768, heads 12 (head dim 64), FFN 3072,
  // sequence length 128. Token dimension folds into the GEMM M dimension.
  const std::int64_t seq = 128;
  const std::int64_t hidden = 768;
  const std::int64_t ffn = 3072;
  const std::int64_t heads = 12;
  const std::int64_t head_dim = 64;
  const std::int64_t m = batch * seq;

  Network net;
  net.name = "bert_b" + std::to_string(batch);
  net.subgraphs.reserve(10);

  // Table 4 inventory. Weights = appearances over the 12 encoder layers.
  net.subgraphs.push_back(make_gemm(m, hidden, ffn, 1, "GEMM-I", 12));        // FFN up
  net.subgraphs.push_back(make_gemm(m, hidden, hidden, 1, "GEMM-II", 12));    // attn out
  net.subgraphs.push_back(make_gemm(m, hidden, 3 * hidden, 1, "GEMM-III", 12));  // QKV
  net.subgraphs.push_back(make_gemm(m, ffn, hidden, 1, "GEMM-IV", 12));       // FFN down
  net.subgraphs.push_back(make_softmax(batch * heads * seq, seq, "Softmax", 12));
  net.subgraphs.push_back(
      make_batch_gemm(batch * heads, seq, head_dim, seq, "Batch_GEMM-I", 12));  // QK^T
  net.subgraphs.push_back(
      make_batch_gemm(batch * heads, seq, seq, head_dim, "Batch_GEMM-II", 12)); // AV
  net.subgraphs.push_back(
      make_elementwise(m * hidden, 8.0, "Element-wise-I", 24));  // add + layernorm
  net.subgraphs.push_back(
      make_elementwise(m * ffn, 4.0, "Element-wise-II", 12));    // GeLU
  net.subgraphs.push_back(
      make_gemm_act(batch, hidden, hidden, "tanh", "GEMM+Tanh", 1));  // pooler
  return net;
}

Network make_resnet50(std::int64_t batch) {
  Network net;
  net.name = "resnet50_b" + std::to_string(batch);
  net.subgraphs.reserve(24);
  int idx = 0;
  auto conv = [&](std::int64_t h, std::int64_t w, std::int64_t ci, std::int64_t co,
                  std::int64_t k, std::int64_t s, std::int64_t p, double weight) {
    net.subgraphs.push_back(make_conv2d_relu(batch, h, w, ci, co, k, s, p,
                                             "res_conv" + std::to_string(idx++), weight));
  };

  // 24 distinct subgraphs: the stem, the distinct bottleneck convolutions of
  // the four stages (1x1 reduce, 3x3, 1x1 expand, and the downsample
  // shortcuts), and the final dense layer.  Weights are appearance counts.
  conv(224, 224, 3, 64, 7, 2, 3, 1);      // 0: stem
  // Stage 1 (56x56), blocks: 3
  conv(56, 56, 64, 64, 1, 1, 0, 1);       // 1: first reduce
  conv(56, 56, 64, 64, 3, 1, 1, 3);       // 2: 3x3
  conv(56, 56, 64, 256, 1, 1, 0, 3);      // 3: expand
  conv(56, 56, 256, 64, 1, 1, 0, 2);      // 4: later reduces
  conv(56, 56, 64, 256, 1, 1, 0, 1);      // 5: shortcut projection
  // Stage 2 (28x28), blocks: 4
  conv(56, 56, 256, 128, 1, 2, 0, 1);     // 6: strided reduce
  conv(28, 28, 128, 128, 3, 1, 1, 4);     // 7
  conv(28, 28, 128, 512, 1, 1, 0, 4);     // 8
  conv(28, 28, 512, 128, 1, 1, 0, 3);     // 9
  conv(56, 56, 256, 512, 1, 2, 0, 1);     // 10: shortcut
  // Stage 3 (14x14), blocks: 6
  conv(28, 28, 512, 256, 1, 2, 0, 1);     // 11
  conv(14, 14, 256, 256, 3, 1, 1, 6);     // 12
  conv(14, 14, 256, 1024, 1, 1, 0, 6);    // 13
  conv(14, 14, 1024, 256, 1, 1, 0, 5);    // 14
  conv(28, 28, 512, 1024, 1, 2, 0, 1);    // 15: shortcut
  // Stage 4 (7x7), blocks: 3
  conv(14, 14, 1024, 512, 1, 2, 0, 1);    // 16
  conv(7, 7, 512, 512, 3, 1, 1, 3);       // 17
  conv(7, 7, 512, 2048, 1, 1, 0, 3);      // 18
  conv(7, 7, 2048, 512, 1, 1, 0, 2);      // 19
  conv(14, 14, 1024, 2048, 1, 2, 0, 1);   // 20: shortcut
  // Residual adds (dominant elementwise traffic), pooling-ish reduce, dense.
  net.subgraphs.push_back(
      make_elementwise(batch * 56 * 56 * 256, 1.0, "res_add1", 16));  // 21
  net.subgraphs.push_back(make_softmax(batch * 2048, 49, "res_gap", 1));  // 22: pool
  net.subgraphs.push_back(make_gemm(batch, 2048, 1000, 1, "res_fc", 1));  // 23
  return net;
}

Network make_mobilenet_v2(std::int64_t batch) {
  Network net;
  net.name = "mobilenet_v2_b" + std::to_string(batch);
  net.subgraphs.reserve(21);
  int idx = 0;
  auto conv = [&](std::int64_t h, std::int64_t w, std::int64_t ci, std::int64_t co,
                  std::int64_t k, std::int64_t s, std::int64_t p, double weight) {
    net.subgraphs.push_back(make_conv2d_relu(batch, h, w, ci, co, k, s, p,
                                             "mbv2_conv" + std::to_string(idx++), weight));
  };
  auto dw = [&](std::int64_t h, std::int64_t w, std::int64_t c, std::int64_t s,
                double weight) {
    net.subgraphs.push_back(make_depthwise_conv2d(batch, h, w, c, 3, s, 1,
                                                  "mbv2_dw" + std::to_string(idx++), weight));
  };

  // 21 distinct subgraphs: stem, the expand/depthwise/project triples of the
  // seven inverted-residual stages (distinct shapes only), head conv, dense.
  conv(224, 224, 3, 32, 3, 2, 1, 1);      // 0: stem
  dw(112, 112, 32, 1, 1);                 // 1: block1 depthwise
  conv(112, 112, 32, 16, 1, 1, 0, 1);     // 2: block1 project
  conv(112, 112, 16, 96, 1, 1, 0, 1);     // 3: block2 expand
  dw(112, 112, 96, 2, 1);                 // 4
  conv(56, 56, 96, 24, 1, 1, 0, 1);       // 5
  conv(56, 56, 24, 144, 1, 1, 0, 2);      // 6: block3 expand (x2)
  dw(56, 56, 144, 2, 2);                  // 7 (stride-2 + stride-1 merged shape-wise)
  conv(28, 28, 144, 32, 1, 1, 0, 2);      // 8
  conv(28, 28, 32, 192, 1, 1, 0, 3);      // 9
  dw(28, 28, 192, 2, 3);                  // 10
  conv(14, 14, 192, 64, 1, 1, 0, 3);      // 11
  conv(14, 14, 64, 384, 1, 1, 0, 4);      // 12
  dw(14, 14, 384, 1, 4);                  // 13
  conv(14, 14, 384, 96, 1, 1, 0, 3);      // 14
  conv(14, 14, 96, 576, 1, 1, 0, 3);      // 15
  dw(14, 14, 576, 2, 3);                  // 16
  conv(7, 7, 576, 160, 1, 1, 0, 3);       // 17
  conv(7, 7, 160, 960, 1, 1, 0, 4);       // 18 (incl. final expand to 320 path)
  dw(7, 7, 960, 1, 3);                    // 19
  net.subgraphs.push_back(make_gemm(batch, 1280, 1000, 1, "mbv2_fc", 1));  // 20
  return net;
}

Network make_network(const std::string& name, std::int64_t batch) {
  HARL_CHECK(batch >= 1 && batch <= kMaxBatch, "make_network: batch outside [1, kMaxBatch]");
  if (name == "bert") return make_bert(batch);
  if (name == "resnet50") return make_resnet50(batch);
  if (name == "mobilenet_v2") return make_mobilenet_v2(batch);
  throw std::invalid_argument("unknown network: " + name);
}

const std::vector<std::string>& network_names() {
  static const std::vector<std::string> names = {"bert", "resnet50", "mobilenet_v2"};
  return names;
}

}  // namespace harl
