#include "ir/subgraph.hpp"

#include <sstream>

namespace harl {

Subgraph::Subgraph(std::string name, std::vector<Stage> stages, double weight)
    : name_(std::move(name)), stages_(std::move(stages)), weight_(weight) {
  build_consumers();
  double best = -1.0;
  for (int i = 0; i < num_stages(); ++i) {
    double f = stages_[static_cast<std::size_t>(i)].op.total_flops();
    if (f > best) {
      best = f;
      anchor_ = i;
    }
  }
}

void Subgraph::build_consumers() {
  consumers_.assign(stages_.size(), {});
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    for (int p : stages_[s].producer_of_input) {
      if (p >= 0) consumers_[static_cast<std::size_t>(p)].push_back(static_cast<int>(s));
    }
  }
}

double Subgraph::total_flops() const {
  double f = 0.0;
  for (const Stage& s : stages_) f += s.op.total_flops();
  return f;
}

OpKind Subgraph::dominant_kind() const {
  return stages_.at(static_cast<std::size_t>(anchor_)).op.kind;
}

std::string Subgraph::structure_signature() const {
  std::string sig;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    if (s > 0) sig += '|';
    sig += op_kind_name(stages_[s].op.kind);
  }
  return sig;
}

std::string Subgraph::validate() const {
  std::ostringstream err;
  if (stages_.empty()) err << "subgraph '" << name_ << "' has no stages; ";
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& st = stages_[s];
    std::string op_err = st.op.validate();
    if (!op_err.empty()) err << "stage " << s << ": " << op_err;
    if (st.producer_of_input.size() != st.op.inputs.size()) {
      err << "stage " << s << " wiring size " << st.producer_of_input.size()
          << " != inputs " << st.op.inputs.size() << "; ";
    }
    for (int p : st.producer_of_input) {
      if (p >= static_cast<int>(s)) {
        err << "stage " << s << " consumes stage " << p << " (not topological); ";
      }
      if (p < -1) err << "stage " << s << " has invalid producer " << p << "; ";
    }
  }
  if (weight_ <= 0.0) err << "non-positive weight; ";
  return err.str();
}

double Network::estimate_latency(const std::vector<double>& subgraph_time_ms) const {
  double total = 0.0;
  for (std::size_t n = 0; n < subgraphs.size() && n < subgraph_time_ms.size(); ++n) {
    total += subgraphs[n].weight() * subgraph_time_ms[n];
  }
  return total;
}

Subgraph make_single_op_subgraph(TensorOp op, double weight) {
  std::string name = op.name;
  std::vector<Stage> stages(1);
  stages[0].producer_of_input.assign(op.inputs.size(), -1);
  stages[0].op = std::move(op);
  return Subgraph(std::move(name), std::move(stages), weight);
}

}  // namespace harl
