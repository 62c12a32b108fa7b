#include "core/report.hpp"

#include <cmath>
#include <sstream>

#include "util/table.hpp"

namespace harl {

std::string session_summary_line(const TuningSession& session) {
  std::ostringstream out;
  double latency = session.latency_ms();
  out << session.network().name << ": ";
  if (std::isfinite(latency)) {
    out << Table::fmt(latency, 4) << " ms";
  } else {
    out << "(not all subgraphs measured yet)";
  }
  out << " after " << session.measurer().trials_used() << " trials ("
      << Table::fmt(session.wall_seconds(), 1) << " s)";
  return out.str();
}

std::string render_session_report(const TuningSession& session, int curve_points) {
  const TaskScheduler& sched = session.scheduler();
  std::ostringstream out;
  out << "=== HARL tuning report ===\n";
  out << "workload : " << session.network().name << " (" << sched.num_tasks()
      << " subgraphs)\n";
  out << "hardware : " << session.hardware().name << " ("
      << session.hardware().num_cores << " cores)\n";
  out << "policy   : " << sched.options().policy_name << "\n";
  out << "result   : " << session_summary_line(session) << "\n\n";

  Table tasks("per-subgraph results");
  tasks.set_header({"subgraph", "weight", "best ms", "trials", "rounds", "sketch"});
  for (int i = 0; i < sched.num_tasks(); ++i) {
    const TaskState& t = sched.task(i);
    std::string sketch_tag =
        t.has_best() ? t.best_schedule().sketch->tag : std::string("-");
    tasks.add(t.graph().name(), t.graph().weight(),
              t.has_best() ? Table::fmt(t.best_time_ms(), 4) : std::string("-"),
              t.trials_spent(), t.rounds(), sketch_tag);
  }
  out << tasks.to_string() << '\n';

  // Down-sampled convergence curve of the estimated network latency.
  const auto& log = sched.round_log();
  if (!log.empty() && curve_points > 0) {
    Table curve("convergence (estimated latency vs trials)");
    curve.set_header({"trials", "latency ms"});
    std::size_t stride =
        std::max<std::size_t>(1, log.size() / static_cast<std::size_t>(curve_points));
    for (std::size_t i = stride - 1; i < log.size(); i += stride) {
      curve.add(log[i].trials_after,
                std::isfinite(log[i].net_latency_ms)
                    ? Table::fmt(log[i].net_latency_ms, 4)
                    : std::string("warmup"));
    }
    if ((log.size() - 1) % stride != stride - 1) {
      curve.add(log.back().trials_after,
                std::isfinite(log.back().net_latency_ms)
                    ? Table::fmt(log.back().net_latency_ms, 4)
                    : std::string("warmup"));
    }
    out << curve.to_string();
  }
  return out.str();
}

}  // namespace harl
