#pragma once

/// \file tenant.hpp
/// TenantRegistry: per-tenant trial budgets and the cross-tenant priority
/// selector — HARL's Eq. 3 gradient lifted one level, from "which task gets
/// the next round" to "which tenant's job gets the next fleet slot".
/// Invariant: admission and selection are deterministic functions of the
/// registry state (ties break lexicographically), and a tenant can never
/// spend past its budget.  Collaborators: HarlServer, TaskScheduler (the
/// intra-run Eq. 3 this mirrors), docs/PROTOCOL.md.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace harl {

/// One tenant's accounting snapshot.
struct TenantStatus {
  std::string name;
  std::int64_t budget = 0;       ///< lifetime trial allowance
  std::int64_t charged = 0;      ///< trials admitted (committed at admission)
  std::int64_t jobs = 0;         ///< jobs admitted
  std::int64_t jobs_completed = 0;
  double last_gain_ms = 0;       ///< latency gain of the last completed job
  std::int64_t last_job_trials = 0;  ///< trials that gain cost
  double weight = 1.0;           ///< fair-queue share (deficit accrual rate)
  double deficit = 0;            ///< unspent dispatch credit, in trials

  std::int64_t remaining() const { return budget - charged; }
};

/// One tenant's claim on the next fleet slot: its name and the cost (trial
/// budget) of the job it would dispatch — the unit the deficit counters are
/// denominated in.
struct DispatchCandidate {
  std::string name;
  std::int64_t cost = 1;
};

/// Thread-safe per-tenant budget book and priority selector.
///
/// Admission charges a job's full trial budget up front (`admit`), so a
/// burst of submissions can never oversubscribe a tenant even while earlier
/// jobs still run; completions report back observed improvement
/// (`on_job_complete`), which feeds the selector.
///
/// `pick` reuses the *shape* of the paper's Eq. 3 task gradient
/// (`TaskScheduler::task_gradient`): for each candidate tenant,
///
///   backward = -(last_gain_ms / last_job_trials) / max_rate   in [-1, 0]
///   forward  = -(remaining budget fraction)                   in [-1, 0]
///   grad     = alpha * backward + (1 - alpha) * forward
///
/// and the minimum gradient wins (most negative = most promising), exactly
/// the argmin discipline of `GreedyGradientSelector`.  The backward term
/// favors tenants whose recent jobs improved fastest (observed rate, per
/// trial, normalized across candidates); the forward term favors tenants
/// with the most unspent budget (headroom), so a freshly-registered tenant
/// is not starved by an incumbent on a hot streak.  Ties break on the
/// lexicographically smallest name, making scheduling reproducible.
///
/// `pick_weighted` wraps that gradient in a deficit-round-robin fairness
/// layer (`weight`/`deficit` on the status): each tenant accrues dispatch
/// credit proportional to its weight, only tenants whose credit covers their
/// head job's trial cost are eligible for the gradient argmin, and the
/// winner pays its cost from its credit.  Credit only accrues when *no*
/// candidate can afford its job (a top-up round), so under sustained
/// overload every backlogged tenant becomes eligible — and is dispatched —
/// before any rival earns more credit: one tenant flooding the queue cannot
/// starve the rest, and long-term trial throughput converges to the weight
/// ratio.  The whole pick is a deterministic function of the registry state
/// and the candidate list, so dispatch traces replay exactly.
class TenantRegistry {
 public:
  explicit TenantRegistry(std::int64_t default_budget,
                          double gradient_alpha = 0.2)
      : default_budget_(default_budget), alpha_(gradient_alpha) {}

  /// Creates `name` at the default budget when unknown; raises/lowers its
  /// budget when `budget >= 0`.  A budget below what is already charged
  /// clamps to the charged amount (no retroactive debt).
  void ensure(const std::string& name, std::int64_t budget = -1);

  /// Set `name`'s fair-queue weight (auto-creating it).  Non-positive
  /// weights are ignored — 0 is the protocol's "leave unchanged" sentinel.
  void set_weight(const std::string& name, double weight);
  double weight(const std::string& name) const;

  /// Charge `trials` against `name`'s budget (auto-created at the default
  /// budget).  Returns false — and fills `*reason` — when the remaining
  /// budget cannot cover them; nothing is charged on rejection.
  bool admit(const std::string& name, std::int64_t trials,
             std::string* reason = nullptr);

  /// Recovery-path admission (daemon restart): charge unconditionally, so a
  /// journaled job survives even a budget lowered since it was admitted.
  /// The charge saturates at INT64_MAX instead of overflowing.
  void force_admit(const std::string& name, std::int64_t trials);

  /// A job of `name` finished: record the observed improvement for the
  /// backward term.  `trials_used` below the admitted charge refunds the
  /// difference (the search saturated early; the tenant keeps the headroom).
  void on_job_complete(const std::string& name, std::int64_t trials_admitted,
                       std::int64_t trials_used, double gain_ms);

  /// The Eq. 3 pick over `candidates` (names; unknown ones are treated as
  /// fresh tenants).  Returns the winner's index, or -1 when empty.  Pure
  /// priority, no fairness layer — `pick_weighted` is the dispatcher's
  /// entry point.
  int pick(const std::vector<std::string>& candidates) const;

  /// Weighted deficit-round-robin pick over one candidate per tenant (its
  /// head pending job).  Eligible = deficit covers cost; when nobody is
  /// eligible every candidate is topped up by the minimal whole number of
  /// weight-quanta that makes at least one eligible (closed form — no
  /// busy-looping).  Among the eligible, the Eq. 3 gradient argmin picks,
  /// and the winner's deficit pays its cost.  Returns the winner's index,
  /// or -1 when `candidates` is empty.  Deterministic: same registry state
  /// + same candidate list ⇒ same winner and same deficit mutations.
  int pick_weighted(const std::vector<DispatchCandidate>& candidates);

  /// `name`'s pending queue drained: drop its accumulated credit, the DRR
  /// rule that stops an idle tenant from hoarding dispatch priority.
  void clear_deficit(const std::string& name);

  std::int64_t remaining(const std::string& name) const;
  std::int64_t num_tenants() const;
  /// Snapshots sorted by name (deterministic reporting order).
  std::vector<TenantStatus> statuses() const;

 private:
  TenantStatus& ensure_locked(const std::string& name);
  int pick_locked(const std::vector<const std::string*>& names) const;

  mutable std::mutex mu_;
  std::int64_t default_budget_;
  double alpha_;
  std::map<std::string, TenantStatus> tenants_;
};

}  // namespace harl
