#include "server/tenant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace harl {

TenantStatus& TenantRegistry::ensure_locked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    TenantStatus fresh;
    fresh.name = name;
    fresh.budget = default_budget_;
    it = tenants_.emplace(name, std::move(fresh)).first;
  }
  return it->second;
}

void TenantRegistry::ensure(const std::string& name, std::int64_t budget) {
  std::lock_guard<std::mutex> lk(mu_);
  TenantStatus& t = ensure_locked(name);
  if (budget >= 0) t.budget = std::max(budget, t.charged);
}

void TenantRegistry::set_weight(const std::string& name, double weight) {
  if (!(weight > 0)) return;  // 0 (and NaN/negative) = leave unchanged
  std::lock_guard<std::mutex> lk(mu_);
  ensure_locked(name).weight = weight;
}

double TenantRegistry::weight(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? 1.0 : it->second.weight;
}

bool TenantRegistry::admit(const std::string& name, std::int64_t trials,
                           std::string* reason) {
  std::lock_guard<std::mutex> lk(mu_);
  TenantStatus& t = ensure_locked(name);
  if (trials <= 0) {
    if (reason != nullptr) *reason = "job trial budget must be positive";
    return false;
  }
  if (trials > t.remaining()) {
    if (reason != nullptr) {
      *reason = "tenant \"" + name + "\" budget exhausted: " +
                std::to_string(trials) + " trials requested, " +
                std::to_string(t.remaining()) + " of " +
                std::to_string(t.budget) + " remaining";
    }
    return false;
  }
  t.charged += trials;
  t.jobs += 1;
  return true;
}

void TenantRegistry::force_admit(const std::string& name, std::int64_t trials) {
  std::lock_guard<std::mutex> lk(mu_);
  TenantStatus& t = ensure_locked(name);
  // Saturating: a journal's charges are not bounded by any one budget.
  const std::int64_t room = std::numeric_limits<std::int64_t>::max() - t.charged;
  t.charged = trials > room ? std::numeric_limits<std::int64_t>::max()
                            : t.charged + trials;
  t.jobs += 1;
  // A recovered charge may exceed a since-lowered budget; stretch the budget
  // so `remaining()` never goes negative (the journal is the authority).
  t.budget = std::max(t.budget, t.charged);
}

void TenantRegistry::on_job_complete(const std::string& name,
                                     std::int64_t trials_admitted,
                                     std::int64_t trials_used,
                                     double gain_ms) {
  std::lock_guard<std::mutex> lk(mu_);
  TenantStatus& t = ensure_locked(name);
  t.jobs_completed += 1;
  if (trials_used >= 0 && trials_used < trials_admitted) {
    // Saturated early: refund the headroom the search never consumed.
    t.charged -= trials_admitted - trials_used;
    if (t.charged < 0) t.charged = 0;
  }
  t.last_gain_ms = gain_ms;
  t.last_job_trials = std::max<std::int64_t>(
      1, trials_used >= 0 ? trials_used : trials_admitted);
}

int TenantRegistry::pick_locked(
    const std::vector<const std::string*>& names) const {
  // Normalize the backward (observed-rate) term across the candidate set so
  // it is comparable to the [-1, 0] forward term, mirroring how Eq. 3's
  // terms share a scale within one scheduler.
  double max_rate = 0;
  for (const std::string* name : names) {
    auto it = tenants_.find(*name);
    if (it == tenants_.end()) continue;
    const TenantStatus& t = it->second;
    if (t.last_job_trials > 0 && t.last_gain_ms > 0) {
      max_rate = std::max(
          max_rate, t.last_gain_ms / static_cast<double>(t.last_job_trials));
    }
  }

  int best = -1;
  double best_grad = 0;
  const std::string* best_name = nullptr;
  for (std::size_t c = 0; c < names.size(); ++c) {
    const std::string& name = *names[c];
    double backward = 0;
    double forward = 0;
    auto it = tenants_.find(name);
    if (it != tenants_.end()) {
      const TenantStatus& t = it->second;
      if (max_rate > 0 && t.last_job_trials > 0 && t.last_gain_ms > 0) {
        backward =
            -(t.last_gain_ms / static_cast<double>(t.last_job_trials)) /
            max_rate;
      }
      if (t.budget > 0) {
        forward = -static_cast<double>(t.remaining()) /
                  static_cast<double>(t.budget);
      }
    } else {
      // Unknown tenant: full headroom, no history — maximal forward pull,
      // the same cold-start bias Eq. 3 gives unmeasured tasks.
      forward = -1;
    }
    double grad = alpha_ * backward + (1 - alpha_) * forward;
    if (best == -1 || grad < best_grad ||
        (grad == best_grad && name < *best_name)) {
      best = static_cast<int>(c);
      best_grad = grad;
      best_name = names[c];
    }
  }
  return best;
}

int TenantRegistry::pick(const std::vector<std::string>& candidates) const {
  if (candidates.empty()) return -1;
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const std::string*> names;
  names.reserve(candidates.size());
  for (const std::string& name : candidates) names.push_back(&name);
  return pick_locked(names);
}

int TenantRegistry::pick_weighted(
    const std::vector<DispatchCandidate>& candidates) {
  if (candidates.empty()) return -1;
  std::lock_guard<std::mutex> lk(mu_);

  // Deficits live on the status: materialize every candidate tenant first.
  for (const DispatchCandidate& c : candidates) ensure_locked(c.name);

  auto affordable = [&](const DispatchCandidate& c) {
    // Tolerance: a top-up computes `k * weight` in floating point, which may
    // land an epsilon under the integral cost it was sized to reach.
    return tenants_.at(c.name).deficit >= static_cast<double>(c.cost) - 1e-6;
  };

  bool any = false;
  for (const DispatchCandidate& c : candidates) any = any || affordable(c);
  if (!any) {
    // Top-up round: give every backlogged tenant `k` quanta of credit
    // (one quantum = `weight` trials), with k the smallest whole number
    // that makes at least one candidate affordable — the closed form of
    // "spin the round-robin wheel until someone can pay".
    double k = 0;
    bool first = true;
    for (const DispatchCandidate& c : candidates) {
      const TenantStatus& t = tenants_.at(c.name);
      double need =
          std::ceil((static_cast<double>(c.cost) - t.deficit) / t.weight);
      if (need < 1) need = 1;
      if (first || need < k) k = need;
      first = false;
    }
    for (const DispatchCandidate& c : candidates) {
      TenantStatus& t = tenants_.at(c.name);
      t.deficit += k * t.weight;
    }
  }

  // Eq. 3 gradient argmin over the tenants whose credit covers their job.
  std::vector<const std::string*> names;
  std::vector<int> index;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (!affordable(candidates[c])) continue;
    names.push_back(&candidates[c].name);
    index.push_back(static_cast<int>(c));
  }
  if (names.empty()) return -1;  // unreachable: the top-up guarantees one
  int within = pick_locked(names);
  int winner = index[static_cast<std::size_t>(within)];
  tenants_.at(candidates[static_cast<std::size_t>(winner)].name).deficit -=
      static_cast<double>(candidates[static_cast<std::size_t>(winner)].cost);
  return winner;
}

void TenantRegistry::clear_deficit(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) it->second.deficit = 0;
}

std::int64_t TenantRegistry::remaining(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? default_budget_ : it->second.remaining();
}

std::int64_t TenantRegistry::num_tenants() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::int64_t>(tenants_.size());
}

std::vector<TenantStatus> TenantRegistry::statuses() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TenantStatus> out;
  out.reserve(tenants_.size());
  for (const auto& kv : tenants_) out.push_back(kv.second);  // map: sorted
  return out;
}

}  // namespace harl
