// Copyright 2026 The siot-trust Authors.

#include "trust/trust_engine.h"

#include <algorithm>

#include "common/macros.h"

namespace siot::trust {

TrustEngine::TrustEngine(TrustEngineConfig config)
    : config_(config),
      normalizer_(config.normalization, config.value_bound),
      environment_(1.0) {
  store_.SetDefaultEstimates(config_.initial_estimates);
  reverse_evaluator_.SetDefaultThreshold(config_.default_theta);
}

double TrustEngine::PreEvaluate(AgentId trustor, AgentId trustee,
                                TaskId task) const {
  // Single source of truth for the fallback chain: EstimateOutcomes. The
  // Eq. 18 fold of its result matches the underlying value exactly for
  // the direct and first-contact branches and to within ~1 ulp for the
  // inference branch (EstimatesFromTrustworthiness is an algebraic, not
  // bitwise, right inverse) — which keeps PreEvaluate and the delegation
  // ranking answering from the same estimates.
  return TrustworthinessFromEstimates(
      EstimateOutcomes(trustor, trustee, task), normalizer_);
}

OutcomeEstimates TrustEngine::EstimateOutcomes(AgentId trustor,
                                               AgentId trustee,
                                               TaskId task) const {
  // One pair probe serves all three sources.
  const auto records = store_.PairRecords(trustor, trustee);
  // First contact: no experience with this trustee on any task.
  if (records.empty()) return config_.initial_estimates;
  if (const PairTaskRecord* direct = FindTaskRecord(records, task)) {
    return direct->record.estimates;
  }
  // Inferential transfer from analogous tasks (Eq. 4).
  if (const auto inferred = InferFromRecords(catalog_, normalizer_, records,
                                             catalog_.Get(task))) {
    return EstimatesFromTrustworthiness(*inferred, normalizer_);
  }
  // No covering experience: fall back to the first-contact estimates.
  return config_.initial_estimates;
}

DelegationRequestResult TrustEngine::RequestDelegation(
    AgentId trustor, TaskId task, const std::vector<AgentId>& candidates,
    const std::optional<OutcomeEstimates>& self_estimates) const {
  DelegationRequestResult result;
  const auto self_execute = [&] {
    result.trustee = trustor;
    result.self_execution = true;
    result.trustworthiness =
        TrustworthinessFromEstimates(*self_estimates, normalizer_);
    result.expected_profit = ExpectedNetProfit(*self_estimates);
  };
  // Candidates in ascending agent id, trustor dropped. With RankCandidates'
  // stable sort, score ties break by ascending agent id (the Fig. 2
  // helper's rule), so the chosen trustee never depends on the caller's
  // candidate ordering. Graph neighbour lists arrive sorted already.
  std::vector<AgentId> agents;
  agents.reserve(candidates.size());
  for (AgentId candidate : candidates) {
    if (candidate != trustor) agents.push_back(candidate);
  }
  if (agents.empty()) {
    result.no_candidates = true;
    if (self_estimates.has_value()) self_execute();
    return result;
  }
  if (!std::is_sorted(agents.begin(), agents.end())) {
    std::sort(agents.begin(), agents.end());
  }
  std::vector<OutcomeEstimates> estimates;
  estimates.reserve(agents.size());
  for (AgentId agent : agents) {
    estimates.push_back(EstimateOutcomes(trustor, agent, task));
  }
  // Fig. 2 walk over the strategy ranking (the same RankCandidates order
  // DecideDelegation picks its winner from). Each step visits the best
  // still-willing candidate, so applying the Eq. 24 self comparison per
  // step is exactly re-deciding after every refusal: the moment the
  // strategy's best remaining candidate fails to strictly beat
  // self-execution, the trustor keeps the task.
  for (const std::size_t index :
       RankCandidates(estimates, config_.strategy)) {
    const AgentId agent = agents[index];
    const OutcomeEstimates& candidate = estimates[index];
    if (self_estimates.has_value() &&
        !ShouldDelegate(candidate, *self_estimates)) {
      self_execute();
      return result;
    }
    if (reverse_evaluator_.AcceptsDelegation(agent, trustor, task)) {
      result.trustee = agent;
      result.trustworthiness =
          TrustworthinessFromEstimates(candidate, normalizer_);
      result.expected_profit = ExpectedNetProfit(candidate);
      return result;
    }
    result.refusals.push_back(agent);
  }
  // Every candidate refused; execute the task oneself when possible.
  result.unavailable = true;
  if (self_estimates.has_value()) self_execute();
  return result;
}

void TrustEngine::ReportOutcome(AgentId trustor, AgentId trustee,
                                TaskId task,
                                const DelegationOutcome& outcome,
                                bool trustor_was_abusive,
                                const std::vector<AgentId>& intermediates) {
  // Trustor-side post-evaluation of the trustee; observation counting and
  // estimate updates live in TrustStore::RecordOutcome.
  if (config_.environment_aware) {
    const double env = environment_.ChainIndicator(
        trustor, trustee, intermediates, config_.environment_aggregation);
    store_.RecordOutcome(trustor, trustee, task, outcome, config_.beta, env);
  } else {
    store_.RecordOutcome(trustor, trustee, task, outcome, config_.beta);
  }
  // Trustee-side post-evaluation of the trustor (usage pattern record).
  reverse_evaluator_.RecordUsage(trustee, trustor, trustor_was_abusive);
}

std::optional<double> TrustEngine::DirectTrustworthiness(
    AgentId trustor, AgentId trustee, TaskId task) const {
  return store_.Trustworthiness(trustor, trustee, task, normalizer_);
}

}  // namespace siot::trust
