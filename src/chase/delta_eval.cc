#include "chase/delta_eval.h"

#include <functional>
#include <utility>

#include "match/candidate_set.h"

namespace wqe {

DeltaEvaluator::DeltaEvaluator(ChaseContext& ctx) : ctx_(ctx) {
  obs::Observability& o = ctx.obs();
  c_delta_hits_ = &o.metrics.counter("delta_eval.hits");
  c_full_fallbacks_ = &o.metrics.counter("delta_eval.full_fallbacks");
  c_reuse_hits_ = &o.metrics.counter("delta_eval.reuse_hits");
  c_reverified_ = &o.metrics.counter("delta_eval.reverified");
  c_skipped_ = &o.metrics.counter("delta_eval.skipped");
  h_reverify_ns_ = &o.metrics.histogram("delta_eval.reverify_ns");
}

DeltaEvaluator::DeltaClass DeltaEvaluator::ClassifyDelta(
    const std::vector<Op>& applied) {
  // Polarity is the only thing that matters: the answer-set inclusions
  // Q(G) ⊆ Q'(G) (relax) and Q'(G) ⊆ Q(G) (refine) hold for operators on
  // *any* pattern node, the focus included — a homomorphism of the tighter
  // query restricts to one of the looser query regardless of which node the
  // operator touched, and both delta paths re-verify their candidates
  // exactly against the child query. Ops that shift the focus candidate
  // space (focus literals, focus-incident edges) merely shrink the reuse,
  // never the correctness.
  if (applied.empty()) return DeltaClass::kFull;
  bool all_relax = true;
  bool all_refine = true;
  for (const Op& op : applied) {
    if (op.is_noop()) return DeltaClass::kFull;
    all_relax = all_relax && op.is_relax();
    all_refine = all_refine && op.is_refine();
  }
  if (all_relax) return DeltaClass::kRelax;
  if (all_refine) return DeltaClass::kRefine;
  return DeltaClass::kFull;  // mixed polarity: neither inclusion holds
}

std::vector<NodeId> DeltaEvaluator::RelaxDelta(
    const PatternQuery& q, const EvalResult& parent,
    std::shared_ptr<const StarEvalState>* state) {
  StarMatcher& sm = ctx_.star_matcher();
  // Relaxation may enlarge the candidate space, so every star table is
  // needed at full strength: reuse unchanged ones, materialize the rest.
  const uint64_t reuse_before = sm.stats().reuse_hits;
  auto st = sm.ResolveTables(q, parent.star_state.get(),
                             /*materialize_missing=*/true);
  c_reuse_hits_->Inc(sm.stats().reuse_hits - reuse_before);
  const auto allowed = sm.AllowedSets(q, *st);

  std::vector<NodeId> candidates;
  if (allowed[q.focus()].has_value()) {
    candidates = *allowed[q.focus()];
  } else {
    candidates = sm.FocusCandidates(q).Take();
  }
  // Q(G) ⊆ Q'(G): the parent's matches are child matches already — only
  // candidates outside them can change verdict.
  std::vector<NodeId> to_verify =
      match::CandidateSet::Difference(candidates, parent.matches);
  c_skipped_->Inc(parent.matches.size());
  c_reverified_->Inc(to_verify.size());

  std::function<double(NodeId)> priority = [this](NodeId v) {
    return ctx_.rep().ClosenessOf(v);
  };
  const uint64_t t0 = obs::MonotonicNowNs();
  std::vector<NodeId> verified =
      sm.VerifyCandidates(q, std::move(to_verify), allowed, &priority);
  h_reverify_ns_->Observe(obs::MonotonicNowNs() - t0);

  *state = std::move(st);
  return match::CandidateSet::Union(parent.matches, verified);
}

std::vector<NodeId> DeltaEvaluator::RefineDelta(
    const PatternQuery& q, const EvalResult& parent,
    std::shared_ptr<const StarEvalState>* state) {
  StarMatcher& sm = ctx_.star_matcher();
  // Q'(G) ⊆ Q(G): only the parent's matches can survive, and verification
  // is complete without any table — so take tables opportunistically (reuse
  // or a cache peek) and never pay a materialization. Absent tables merely
  // filter less before the exact checks.
  const uint64_t reuse_before = sm.stats().reuse_hits;
  auto st = sm.ResolveTables(q, parent.star_state.get(),
                             /*materialize_missing=*/false);
  c_reuse_hits_->Inc(sm.stats().reuse_hits - reuse_before);
  const auto allowed = sm.AllowedSets(q, *st);

  // Pre-filter: a child match must occur in the focus position of every
  // child star table we do hold.
  std::vector<NodeId> candidates;
  candidates.reserve(parent.matches.size());
  for (NodeId v : parent.matches) {
    bool viable = true;
    for (const auto& table : st->tables) {
      if (table != nullptr && !table->ContainsFocusOccurrence(v)) {
        viable = false;
        break;
      }
    }
    if (viable) candidates.push_back(v);
  }
  c_skipped_->Inc(parent.matches.size() - candidates.size());
  c_reverified_->Inc(candidates.size());

  std::function<double(NodeId)> priority = [this](NodeId v) {
    return ctx_.rep().ClosenessOf(v);
  };
  const uint64_t t0 = obs::MonotonicNowNs();
  std::vector<NodeId> verified =
      sm.VerifyCandidates(q, std::move(candidates), allowed, &priority);
  h_reverify_ns_->Observe(obs::MonotonicNowNs() - t0);

  *state = std::move(st);
  return verified;
}

std::shared_ptr<EvalResult> DeltaEvaluator::Evaluate(
    const PatternQuery& q, OpSequence ops, const EvalResult* parent,
    const std::vector<Op>& applied) {
  const DeltaClass cls =
      parent == nullptr ? DeltaClass::kFull : ClassifyDelta(applied);
  if (cls == DeltaClass::kFull) {
    c_full_fallbacks_->Inc();
    return ctx_.Evaluate(q, std::move(ops));
  }

  return ctx_.EvaluateWith(
      q, std::move(ops), [&](std::shared_ptr<const StarEvalState>* state) {
        c_delta_hits_->Inc();
        return cls == DeltaClass::kRelax ? RelaxDelta(q, *parent, state)
                                         : RefineDelta(q, *parent, state);
      });
}

}  // namespace wqe
