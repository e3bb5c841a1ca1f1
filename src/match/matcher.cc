#include "match/matcher.h"

#include <algorithm>
#include <memory>

#include "common/thread_pool.h"
#include "match/candidate_set.h"
#include "obs/trace.h"

namespace wqe {

Matcher::Matcher(const Graph& g, DistanceIndex* dist)
    : g_(g), dist_(dist), bfs_(g) {}

std::vector<Matcher::PlanStep> Matcher::BuildPlan(const PatternQuery& q) const {
  const auto mask = q.ActiveMask();
  std::vector<bool> placed(q.num_nodes(), false);
  placed[q.focus()] = true;

  std::vector<PlanStep> plan;
  bool progress = true;
  while (progress) {
    progress = false;
    // Find an unplaced active node adjacent to a placed one; among its edges
    // into the placed set, anchor on the smallest bound (smallest ball).
    for (QNodeId u = 0; u < q.num_nodes(); ++u) {
      if (placed[u] || !mask[u]) continue;
      PlanStep step;
      step.node = u;
      step.anchor = kNoQNode;
      for (const QueryEdge& e : q.edges()) {
        QNodeId other = kNoQNode;
        bool outgoing_from_anchor = false;
        if (e.from == u && placed[e.to]) {
          other = e.to;
          outgoing_from_anchor = false;  // edge u -> other
        } else if (e.to == u && placed[e.from]) {
          other = e.from;
          outgoing_from_anchor = true;  // edge other -> u
        } else {
          continue;
        }
        if (step.anchor == kNoQNode || e.bound < step.anchor_bound) {
          if (step.anchor != kNoQNode) {
            // Demote the previous anchor to a distance check.
            step.checks.push_back(
                {step.anchor, step.anchor_bound, !step.anchor_outgoing});
          }
          step.anchor = other;
          step.anchor_bound = e.bound;
          step.anchor_outgoing = outgoing_from_anchor;
        } else {
          // Check semantics: `outgoing` means pattern edge node -> other.
          step.checks.push_back({other, e.bound, !outgoing_from_anchor});
        }
      }
      if (step.anchor == kNoQNode) continue;
      placed[u] = true;
      plan.push_back(std::move(step));
      progress = true;
    }
  }
  return plan;
}

const Matcher::MatchPlan& Matcher::PlanFor(const PatternQuery& q) {
  std::string fp = q.Fingerprint();
  if (has_plan_ && fp == plan_fp_) {
    ++stats_.plan_cache_hits;
    return *plan_cache_;
  }
  if (shared_plans_ != nullptr) {
    if (auto shared = shared_plans_->Lookup(fp)) {
      plan_cache_ = std::move(shared);
      plan_fp_ = std::move(fp);
      has_plan_ = true;
      ++stats_.plan_cache_hits;
      return *plan_cache_;
    }
  }
  auto built = std::make_shared<MatchPlan>();
  built->steps = BuildPlan(q);
  built->filters = match::QueryFilterPlans::Compile(q);
  if (shared_plans_ != nullptr) shared_plans_->Publish(fp, built);
  plan_cache_ = std::move(built);
  plan_fp_ = std::move(fp);
  has_plan_ = true;
  ++stats_.plan_builds;
  return *plan_cache_;
}

bool Matcher::Extend(const MatchPlan& plan, size_t depth,
                     std::vector<NodeId>& assign, size_t limit, size_t& emitted,
                     const std::vector<const std::vector<NodeId>*>* allowed,
                     const std::function<bool(const std::vector<NodeId>&)>& cb) {
  if (depth == plan.steps.size()) {
    ++emitted;
    const bool keep_going = cb(assign);
    return keep_going && emitted < limit;
  }
  const PlanStep& step = plan.steps[depth];
  const NodeId anchor_match = assign[step.anchor];

  // Candidates of step.node inside the bounded ball around the anchor match.
  std::vector<NodeId> ball;
  auto collect = [&](NodeId w, uint32_t) {
    if (w != anchor_match) ball.push_back(w);
  };
  if (step.anchor_outgoing) {
    bfs_.Forward(anchor_match, step.anchor_bound, collect);
  } else {
    bfs_.Backward(anchor_match, step.anchor_bound, collect);
  }

  for (NodeId v : ball) {
    ++stats_.node_expansions;
    if (!plan.filters.at(step.node).Admits(g_.view(), v)) continue;
    if (allowed != nullptr && (*allowed)[step.node] != nullptr) {
      const auto& ok = *(*allowed)[step.node];
      if (!std::binary_search(ok.begin(), ok.end(), v)) continue;
    }
    // Injectivity.
    bool clash = false;
    for (NodeId a : assign) {
      if (a == v) {
        clash = true;
        break;
      }
    }
    if (clash) continue;
    // Remaining edge constraints to already-assigned nodes.
    bool ok = true;
    for (const PlanStep::Check& check : step.checks) {
      const NodeId other_match = assign[check.other];
      // Const distance path with this matcher's own BFS scratch (bfs_ is
      // between sweeps here: the ball was fully collected above), so worker
      // matchers can share one frozen DistanceIndex.
      const uint32_t d =
          check.outgoing
              ? dist_->Distance(v, other_match, check.bound, bfs_)
              : dist_->Distance(other_match, v, check.bound, bfs_);
      if (d == kInfDist) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    assign[step.node] = v;
    const bool keep_going =
        Extend(plan, depth + 1, assign, limit, emitted, allowed, cb);
    assign[step.node] = kInvalidNode;
    if (!keep_going) return false;
  }
  return true;
}

void Matcher::Valuations(
    const PatternQuery& q, NodeId focus_match, size_t limit,
    const std::function<bool(const std::vector<NodeId>&)>& cb) {
  ++stats_.focus_verifications;
  const MatchPlan& plan = PlanFor(q);
  if (!plan.filters.at(q.focus()).Admits(g_.view(), focus_match)) return;
  std::vector<NodeId> assign(q.num_nodes(), kInvalidNode);
  assign[q.focus()] = focus_match;
  size_t emitted = 0;
  Extend(plan, 0, assign, limit, emitted, nullptr, cb);
}

bool Matcher::IsMatch(const PatternQuery& q, NodeId v) {
  bool found = false;
  Valuations(q, v, 1, [&](const std::vector<NodeId>&) {
    found = true;
    return false;
  });
  return found;
}

bool Matcher::IsMatchRestricted(
    const PatternQuery& q, NodeId v,
    const std::vector<const std::vector<NodeId>*>& allowed) {
  return IsMatchRestricted(q, PlanFor(q), v, allowed);
}

bool Matcher::IsMatchRestricted(
    const PatternQuery& q, const MatchPlan& plan, NodeId v,
    const std::vector<const std::vector<NodeId>*>& allowed) {
  ++stats_.focus_verifications;
  if (!plan.filters.at(q.focus()).Admits(g_.view(), v)) return false;
  if (allowed[q.focus()] != nullptr) {
    const auto& ok = *allowed[q.focus()];
    if (!std::binary_search(ok.begin(), ok.end(), v)) return false;
  }
  std::vector<NodeId> assign(q.num_nodes(), kInvalidNode);
  assign[q.focus()] = v;
  size_t emitted = 0;
  bool found = false;
  Extend(plan, 0, assign, 1, emitted, &allowed,
         [&](const std::vector<NodeId>&) {
           found = true;
           return false;
         });
  return found;
}

std::vector<NodeId> Matcher::FocusCandidates(const PatternQuery& q) {
  const MatchPlan& plan = PlanFor(q);
  std::vector<NodeId> out = match::ComputeCandidatesCompiled(
      g_, plan.filters.at(q.focus()), &stats_.candidates_seeded);
  stats_.candidates_filtered += out.size();
  return out;
}

std::vector<NodeId> Matcher::Answer(const PatternQuery& q, size_t num_threads) {
  WQE_SPAN("match.answer");
  const std::vector<NodeId> candidates = FocusCandidates(q);
  std::vector<NodeId> out;
  const size_t threads = ResolveThreads(num_threads);
  if (threads <= 1 || candidates.size() <= 1) {
    for (NodeId v : candidates) {
      if (IsMatch(q, v)) out.push_back(v);
    }
    return out;
  }

  // Shard the candidates over worker matchers: slot 0 reuses this matcher's
  // scratch, each other slot builds its own over the shared frozen graph and
  // distance index. Verdicts land in index-addressed slots and are folded in
  // candidate order, so the answer is byte-identical to the serial loop.
  PerThread<Matcher> workers(threads, [this] {
    return std::unique_ptr<Matcher>(new Matcher(g_, dist_));
  });
  std::vector<uint8_t> is_match(candidates.size(), 0);
  ParallelFor(threads, 0, candidates.size(), /*grain=*/8,
              [&](size_t i, size_t slot) {
                Matcher& m = slot == 0 ? *this : workers.at(slot);
                is_match[i] = m.IsMatch(q, candidates[i]) ? 1 : 0;
              });
  for (size_t slot = 1; slot < threads; ++slot) {
    if (Matcher* m = workers.created(slot)) stats_.Merge(m->stats());
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (is_match[i]) out.push_back(candidates[i]);
  }
  return out;
}

}  // namespace wqe
