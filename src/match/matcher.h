#ifndef WQE_MATCH_MATCHER_H_
#define WQE_MATCH_MATCHER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/bfs.h"
#include "graph/distance_index.h"
#include "graph/graph.h"
#include "match/filter_plan.h"
#include "query/query.h"

namespace wqe {

/// Counters exposed for the efficiency experiments.
struct MatchStats {
  uint64_t focus_verifications = 0;  // focus candidates tested
  uint64_t node_expansions = 0;      // backtracking states visited
  uint64_t plan_builds = 0;          // match plans compiled
  uint64_t plan_cache_hits = 0;      // plans reused via the fingerprint memo
  uint64_t candidates_seeded = 0;    // label-bucket seeds into the pipeline
  uint64_t candidates_filtered = 0;  // survivors of the predicate stage

  /// Folds another thread's counters into this one (ordered reductions after
  /// parallel verification; all counters are commutative sums).
  void Merge(const MatchStats& other) {
    focus_verifications += other.focus_verifications;
    node_expansions += other.node_expansions;
    plan_builds += other.plan_builds;
    plan_cache_hits += other.plan_cache_hits;
    candidates_seeded += other.candidates_seeded;
    candidates_filtered += other.candidates_filtered;
  }
};

/// Exact evaluator for pattern queries under the extended P-homomorphism
/// semantics of §2.1: an injective valuation h maps query nodes to
/// candidates with dist(h(u), h(u')) <= L_Q(e) for every pattern edge
/// e = (u, u'). Subgraph isomorphism is the b_m = 1 special case.
///
/// The search assigns active query nodes in BFS order from the focus; each
/// new node draws its candidates from the bounded ball around an
/// already-assigned pattern neighbor, then checks every other assigned
/// neighbor through the distance index.
///
/// Candidate filtering runs through the compiled match pipeline: every
/// per-node probe goes through the query's FilterPlans (label stage + one
/// merged tuple walk), and focus candidates are produced stage by stage
/// (label-bucket seed → batch predicate filter) over a selection vector.
class Matcher {
 public:
  class SharedPlans;

  Matcher(const Graph& g, DistanceIndex* dist);

  /// Attaches a cross-matcher plan memo (may be null to detach). The memo is
  /// thread-safe, so matchers serving concurrent requests against the same
  /// frozen graph can share it: a query shape planned by any request is never
  /// re-planned by another. The pointee must outlive this matcher.
  void set_shared_plans(SharedPlans* plans) { shared_plans_ = plans; }

  /// The answer Q(G): all matches of the focus u_o. With num_threads > 1
  /// (0 = hardware concurrency) the focus candidates are sharded over worker
  /// matchers — each with its own BFS scratch over the shared frozen graph
  /// and distance index — and merged in candidate order, so the result is
  /// byte-identical to the serial path.
  std::vector<NodeId> Answer(const PatternQuery& q, size_t num_threads = 1);

  /// The focus candidate set V_{u_o}, sorted ascending: label-bucket seed +
  /// compiled predicate stage. Bumps candidates_seeded/_filtered.
  std::vector<NodeId> FocusCandidates(const PatternQuery& q);

  /// Whether some valuation maps the focus to `v`.
  bool IsMatch(const PatternQuery& q, NodeId v);

  struct PlanStep {
    QNodeId node = kNoQNode;    // query node to assign
    QNodeId anchor = kNoQNode;  // already-assigned neighbor to expand from
    uint32_t anchor_bound = 0;  // bound of the anchor edge
    bool anchor_outgoing = true;  // true: anchor -> node; false: node -> anchor
    // Other edges from `node` to already-assigned nodes (checked via dist).
    struct Check {
      QNodeId other;
      uint32_t bound;
      bool outgoing;  // true: edge node -> other
    };
    std::vector<Check> checks;
  };

  /// One compiled match plan: the BFS assignment order plus the per-node
  /// filter plans, built together once per query fingerprint and shared
  /// immutably through SharedPlans.
  struct MatchPlan {
    std::vector<PlanStep> steps;
    match::QueryFilterPlans filters;
  };

  /// The plan for `q`, memoized by query fingerprint: Answer / star-view
  /// verification run one IsMatch per focus candidate against the *same*
  /// rewrite, so consecutive calls reuse one plan instead of rebuilding it.
  /// Batch verifiers should hoist this call out of their candidate loop and
  /// use the plan-taking IsMatchRestricted overload: the memo probe hashes
  /// the query fingerprint, which is noise when repeated per candidate. The
  /// reference stays valid until the next PlanFor call on this matcher.
  const MatchPlan& PlanFor(const PatternQuery& q);

  /// Like IsMatch, but restricts every query node u to `allowed[u]` when
  /// that set is non-null — the hook star-view pruning uses.
  bool IsMatchRestricted(
      const PatternQuery& q, NodeId v,
      const std::vector<const std::vector<NodeId>*>& allowed);

  /// Same, against a plan the caller already holds (hoisted via PlanFor):
  /// the per-candidate cost is the probe itself, no memo traffic. `plan`
  /// must have been compiled for `q`.
  bool IsMatchRestricted(
      const PatternQuery& q, const MatchPlan& plan, NodeId v,
      const std::vector<const std::vector<NodeId>*>& allowed);

  /// Enumerates complete valuations with h(focus) = focus_match, invoking
  /// `cb` with the assignment (indexed by QNodeId; kInvalidNode on inactive
  /// nodes). Stops when cb returns false or `limit` valuations were emitted.
  void Valuations(const PatternQuery& q, NodeId focus_match, size_t limit,
                  const std::function<bool(const std::vector<NodeId>&)>& cb);

  MatchStats& stats() { return stats_; }
  const Graph& graph() const { return g_; }
  DistanceIndex& dist() { return *dist_; }

 private:
  /// Builds the BFS assignment plan for the active pattern. Returns false if
  /// the focus is inactive (cannot happen: focus defines activity).
  std::vector<PlanStep> BuildPlan(const PatternQuery& q) const;

  bool Extend(const MatchPlan& plan, size_t depth, std::vector<NodeId>& assign,
              size_t limit, size_t& emitted,
              const std::vector<const std::vector<NodeId>*>* allowed,
              const std::function<bool(const std::vector<NodeId>&)>& cb);

  const Graph& g_;
  DistanceIndex* dist_;
  BoundedBfs bfs_;
  MatchStats stats_;
  SharedPlans* shared_plans_ = nullptr;

  // Single-entry plan memo keyed by query fingerprint. Holds a shared_ptr so
  // a plan pulled from (or published to) the cross-matcher memo stays alive
  // here even if the memo later drops it.
  bool has_plan_ = false;
  std::string plan_fp_;
  std::shared_ptr<const MatchPlan> plan_cache_;
};

/// Cross-matcher match-plan memo keyed by query fingerprint. Plans — the
/// assignment order plus the compiled per-node filters — are pure functions
/// of the (rewritten) pattern, so every matcher touching the same shape —
/// across requests, threads, and worker shards — can reuse one immutable
/// plan instead of recompiling it. All methods are thread-safe; published
/// plans are immutable and handed out by shared_ptr, so readers never
/// observe a partially built plan.
class Matcher::SharedPlans {
 public:
  /// `max_plans` bounds memory: once full, new shapes are still planned and
  /// used locally but not published (matchers keep their own single-entry
  /// memo, so steady-state traffic over a bounded shape set is unaffected).
  explicit SharedPlans(size_t max_plans = 4096) : max_plans_(max_plans) {}

  SharedPlans(const SharedPlans&) = delete;
  SharedPlans& operator=(const SharedPlans&) = delete;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return plans_.size();
  }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t publishes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return publishes_;
  }

 private:
  friend class Matcher;

  std::shared_ptr<const MatchPlan> Lookup(const std::string& fp) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(fp);
    if (it == plans_.end()) return nullptr;
    ++hits_;
    return it->second;
  }

  void Publish(const std::string& fp, std::shared_ptr<const MatchPlan> plan) {
    std::lock_guard<std::mutex> lock(mu_);
    if (plans_.size() >= max_plans_ && plans_.find(fp) == plans_.end()) return;
    auto [it, inserted] = plans_.emplace(fp, std::move(plan));
    (void)it;
    if (inserted) ++publishes_;  // first publisher wins; racers reuse theirs
  }

  mutable std::mutex mu_;
  size_t max_plans_;
  uint64_t hits_ = 0;
  uint64_t publishes_ = 0;
  std::unordered_map<std::string, std::shared_ptr<const MatchPlan>> plans_;
};

}  // namespace wqe

#endif  // WQE_MATCH_MATCHER_H_
