#ifndef WQE_TESTS_REFERENCE_MATCHER_H_
#define WQE_TESTS_REFERENCE_MATCHER_H_

// Brute-force reference implementation of the §2.1 valuation semantics,
// used as a test oracle against the production Matcher / StarMatcher. It
// enumerates every injective assignment of active query nodes to graph
// nodes and checks all constraints directly — exponential, tiny inputs only.

#include <vector>

#include "graph/bfs.h"
#include "reference_candidates.h"
#include "query/query.h"

namespace wqe {

class ReferenceMatcher {
 public:
  explicit ReferenceMatcher(const Graph& g) : g_(g), bfs_(g) {}

  /// Q(G) by exhaustive enumeration.
  std::vector<NodeId> Answer(const PatternQuery& q) {
    std::vector<NodeId> out;
    const auto active = q.ActiveNodes();
    for (NodeId v : ComputeCandidates(g_, q, q.focus())) {
      std::vector<NodeId> assign(q.num_nodes(), kInvalidNode);
      assign[q.focus()] = v;
      if (Extend(q, active, 0, assign)) out.push_back(v);
    }
    return out;
  }

 private:
  bool Extend(const PatternQuery& q, const std::vector<QNodeId>& active,
              size_t idx, std::vector<NodeId>& assign) {
    if (idx == active.size()) return CheckEdges(q, assign);
    const QNodeId u = active[idx];
    if (assign[u] != kInvalidNode) return Extend(q, active, idx + 1, assign);
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      if (!IsCandidate(g_, q, u, v)) continue;
      bool used = false;
      for (QNodeId w : active) {
        if (assign[w] == v) used = true;
      }
      if (used) continue;
      assign[u] = v;
      if (Extend(q, active, idx + 1, assign)) {
        assign[u] = kInvalidNode;
        return true;
      }
      assign[u] = kInvalidNode;
    }
    return false;
  }

  bool CheckEdges(const PatternQuery& q, const std::vector<NodeId>& assign) {
    const auto mask = q.ActiveMask();
    for (const QueryEdge& e : q.edges()) {
      if (!mask[e.from] || !mask[e.to]) continue;
      if (bfs_.Distance(assign[e.from], assign[e.to], e.bound) == kInfDist) {
        return false;
      }
    }
    return true;
  }

  const Graph& g_;
  BoundedBfs bfs_;
};

}  // namespace wqe

#endif  // WQE_TESTS_REFERENCE_MATCHER_H_
