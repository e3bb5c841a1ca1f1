#ifndef WQE_TESTS_REFERENCE_CANDIDATES_H_
#define WQE_TESTS_REFERENCE_CANDIDATES_H_

// Interpreted reference for the candidate sets of §2.1, used as a test
// oracle against the compiled FilterPlans of the match pipeline: one
// attribute lookup per literal, deliberately NOT the merged tuple walk
// FilterPlan::AdmitsAttrs runs, so the two implementations stay independent.

#include <vector>

#include "graph/graph.h"
#include "query/query.h"

namespace wqe {

/// True iff graph node v is a candidate of query node u: labels agree
/// (⊥ matches anything) and every literal of F_Q(u) holds on v's tuple.
inline bool IsCandidate(const Graph& g, const PatternQuery& q, QNodeId u,
                        NodeId v) {
  const QueryNode& qn = q.node(u);
  if (qn.label != kWildcardSymbol && g.label(v) != qn.label) return false;
  for (const Literal& lit : qn.literals) {
    if (!lit.Matches(g, v)) return false;
  }
  return true;
}

/// Candidate set V_u, enumerated through the label index (or all nodes for
/// the ⊥ label), sorted ascending.
inline std::vector<NodeId> ComputeCandidates(const Graph& g,
                                             const PatternQuery& q,
                                             QNodeId u) {
  std::vector<NodeId> out;
  const QueryNode& qn = q.node(u);
  if (qn.label == kWildcardSymbol) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (IsCandidate(g, q, u, v)) out.push_back(v);
    }
    return out;
  }
  for (NodeId v : g.NodesWithLabel(qn.label)) {
    if (IsCandidate(g, q, u, v)) out.push_back(v);
  }
  return out;
}

/// Candidate sets for every query node (inactive nodes get empty sets).
inline std::vector<std::vector<NodeId>> AllCandidates(const Graph& g,
                                                      const PatternQuery& q) {
  std::vector<std::vector<NodeId>> out(q.num_nodes());
  const auto mask = q.ActiveMask();
  for (QNodeId u = 0; u < q.num_nodes(); ++u) {
    if (mask[u]) out[u] = ComputeCandidates(g, q, u);
  }
  return out;
}

}  // namespace wqe

#endif  // WQE_TESTS_REFERENCE_CANDIDATES_H_
