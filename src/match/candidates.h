#ifndef WQE_MATCH_CANDIDATES_H_
#define WQE_MATCH_CANDIDATES_H_

#include <vector>

#include "graph/graph.h"

namespace wqe {

/// a \ b over ascending sorted NodeId vectors. The delta evaluation path
/// (chase/delta_eval) verifies only `candidates \ parent_matches` after a
/// relaxation — the parent's matches carry over by monotonicity.
std::vector<NodeId> SortedDifference(const std::vector<NodeId>& a,
                                     const std::vector<NodeId>& b);

/// a ∪ b over ascending sorted NodeId vectors (duplicates collapse) — merges
/// inherited parent matches with the newly verified ones.
std::vector<NodeId> SortedUnion(const std::vector<NodeId>& a,
                                const std::vector<NodeId>& b);

}  // namespace wqe

#endif  // WQE_MATCH_CANDIDATES_H_
