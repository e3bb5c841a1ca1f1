#include "match/candidates.h"

#include "match/candidate_set.h"

namespace wqe {

std::vector<NodeId> SortedDifference(const std::vector<NodeId>& a,
                                     const std::vector<NodeId>& b) {
  return match::CandidateSet::Difference(a, b);
}

std::vector<NodeId> SortedUnion(const std::vector<NodeId>& a,
                                const std::vector<NodeId>& b) {
  return match::CandidateSet::Union(a, b);
}

}  // namespace wqe
