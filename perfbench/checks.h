#ifndef WQE_PERFBENCH_CHECKS_H_
#define WQE_PERFBENCH_CHECKS_H_

// Answer checks, run outside the timed region. Each reported best answer is
// recomputed through the library's plain paths:
//   1. Matcher::Answer(best.rewrite) equals the reported matches;
//   2. Classify(...).AnswerCloseness(λ) equals the reported closeness;
//   3. the rewrite's cost (reported, and recomputed from its operators) is
//      within the budget B;
//   4. repeated answers to one question are byte-identical (AnswerDigest).
// The same pass yields the quality figures of the answer.

#include <string>

#include "bench.h"
#include "chase/eval.h"

namespace perfbench {

struct Checked {
  std::string failure;  // empty = every check passed
  /// (cl(Q'(G), ℰ) + λ) / (cl* + λ): the answer's closeness on a [0, 1]
  /// scale, 1 at the optimum cl* and 0 when every candidate is an
  /// irrelevant match (cl = −λ).
  double closeness = 0;
  double delta = 0;  // answer Jaccard against the ground truth
  bool satisfied = false;
};

class AnswerChecker {
 public:
  /// `indexes` must be built for `g` and outlive the checker.
  AnswerChecker(const wqe::Graph& g, wqe::GraphIndexes& indexes);

  Checked Check(const Question& q, const wqe::Response& r) const;

 private:
  const wqe::Graph& g_;
  wqe::GraphIndexes& indexes_;
};

/// Canonical bytes of a response's answers: rewrite fingerprints, operator
/// kinds, matches and the exact bits of closeness and cost.
std::string AnswerDigest(const wqe::Response& r);

/// Corrupts copies of genuine responses one way at a time and confirms that
/// the checks catch each corruption. Returns the process exit code.
int RunSelfTest();

}  // namespace perfbench

#endif  // WQE_PERFBENCH_CHECKS_H_
