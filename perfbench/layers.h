#ifndef WQE_PERFBENCH_LAYERS_H_
#define WQE_PERFBENCH_LAYERS_H_

// Per-layer measurement for the traced runs. Spans are opened here, in
// benchmark code, around calls into each layer's public functions; the
// library itself is not instrumented further. Counters and the phase
// breakdown come from what the library already exports.

#include <string>
#include <vector>

#include "bench.h"
#include "chase/eval.h"
#include "obs/observability.h"

namespace perfbench {

/// Replays each question's layer calls under spans, in pool order, until
/// `budget_seconds` have passed (at least one question):
///   chase.context      ChaseContext constructor
///   exemplar.rep       ComputeRep over the focus universe
///   match.evaluate     StarMatcher::Evaluate of the asked query (cold cache)
///   match.focus_candidates / match.resolve_tables / match.verify
///                      the same evaluation step by step (cold cache)
///   ops.refine / ops.relax          GenerateRefineOps / GenerateRelaxOps
///   chase.delta_refine / chase.delta_relax
///                      DeltaEvaluator::Evaluate on root children
///   exemplar.classify  Classify per evaluated rewrite
/// and adds the per-call figures to `report`.
void ReplayLayers(const wqe::Graph& g, wqe::GraphIndexes& indexes,
                  const std::vector<Question>& pool, double budget_seconds,
                  Report& report);

/// Waste ratios from the library's metric registry: delta.reverify_frac,
/// chase.memo_hit_rate, match.filter_selectivity, match.plan_hit_rate,
/// cache.hit_rate and chase.evaluations_per_question.
void ReportWasteRatios(const wqe::obs::MetricsRegistry& metrics,
                       double questions, Report& report);

/// ChaseStats::phases self times as shares of the solves' wall time.
void ReportPhaseShares(const std::vector<wqe::obs::PhaseStat>& phases,
                       Report& report);

/// Writes a store bundle for `g` under `dir` and times OpenServingState on
/// it (median of a few opens), in seconds.
double TimeBundleOpen(const wqe::Graph& g, const wqe::GraphIndexes& indexes,
                      const std::string& dir);

/// Directory for the run's temporary files, inside the build directory of
/// the checkout; created empty.
std::string MakeTempDir(const std::string& name);
void RemoveTempDir(const std::string& dir);

}  // namespace perfbench

#endif  // WQE_PERFBENCH_LAYERS_H_
