#ifndef WQE_PERFBENCH_WORKLOADS_H_
#define WQE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "chase/eval.h"

namespace perfbench {

struct RunOutcome {
  Report report;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// answ_imdb: one client asking a fixed catalog in passes.
RunOutcome RunAnswImdb(const Args& args);

/// serve_mix: open-loop traffic through serve::Server at fixed rates.
RunOutcome RunServeMix(const Args& args);

/// Sends each pool question once, one at a time, through a serve::Server
/// (concurrency 1) and reports the serve.* layer metrics for them. Used by
/// answ_imdb's traced run: a traced run reports every per-layer metric.
void ProbeServeLayer(const wqe::Graph& g, wqe::GraphIndexes& indexes,
                     const std::vector<Question>& pool, Report& report);

}  // namespace perfbench

#endif  // WQE_PERFBENCH_WORKLOADS_H_
