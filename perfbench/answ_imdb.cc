// answ_imdb: one client asks a fixed catalog of §7 Why-questions in whole
// passes (closed loop, one request in flight, num_threads = 1), each
// question against a fresh ChaseContext over prebuilt graph indexes — the
// §7 experimental set-up.

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>

#include "checks.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "layers.h"
#include "workload/suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

// A fixed catalog: the per-question cost of §7 questions spans four orders
// of magnitude, so no seed-drawn sample that fits a run is steady. The
// first 44 questions of catalog 1 stop just short of two that take over
// 6 s each; they make a pass of 8-16 s on a shared 4-vCPU virtual machine.
constexpr size_t kCatalogSize = 44;
// Nominal seconds per pass, with room for a slow machine; --seconds /
// nominal fixes the number of passes, so the work of a run does not depend
// on the machine's speed.
constexpr double kPassSeconds = 20;
constexpr int kSetupRepeats = 41;

struct Asked {
  wqe::Response response;
  double seconds = 0;
  size_t universe = 0;
};

Asked Ask(const wqe::Graph& g, wqe::GraphIndexes& indexes, const Question& q,
          wqe::obs::Observability* o, SpanLog* log, uint64_t id) {
  Asked a;
  wqe::ChaseOptions opts = q.options;
  opts.observability = o;
  wqe::Timer timer;
  if (log == nullptr) {
    wqe::ChaseContext ctx(g, &indexes, q.c.question, opts);
    a.response = wqe::ExecuteWithContext(ctx, q.algorithm);
    a.seconds = timer.ElapsedSeconds();
    a.universe = ctx.focus_universe().size();
    return a;
  }
  SpanLog::Scope question(log, "question", id);
  std::unique_ptr<wqe::ChaseContext> ctx;
  {
    SpanLog::Scope s(log, "chase.context", id);
    ctx = std::make_unique<wqe::ChaseContext>(g, &indexes, q.c.question, opts);
  }
  {
    SpanLog::Scope s(log, "solve", id);
    a.response = wqe::ExecuteWithContext(*ctx, q.algorithm);
  }
  a.seconds = timer.ElapsedSeconds();
  a.universe = ctx->focus_universe().size();
  return a;
}

}  // namespace

RunOutcome RunAnswImdb(const Args& args) {
  RunOutcome out;
  Report& report = out.report;

  // Set-up: load the dataset and build its graph indexes, several times.
  std::vector<double> setup, index_build;
  std::unique_ptr<wqe::Graph> g;
  std::unique_ptr<wqe::GraphIndexes> indexes;
  for (int i = 0; i < kSetupRepeats; ++i) {
    indexes.reset();
    g.reset();
    wqe::Timer t;
    g = std::make_unique<wqe::Graph>(
        wqe::GenerateGraph(wqe::ImdbLike(0.25)));
    wqe::Timer build;
    indexes = std::make_unique<wqe::GraphIndexes>(*g, 1);
    index_build.push_back(build.ElapsedSeconds());
    setup.push_back(t.ElapsedSeconds());
  }

  const wqe::ChaseOptions base = PaperChaseOptions();
  const wqe::AlgoSpec spec =
      args.config == "answb" ? wqe::MakeAnsWb(base) : wqe::MakeAnsW(base);
  wqe::Timer generation;
  std::vector<wqe::BenchCase> cases = MakeCatalog(*g, kCatalogSize, args.catalog_seed);
  std::shuffle(cases.begin(), cases.end(), std::mt19937_64(MixSeed(args.seed, 7)));
  std::vector<Question> pool;
  for (wqe::BenchCase& c : cases) {
    pool.push_back({std::move(c), spec.algo, spec.opts});
  }
  report.Note(args.workload + ": " + std::to_string(pool.size()) + " " + spec.name +
              " questions, catalog seed " + std::to_string(args.catalog_seed) +
              ", order seed " + std::to_string(args.seed) + ", generated in " +
              std::to_string(generation.ElapsedSeconds()) + " s");

  // Timed passes. The untraced run asks the catalog in a fixed number of
  // passes (at least two, for the repeat check), timing every ask. The
  // traced run asks every question twice per pass, once with spans and once
  // without, in alternating order, so slow drift of the machine cancels out
  // of the overhead estimate.
  wqe::obs::Observability registry;
  SpanLog log;
  std::vector<wqe::Response> first(pool.size());
  std::vector<std::string> digest(pool.size());
  std::vector<size_t> universe(pool.size());
  std::vector<std::vector<double>> latency(pool.size());  // per question, per untraced ask
  std::vector<wqe::obs::PhaseStat> phases;
  std::vector<uint64_t> failed_asks(pool.size(), 0);
  size_t asks = 0;
  double untraced = 0, traced = 0;
  const size_t asks_per_question = args.trace ? 2 : 1;
  // The traced run asks the catalog in one pass (twice per question).
  const double nominal_passes = args.seconds * (args.trace ? 0.3 : 1.0) / kPassSeconds;
  const size_t passes =
      std::max<size_t>(args.trace ? 1 : 2, static_cast<size_t>(std::lround(nominal_passes)));
  for (size_t pass = 0; pass < passes; ++pass) {
    for (size_t i = 0; i < pool.size(); ++i) {
      for (size_t k = 0; k < asks_per_question; ++k) {
        const bool with_spans = args.trace && (i + pass + k) % 2 == 1;
        Asked a = Ask(*g, *indexes, pool[i], &registry, with_spans ? &log : nullptr, i);
        ++asks;
        if (with_spans) {
          traced += a.seconds;
          wqe::obs::MergePhases(phases, a.response.result.stats.phases);
        } else {
          untraced += a.seconds;
          latency[i].push_back(a.seconds);
        }
        const bool bad_status =
            !a.response.ok() ||
            a.response.result.termination() == wqe::TerminationReason::kDeadline;
        std::string d = AnswerDigest(a.response);
        if (pass == 0 && k == 0) {
          digest[i] = std::move(d);
          universe[i] = a.universe;
          first[i] = std::move(a.response);
        } else if (d != digest[i]) {
          ++failed_asks[i];  // answers differ between repeats
          continue;
        }
        if (bad_status) ++failed_asks[i];
      }
    }
  }
  const double peak_rss = PeakRssMb();

  // Answer checks, outside the timed region, on each question's first answer
  // (later ones are byte-identical to it or already counted as failures).
  wqe::Timer checking;
  const AnswerChecker checker(*g, *indexes);
  std::vector<Checked> checked(pool.size());
  wqe::ParallelFor(4, 0, pool.size(), 1, [&](size_t i, size_t) {
    checked[i] = checker.Check(pool[i], first[i]);
  });
  std::vector<double> closeness, delta;
  size_t satisfied = 0, check_failures = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const Checked& c = checked[i];
    if (!c.failure.empty()) {
      ++check_failures;
      failed_asks[i] = passes * asks_per_question;
      report.Note("check failed on question " + std::to_string(i) + ": " + c.failure);
    }
    closeness.push_back(c.closeness);
    delta.push_back(c.delta);
    if (c.satisfied) ++satisfied;
  }
  out.attempted = asks;
  for (uint64_t f : failed_asks) out.failed += f;
  out.correct = out.failed == 0;
  report.Note("answer checks: " + std::to_string(pool.size() - check_failures) + "/" +
              std::to_string(pool.size()) + " questions pass; " +
              std::to_string(passes) + " passes, " + std::to_string(out.failed) +
              " failed asks of " + std::to_string(out.attempted) + " -> " +
              (out.correct ? "PASS" : "FAIL") + " (checked in " +
              std::to_string(checking.ElapsedSeconds()) + " s)");

  // Traffic properties of this pool.
  std::vector<double> universe_sizes(universe.begin(), universe.end());
  uint64_t evaluations = 0, memo_hits = 0;
  for (const wqe::Response& r : first) {
    evaluations += r.result.stats.evaluations;
    memo_hits += r.result.stats.memo_hits;
  }
  std::map<std::string, uint64_t> counters;
  registry.metrics.ForEachCounter(
      [&counters](const std::string& n, uint64_t v) { counters[n] = v; });
  const double n = static_cast<double>(pool.size());
  char line[256];
  std::snprintf(line, sizeof(line),
                "traffic: evaluations/question %.2f, memo hit rate %.4f, "
                "delta.reverify_frac %.4f, mean |V_uo| %.1f",
                static_cast<double>(evaluations) / n,
                memo_hits + evaluations == 0
                    ? 0.0
                    : static_cast<double>(memo_hits) /
                          static_cast<double>(memo_hits + evaluations),
                counters["match.focus_verified"] == 0
                    ? 0.0
                    : static_cast<double>(counters["delta_eval.reverified"]) /
                          static_cast<double>(counters["match.focus_verified"]),
                Mean(universe_sizes));
  report.Note(line);

  if (!args.trace) {
    // Each question's latency is its fastest ask: other tenants of the
    // machine only ever add time, and the least disturbed repeat is the
    // steadiest estimate of what the question costs.
    std::vector<double> per_question;
    double pass = 0;
    for (const auto& l : latency) {
      per_question.push_back(*std::min_element(l.begin(), l.end()));
      pass += per_question.back();
    }
    const double qps = n / pass;
    report.Add("setup_s", Median(setup), "s", setup.size());
    report.Add("questions_per_s", qps, "1/s", pool.size());
    report.Add("latency_p50_ms", Quantile(per_question, 0.5) * 1e3, "ms", per_question.size());
    report.Add("latency_p90_ms", Quantile(per_question, 0.9) * 1e3, "ms", per_question.size());
    // One client in a closed loop: the rate it sustains.
    report.Add("max_rate_qps", qps, "1/s", pool.size());
    report.Add("peak_rss_mb", peak_rss, "MiB");
    report.Add("closeness_mean", Mean(closeness), "ratio", pool.size());
    report.Add("satisfied_frac", static_cast<double>(satisfied) / n, "ratio", pool.size());
    report.Add("delta_mean", Mean(delta), "ratio", pool.size());
    report.Add("ok_frac",
               1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
               "ratio", out.attempted);
    return out;
  }

  // Traced run: per-layer figures. The counters cover every ask; the phase
  // shares cover the asks with spans.
  report.Add("graph.index_build_s", Median(index_build), "s", index_build.size());
  const std::string temp = MakeTempDir(args.workload);
  report.Add("store.bundle_open_s", TimeBundleOpen(*g, *indexes, temp), "s");
  RemoveTempDir(temp);
  ReplayLayers(*g, *indexes, pool, args.seconds * 0.3, report);
  ReportWasteRatios(registry.metrics, static_cast<double>(asks), report);
  ReportPhaseShares(phases, report);
  ProbeServeLayer(*g, *indexes, pool, report);
  report.Add("obs.trace_overhead_frac", untraced > 0 ? traced / untraced - 1.0 : 0,
             "ratio", asks / 2);
  return out;
}

}  // namespace perfbench
