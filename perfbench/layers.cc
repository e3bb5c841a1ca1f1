#include "layers.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>

#include "chase/delta_eval.h"
#include "chase/picky_refine.h"
#include "chase/picky_relax.h"
#include "common/timer.h"
#include "exemplar/relevance.h"
#include "store/artifact_store.h"
#include "store/serde.h"

namespace perfbench {

namespace {

// Root children replayed through the delta evaluator per operator class:
// the top-ranked operators, as the chase polls them first.
constexpr size_t kChildrenPerClass = 4;

double PerCall(const std::map<std::string, SpanLog::Layer>& layers,
               const char* name, double scale) {
  auto it = layers.find(name);
  if (it == layers.end() || it->second.count == 0) return 0;
  return it->second.self_seconds * scale / static_cast<double>(it->second.count);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void ReplayLayers(const wqe::Graph& g, wqe::GraphIndexes& indexes,
                  const std::vector<Question>& pool, double budget_seconds,
                  Report& report) {
  SpanLog log;
  uint64_t verified_candidates = 0;
  std::vector<double> universe_sizes;
  wqe::Timer timer;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (i > 0 && timer.ElapsedSeconds() >= budget_seconds) break;
    const Question& q = pool[i];
    const wqe::WhyQuestion& w = q.c.question;
    SpanLog::Scope question(&log, "question", i);

    std::unique_ptr<wqe::ChaseContext> ctx;
    {
      SpanLog::Scope s(&log, "chase.context", i);
      ctx = std::make_unique<wqe::ChaseContext>(g, &indexes, w, q.options);
    }
    wqe::RepResult rep;
    {
      SpanLog::Scope s(&log, "exemplar.rep", i);
      rep = wqe::ComputeRep(ctx->closeness(), w.exemplar, ctx->focus_universe());
    }
    universe_sizes.push_back(static_cast<double>(ctx->focus_universe().size()));
    const std::function<double(wqe::NodeId)> priority =
        [&rep](wqe::NodeId v) { return rep.ClosenessOf(v); };

    // The match layer on the asked query, each call against a cold cache.
    {
      wqe::ViewCache cache;
      wqe::StarMatcher sm(g, &indexes.dist, &cache);
      SpanLog::Scope s(&log, "match.evaluate", i);
      sm.Evaluate(w.query, &priority);
    }
    {
      wqe::ViewCache cache;
      wqe::StarMatcher sm(g, &indexes.dist, &cache);
      std::vector<wqe::NodeId> candidates;
      {
        SpanLog::Scope s(&log, "match.focus_candidates", i);
        candidates = sm.FocusCandidates(w.query).Take();
      }
      std::shared_ptr<const wqe::StarEvalState> state;
      {
        SpanLog::Scope s(&log, "match.resolve_tables", i);
        state = sm.ResolveTables(w.query, nullptr, /*materialize_missing=*/true);
      }
      const auto allowed = sm.AllowedSets(w.query, *state);
      if (allowed[w.query.focus()].has_value()) {
        candidates = *allowed[w.query.focus()];
      }
      verified_candidates += candidates.size();
      SpanLog::Scope s(&log, "match.verify", i);
      sm.VerifyCandidates(w.query, std::move(candidates), allowed, &priority);
    }

    const std::shared_ptr<wqe::EvalResult> root = ctx->root();
    {
      SpanLog::Scope s(&log, "exemplar.classify", i);
      wqe::Classify(ctx->focus_universe(), root->matches, rep);
    }
    std::vector<wqe::ScoredOp> refine, relax;
    {
      SpanLog::Scope s(&log, "ops.refine", i);
      refine = wqe::GenerateRefineOps(*ctx, *root);
    }
    {
      SpanLog::Scope s(&log, "ops.relax", i);
      relax = wqe::GenerateRelaxOps(*ctx, *root);
    }
    wqe::DeltaEvaluator delta(*ctx);
    auto children = [&](const std::vector<wqe::ScoredOp>& ops,
                        const char* span) {
      size_t done = 0;
      for (const wqe::ScoredOp& scored : ops) {
        if (done == kChildrenPerClass) break;
        wqe::PatternQuery child = root->query;
        if (!wqe::Apply(scored.op, &child, q.options.max_bound)) continue;
        ++done;
        std::shared_ptr<wqe::EvalResult> eval;
        {
          SpanLog::Scope s(&log, span, i);
          eval = delta.Evaluate(child, wqe::OpSequence({scored.op}), root.get(),
                                {scored.op});
        }
        SpanLog::Scope s(&log, "exemplar.classify", i);
        wqe::Classify(ctx->focus_universe(), eval->matches, rep);
      }
    };
    children(refine, "chase.delta_refine");
    children(relax, "chase.delta_relax");
  }

  const auto layers = log.Summarize();
  const auto questions = layers.find("question");
  const size_t replayed = questions == layers.end() ? 0 : questions->second.count;
  report.Note("layer replay over " + std::to_string(replayed) + " questions, " +
              std::to_string(log.size()) + " spans");
  report.Add("chase.context_ms", PerCall(layers, "chase.context", 1e3), "ms", replayed);
  report.Add("exemplar.rep_ms", PerCall(layers, "exemplar.rep", 1e3), "ms", replayed);
  report.Add("exemplar.universe_size", Mean(universe_sizes), "count", replayed);
  report.Add("exemplar.classify_us", PerCall(layers, "exemplar.classify", 1e6), "us");
  report.Add("match.focus_candidates_us",
             PerCall(layers, "match.focus_candidates", 1e6), "us", replayed);
  report.Add("match.resolve_tables_us",
             PerCall(layers, "match.resolve_tables", 1e6), "us", replayed);
  const auto verify = layers.find("match.verify");
  report.Add("match.verify_us_per_candidate",
             verify == layers.end()
                 ? 0
                 : verify->second.self_seconds * 1e6 /
                       static_cast<double>(std::max<uint64_t>(verified_candidates, 1)),
             "us", verified_candidates);
  report.Add("match.evaluate_us", PerCall(layers, "match.evaluate", 1e6), "us", replayed);
  report.Add("chase.delta_refine_us", PerCall(layers, "chase.delta_refine", 1e6), "us");
  report.Add("chase.delta_relax_us", PerCall(layers, "chase.delta_relax", 1e6), "us");
  report.Add("ops.refine_us", PerCall(layers, "ops.refine", 1e6), "us", replayed);
  report.Add("ops.relax_us", PerCall(layers, "ops.relax", 1e6), "us", replayed);
}

void ReportWasteRatios(const wqe::obs::MetricsRegistry& metrics,
                       double questions, Report& report) {
  std::map<std::string, uint64_t> c;
  metrics.ForEachCounter(
      [&c](const std::string& name, uint64_t value) { c[name] = value; });
  report.Add("delta.reverify_frac",
             Ratio(c["delta_eval.reverified"], c["match.focus_verified"]), "ratio");
  report.Add("chase.memo_hit_rate",
             Ratio(c["chase.memo_hits"], c["chase.memo_hits"] + c["chase.evaluations"]),
             "ratio");
  report.Add("match.filter_selectivity",
             Ratio(c["match.stage.filtered"], c["match.stage.seeded"]), "ratio");
  report.Add("match.plan_hit_rate",
             Ratio(c["match.plan.hits"], c["match.plan.hits"] + c["match.plan.compiles"]),
             "ratio");
  report.Add("cache.hit_rate",
             Ratio(c["cache.hits"], c["cache.hits"] + c["cache.misses"]), "ratio");
  report.Add("chase.evaluations_per_question",
             questions > 0 ? static_cast<double>(c["chase.evaluations"]) / questions : 0,
             "count");
}

void ReportPhaseShares(const std::vector<wqe::obs::PhaseStat>& phases,
                       Report& report) {
  double solve_wall = 0;
  std::map<std::string, double> self;
  for (const wqe::obs::PhaseStat& p : phases) {
    if (p.name.rfind("solve.", 0) == 0) solve_wall += p.wall_seconds;
    self[p.name] += p.self_seconds;
  }
  auto share = [&](const char* phase) {
    return solve_wall > 0 ? self[phase] / solve_wall : 0;
  };
  report.Add("phase.match.verify", share("match.verify"), "share");
  report.Add("phase.match.stars", share("match.stars"), "share");
  report.Add("phase.chase.evaluate_self", share("chase.evaluate"), "share");
  report.Add("phase.ops.refine", share("ops.refine"), "share");
}

double TimeBundleOpen(const wqe::Graph& g, const wqe::GraphIndexes& indexes,
                      const std::string& dir) {
  wqe::store::ArtifactStore store(dir, wqe::store::Serde::GraphFingerprint(g));
  wqe::DistanceIndex::Options opts;
  if (!store.SaveBundle(g, indexes.adom, indexes.diameter, indexes.dist, opts).ok()) {
    return 0;
  }
  std::vector<double> opens;
  for (int i = 0; i < 5; ++i) {
    wqe::Timer t;
    std::unique_ptr<wqe::MappedServingState> state;
    if (!wqe::OpenServingState(store, opts, {}, &state).ok()) return 0;
    opens.push_back(t.ElapsedSeconds());
  }
  return Median(opens);
}

std::string MakeTempDir(const std::string& name) {
  const char* target = std::getenv("CARGO_TARGET_DIR");
  std::filesystem::path dir =
      std::filesystem::path(target != nullptr && *target != '\0' ? target
                                                                  : ".bench_build") /
      "perfbench-tmp" / (name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void RemoveTempDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
