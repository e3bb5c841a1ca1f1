#include "chase/solve.h"

#include <gtest/gtest.h>

#include "chase/answ.h"  // legacy wrapper, must stay equivalent
#include "gen/product_demo.h"
#include "obs/observability.h"
#include "obs/query_log.h"

namespace wqe {
namespace {

ChaseOptions DemoOptions(double budget = 4.0) {
  ChaseOptions opts;
  opts.budget = budget;
  return opts;
}

// Tighten the demo query until nothing matches (Why-Empty input).
WhyQuestion EmptyQuestion(const ProductDemo& demo) {
  WhyQuestion w = demo.Question();
  w.query.node(w.query.focus()).literals[0].constant = Value::Num(2000);
  const std::vector<NodeId> desired = {demo.p(3), demo.p(5)};
  w.exemplar = Exemplar::FromEntities(demo.graph(), desired);
  return w;
}

// Drop the price literal so the query over-matches (Why-Many input).
WhyQuestion ManyQuestion(const ProductDemo& demo) {
  WhyQuestion w = demo.Question();
  w.query.node(w.query.focus()).literals.clear();
  return w;
}

TEST(AlgorithmTest, NamesMatchThePaper) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kAnsW), "AnsW");
  EXPECT_STREQ(AlgorithmName(Algorithm::kAnsWE), "AnsWE");
  EXPECT_STREQ(AlgorithmName(Algorithm::kAnsHeu), "AnsHeu");
  EXPECT_STREQ(AlgorithmName(Algorithm::kFMAnsW), "FMAnsW");
  EXPECT_STREQ(AlgorithmName(Algorithm::kApxWhyM), "ApxWhyM");
}

TEST(AlgorithmTest, FromStringAcceptsCanonicalNames) {
  for (Algorithm a :
       {Algorithm::kAnsW, Algorithm::kAnsWE, Algorithm::kAnsHeu,
        Algorithm::kFMAnsW, Algorithm::kApxWhyM}) {
    const auto parsed = AlgorithmFromString(AlgorithmName(a));
    ASSERT_TRUE(parsed.has_value()) << AlgorithmName(a);
    EXPECT_EQ(*parsed, a);
  }
}

TEST(AlgorithmTest, FromStringIsCaseInsensitiveAndKnowsAliases) {
  EXPECT_EQ(AlgorithmFromString("answ"), Algorithm::kAnsW);
  EXPECT_EQ(AlgorithmFromString("ANSW"), Algorithm::kAnsW);
  EXPECT_EQ(AlgorithmFromString("whye"), Algorithm::kAnsWE);
  EXPECT_EQ(AlgorithmFromString("heu"), Algorithm::kAnsHeu);
  EXPECT_EQ(AlgorithmFromString("fm"), Algorithm::kFMAnsW);
  EXPECT_EQ(AlgorithmFromString("whym"), Algorithm::kApxWhyM);
  EXPECT_FALSE(AlgorithmFromString("dijkstra").has_value());
  EXPECT_FALSE(AlgorithmFromString("").has_value());
}

// The redesign's compatibility contract: Solve(..., kAnsW) and the legacy
// AnsW() wrapper produce identical results, answer for answer.
TEST(SolveTest, MatchesLegacyAnsWExactly) {
  ProductDemo demo;
  ChaseResult via_solve =
      Solve(demo.graph(), demo.Question(), DemoOptions(), Algorithm::kAnsW);
  ChaseResult via_legacy = AnsW(demo.graph(), demo.Question(), DemoOptions());

  ASSERT_TRUE(via_solve.found());
  ASSERT_EQ(via_solve.answers.size(), via_legacy.answers.size());
  for (size_t i = 0; i < via_solve.answers.size(); ++i) {
    const WhyAnswer& a = via_solve.answers[i];
    const WhyAnswer& b = via_legacy.answers[i];
    EXPECT_EQ(a.rewrite.Fingerprint(), b.rewrite.Fingerprint());
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.closeness, b.closeness);
    EXPECT_EQ(a.cost, b.cost);
  }
  EXPECT_EQ(via_solve.cl_star, via_legacy.cl_star);
  EXPECT_EQ(via_solve.stats.steps, via_legacy.stats.steps);
  EXPECT_EQ(via_solve.stats.evaluations, via_legacy.stats.evaluations);
  EXPECT_EQ(via_solve.termination(), via_legacy.termination());
}

TEST(SolveTest, DeterministicAcrossRuns) {
  ProductDemo demo;
  ChaseResult a =
      Solve(demo.graph(), demo.Question(), DemoOptions(), Algorithm::kAnsW);
  ChaseResult b =
      Solve(demo.graph(), demo.Question(), DemoOptions(), Algorithm::kAnsW);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].rewrite.Fingerprint(),
              b.answers[i].rewrite.Fingerprint());
    EXPECT_EQ(a.answers[i].matches, b.answers[i].matches);
  }
}

TEST(SolveTest, DefaultAlgorithmIsAnsW) {
  ProductDemo demo;
  ChaseResult implicit = Solve(demo.graph(), demo.Question(), DemoOptions());
  ChaseResult explicit_answ =
      Solve(demo.graph(), demo.Question(), DemoOptions(), Algorithm::kAnsW);
  ASSERT_TRUE(implicit.found());
  EXPECT_EQ(implicit.best().rewrite.Fingerprint(),
            explicit_answ.best().rewrite.Fingerprint());
}

TEST(SolveTest, DispatchesEveryAlgorithm) {
  ProductDemo demo;
  const ChaseOptions opts = DemoOptions(3.0);

  ChaseResult answ = Solve(demo.graph(), demo.Question(), opts, Algorithm::kAnsW);
  EXPECT_TRUE(answ.ok());
  EXPECT_TRUE(answ.found());

  ChaseResult heu =
      Solve(demo.graph(), demo.Question(), opts, Algorithm::kAnsHeu);
  EXPECT_TRUE(heu.ok());
  EXPECT_TRUE(heu.found());

  ChaseResult fm =
      Solve(demo.graph(), demo.Question(), opts, Algorithm::kFMAnsW);
  EXPECT_TRUE(fm.ok());
  EXPECT_TRUE(fm.found());

  ChaseResult we =
      Solve(demo.graph(), EmptyQuestion(demo), opts, Algorithm::kAnsWE);
  EXPECT_TRUE(we.ok());
  EXPECT_TRUE(we.found());
  EXPECT_FALSE(we.best().matches.empty());

  ChaseResult wm =
      Solve(demo.graph(), ManyQuestion(demo), opts, Algorithm::kApxWhyM);
  EXPECT_TRUE(wm.ok());
  EXPECT_TRUE(wm.found());
}

TEST(SolveTest, EachRunReportsItsOwnPhaseBreakdown) {
  ProductDemo demo;
  obs::Observability o;
  ChaseOptions opts = DemoOptions();
  opts.observability = &o;
  ChaseResult first =
      Solve(demo.graph(), demo.Question(), opts, Algorithm::kAnsW);
  ChaseResult second =
      Solve(demo.graph(), demo.Question(), opts, Algorithm::kAnsHeu);

  // Phases are per run (DiffPhases against the shared tracer), so each
  // result names its own solve span and not the other's.
  auto has_phase = [](const ChaseResult& r, const std::string& name) {
    for (const obs::PhaseStat& p : r.stats.phases) {
      if (p.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_phase(first, "solve.AnsW"));
  EXPECT_FALSE(has_phase(first, "solve.AnsHeu"));
  EXPECT_TRUE(has_phase(second, "solve.AnsHeu"));
  EXPECT_FALSE(has_phase(second, "solve.AnsW"));
  EXPECT_EQ(o.metrics.counter("solve.runs").Value(), 2u);
}

TEST(SolveTest, RejectsInvalidOptionsBeforeSearching) {
  ProductDemo demo;

  ChaseOptions zero_topk = DemoOptions();
  zero_topk.top_k = 0;
  ChaseResult r = Solve(demo.graph(), demo.Question(), zero_topk);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.found());
  EXPECT_EQ(r.stats.steps, 0u);
  EXPECT_NE(r.status.ToString().find("top_k"), std::string::npos);

  ChaseOptions bad_lambda = DemoOptions();
  bad_lambda.closeness.lambda = 1.5;
  EXPECT_FALSE(Solve(demo.graph(), demo.Question(), bad_lambda).ok());

  ChaseOptions bad_budget = DemoOptions();
  bad_budget.budget = -1;
  EXPECT_FALSE(Solve(demo.graph(), demo.Question(), bad_budget).ok());

  ChaseOptions zero_beam = DemoOptions();
  zero_beam.beam = 0;
  EXPECT_FALSE(
      Solve(demo.graph(), demo.Question(), zero_beam, Algorithm::kAnsHeu).ok());

  ChaseOptions zero_steps = DemoOptions();
  zero_steps.max_steps = 0;
  EXPECT_FALSE(Solve(demo.graph(), demo.Question(), zero_steps).ok());
}

TEST(SolveTest, ValidOptionsPassValidate) {
  EXPECT_TRUE(ChaseOptions().Validate().ok());
  EXPECT_TRUE(DemoOptions().Validate().ok());
}

// ChaseOptions::Fingerprint names "the same workload configuration" in
// query-log records: every solver-relevant field must move it, and no
// runtime-only field may.
TEST(ChaseOptionsTest, FingerprintCoversSolverFieldsOnly) {
  const ChaseOptions base;
  const uint64_t base_fp = base.Fingerprint();
  EXPECT_EQ(ChaseOptions().Fingerprint(), base_fp);

  const std::vector<std::pair<const char*, void (*)(ChaseOptions&)>>
      solver_fields = {
          {"budget", [](ChaseOptions& o) { o.budget = 4; }},
          {"max_bound", [](ChaseOptions& o) { o.max_bound = 2; }},
          {"theta", [](ChaseOptions& o) { o.closeness.theta += 0.125; }},
          {"lambda", [](ChaseOptions& o) { o.closeness.lambda += 0.125; }},
          {"use_cache", [](ChaseOptions& o) { o.use_cache = false; }},
          {"use_memo", [](ChaseOptions& o) { o.use_memo = false; }},
          {"use_pruning", [](ChaseOptions& o) { o.use_pruning = false; }},
          {"dedup_rewrites",
           [](ChaseOptions& o) { o.dedup_rewrites = false; }},
          {"beam", [](ChaseOptions& o) { o.beam = 5; }},
          {"random_ops", [](ChaseOptions& o) { o.random_ops = true; }},
          {"seed", [](ChaseOptions& o) { o.seed = 7; }},
          {"top_k", [](ChaseOptions& o) { o.top_k = 3; }},
          {"max_witnesses", [](ChaseOptions& o) { o.max_witnesses = 9; }},
          {"max_diagnosed_nodes",
           [](ChaseOptions& o) { o.max_diagnosed_nodes = 10; }},
          {"max_steps", [](ChaseOptions& o) { o.max_steps = 11; }},
      };
  for (const auto& [name, mutate] : solver_fields) {
    ChaseOptions o;
    mutate(o);
    EXPECT_NE(o.Fingerprint(), base_fp) << name;
  }

  obs::Observability scope;
  auto log = obs::QueryLog::Open(::testing::TempDir() + "/options_fp.jsonl");
  ASSERT_TRUE(log.ok());
  ChaseOptions runtime;
  runtime.num_threads = 4;
  runtime.deadline = Deadline::After(60);
  runtime.time_limit_seconds = 30;
  runtime.observability = &scope;
  runtime.query_log = log.value().get();
  runtime.cache_dir = ::testing::TempDir();
  EXPECT_EQ(runtime.Fingerprint(), base_fp);
}

TEST(SolveTest, StepCapReportsTermination) {
  ProductDemo demo;
  ChaseOptions opts = DemoOptions();
  opts.max_steps = 1;
  ChaseResult r = Solve(demo.graph(), demo.Question(), opts);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.termination(), TerminationReason::kStepCap);
}

TEST(SolveTest, OptimalTerminationOnDemo) {
  ProductDemo demo;
  ChaseResult r = Solve(demo.graph(), demo.Question(), DemoOptions());
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.termination(), TerminationReason::kOptimal);
  EXPECT_STREQ(TerminationReasonName(r.termination()), "optimal");
}

}  // namespace
}  // namespace wqe
