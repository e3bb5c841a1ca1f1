#include "match/matcher.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "chase/eval.h"
#include "chase/multi_focus.h"
#include "chase/solve.h"
#include "chase/why_not.h"
#include "chase_goldens.h"
#include "gen/datasets.h"
#include "gen/product_demo.h"
#include "gen/synthetic.h"
#include "reference_matcher.h"
#include "store/artifact_store.h"
#include "store/serde.h"
#include "workload/suite.h"

namespace wqe {
namespace {

class MatcherFixture : public ::testing::Test {
 protected:
  MatcherFixture() : dist_(demo_.graph()), matcher_(demo_.graph(), &dist_) {}

  ProductDemo demo_;
  DistanceIndex dist_;
  Matcher matcher_;
};

// Example 2.1: Q(Cellphone, G) = {P1, P2, P5}.
TEST_F(MatcherFixture, PaperExampleAnswer) {
  auto answer = matcher_.Answer(demo_.Query());
  std::vector<NodeId> expected = {demo_.p(1), demo_.p(2), demo_.p(5)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answer, expected);
}

TEST_F(MatcherFixture, EdgeToPathMatching) {
  // P1 reaches the sensor only through the watch: bound 2 admits it,
  // bound 1 (subgraph-isomorphism semantics) does not.
  PatternQuery q = demo_.Query();
  EXPECT_TRUE(matcher_.IsMatch(q, demo_.p(1)));
  const int e = q.FindEdge(q.focus(), 3);
  ASSERT_GE(e, 0);
  q.edge(static_cast<size_t>(e)).bound = 1;
  EXPECT_FALSE(matcher_.IsMatch(q, demo_.p(1)));
  EXPECT_TRUE(matcher_.IsMatch(q, demo_.p(2)));  // direct sensor edge
}

TEST_F(MatcherFixture, FocusLiteralGatesMatch) {
  PatternQuery q = demo_.Query();
  EXPECT_FALSE(matcher_.IsMatch(q, demo_.p(3)));  // price 790 < 840
  EXPECT_FALSE(matcher_.IsMatch(q, demo_.p(4)));
}

TEST_F(MatcherFixture, InjectivityEnforced) {
  // Two query nodes with the same label must map to distinct graph nodes:
  // a phone with two distinct carriers does not exist.
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  QNodeId c1 = q.AddNode(g.schema().LookupLabel("Carrier"));
  QNodeId c2 = q.AddNode(g.schema().LookupLabel("Carrier"));
  q.SetFocus(cell);
  q.AddEdge(cell, c1, 1);
  q.AddEdge(cell, c2, 1);
  EXPECT_TRUE(matcher_.Answer(q).empty());
}

TEST_F(MatcherFixture, SingleNodeQueryAnswersAreCandidates) {
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  q.SetFocus(cell);
  EXPECT_EQ(matcher_.Answer(q).size(), 6u);
}

TEST_F(MatcherFixture, ValuationsEnumerateAssignments) {
  PatternQuery q = demo_.Query();
  size_t count = 0;
  matcher_.Valuations(q, demo_.p(1), 10, [&](const std::vector<NodeId>& assign) {
    ++count;
    EXPECT_EQ(assign[q.focus()], demo_.p(1));
    EXPECT_EQ(assign[1], demo_.samsung());
    EXPECT_EQ(assign[2], demo_.att());
    EXPECT_EQ(assign[3], demo_.sensor());
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST_F(MatcherFixture, ValuationsRespectLimit) {
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  QNodeId any = q.AddNode(kWildcardSymbol);
  q.SetFocus(cell);
  q.AddEdge(cell, any, 2);
  size_t count = 0;
  matcher_.Valuations(q, demo_.p(1), 2,
                      [&](const std::vector<NodeId>&) {
                        ++count;
                        return true;
                      });
  EXPECT_EQ(count, 2u);
}

TEST_F(MatcherFixture, CallbackCanAbort) {
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  QNodeId any = q.AddNode(kWildcardSymbol);
  q.SetFocus(cell);
  q.AddEdge(cell, any, 2);
  size_t count = 0;
  matcher_.Valuations(q, demo_.p(1), 100,
                      [&](const std::vector<NodeId>&) {
                        ++count;
                        return false;
                      });
  EXPECT_EQ(count, 1u);
}

TEST_F(MatcherFixture, RestrictedMatchHonorsAllowedSets) {
  PatternQuery q = demo_.Query();
  std::vector<const std::vector<NodeId>*> allowed(q.num_nodes(), nullptr);
  // Restrict the carrier node to Sprint only: P1 (AT&T) no longer matches.
  std::vector<NodeId> sprint_only = {demo_.sprint()};
  allowed[2] = &sprint_only;
  EXPECT_FALSE(matcher_.IsMatchRestricted(q, demo_.p(1), allowed));
  EXPECT_TRUE(matcher_.IsMatchRestricted(q, demo_.p(5), allowed));
}

TEST_F(MatcherFixture, DirectionMatters) {
  const Graph& g = demo_.graph();
  PatternQuery q;
  QNodeId carrier = q.AddNode(g.schema().LookupLabel("Carrier"));
  QNodeId cell = q.AddNode(g.schema().LookupLabel("Cellphone"));
  q.SetFocus(carrier);
  // Edge carrier -> cell does not exist in G (phones point at carriers).
  q.AddEdge(carrier, cell, 1);
  EXPECT_TRUE(matcher_.Answer(q).empty());
  // Reversed: every carrier with an in-edge from a phone matches.
  PatternQuery q2;
  QNodeId carrier2 = q2.AddNode(g.schema().LookupLabel("Carrier"));
  QNodeId cell2 = q2.AddNode(g.schema().LookupLabel("Cellphone"));
  q2.SetFocus(carrier2);
  q2.AddEdge(cell2, carrier2, 1);
  EXPECT_EQ(q2.FindEdge(cell2, carrier2), 0);
  EXPECT_EQ(matcher_.Answer(q2).size(), 2u);
}

TEST_F(MatcherFixture, StatsAccumulate) {
  matcher_.Answer(demo_.Query());
  EXPECT_GT(matcher_.stats().focus_verifications, 0u);
  EXPECT_GT(matcher_.stats().node_expansions, 0u);
}

// --- Match pipeline parity (DESIGN.md "Match pipeline"): the compiled
// --- filter-plan pipeline must be an invisible substitution for the
// --- interpreted reference semantics — byte-identical answers against the
// --- brute-force oracle and against the output recorded from the retired
// --- interpreted arm (tests/golden/off_arm_goldens.txt), at any thread
// --- count, and whether the graph is heap-built or mmap-attached from a
// --- store v2 bundle.

TEST_F(MatcherFixture, PipelineAnswersMatchReferenceOracle) {
  const Graph& g = demo_.graph();
  PatternQuery wildcard;
  QNodeId any = wildcard.AddNode(kWildcardSymbol);
  wildcard.SetFocus(any);
  wildcard.AddLiteral(
      any, {g.schema().LookupAttr("discount"), CmpOp::kGe, Value::Num(20)});
  ReferenceMatcher reference(g);
  for (const PatternQuery& q : {demo_.Query(), wildcard}) {
    EXPECT_EQ(matcher_.Answer(q), reference.Answer(q));
  }
}

ChaseOptions ParityOptions(size_t num_threads) {
  ChaseOptions o;
  o.budget = 3;
  o.max_steps = 2000;
  o.top_k = 2;
  o.num_threads = num_threads;
  return o;
}

// Every solver bundle, serial and parallel, against the interpreted arm's
// recorded output: one contract.
TEST(MatchPipelineParityTest, EveryAlgorithmIdenticalPipelineOnOff) {
  Graph g = GenerateGraph(ImdbLike(0.04));
  WhyFactoryOptions fopts;
  fopts.query.num_edges = 2;
  fopts.query.max_literals = 5;  // literal-heavy: exercise the merged walk
  fopts.disturb.num_ops = 2;
  fopts.seed = 21;
  auto cases = MakeBenchCases(g, 2, fopts);
  ASSERT_EQ(cases.size(), 2u);
  DistanceIndex dist(g);
  Matcher matcher(g, &dist);

  for (const Algorithm algo :
       {Algorithm::kAnsW, Algorithm::kAnsWE, Algorithm::kAnsHeu,
        Algorithm::kFMAnsW, Algorithm::kApxWhyM}) {
    for (size_t i = 0; i < cases.size(); ++i) {
      const std::string key = std::string("pipeline_off/") +
                              AlgorithmName(algo) + "/" + std::to_string(i);
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        const ChaseResult piped =
            Solve(g, cases[i].question, ParityOptions(threads), algo);
        ASSERT_TRUE(piped.ok()) << AlgorithmName(algo);
        EXPECT_EQ(ResultFingerprint(piped), OffArmGolden(key))
            << key << " threads=" << threads;
        for (const WhyAnswer& a : piped.answers) {
          EXPECT_EQ(a.matches, matcher.Answer(a.rewrite))
              << key << " " << a.fingerprint;
        }
      }
    }
  }
}

TEST(MatchPipelineParityTest, MultiFocusIdenticalPipelineOnOff) {
  ProductDemo demo;
  MultiFocusQuestion w;
  w.query = demo.Query();
  w.foci = {0, 2};
  w.exemplars.push_back(demo.MakeExemplar());
  std::vector<NodeId> sprint = {demo.sprint()};
  w.exemplars.push_back(Exemplar::FromEntities(demo.graph(), sprint));

  ChaseOptions o;
  o.budget = 4;
  const MultiFocusResult piped = AnsWMultiFocus(demo.graph(), w, o);
  EXPECT_EQ("evaluations=" + std::to_string(piped.stats.evaluations) + "\n" +
                MultiFocusFingerprint(piped),
            OffArmGolden("pipeline_off/multi_focus"));
}

TEST(MatchPipelineParityTest, WhyNotIdenticalPipelineOnOff) {
  ProductDemo demo;
  ChaseOptions o;
  o.budget = 4;
  ChaseContext ctx(demo.graph(), demo.Question(), o);
  EXPECT_EQ(ExplainWhyNot(ctx, demo.p(3)).ToString(demo.graph()),
            OffArmGolden("pipeline_off/why_not"));
}

// Heap-built vs mmap-attached (Graph::Attach via the store v2 bundle): the
// pipeline's plans compile from the graph *view*, so the storage substrate
// must not leak into answers either.
class PipelineMmapFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wqe_pipeline_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  ProductDemo demo_;
};

TEST_F(PipelineMmapFixture, HeapAndMappedAnswersIdentical) {
  const Graph& g = demo_.graph();
  store::ArtifactStore store(dir_, store::Serde::GraphFingerprint(g));
  GraphIndexes heap(g, /*num_threads=*/1);
  ASSERT_TRUE(store
                  .SaveBundle(g, heap.adom, heap.diameter, heap.dist,
                              DistanceIndex::Options())
                  .ok());
  std::unique_ptr<MappedServingState> mapped;
  ASSERT_TRUE(OpenServingState(store, DistanceIndex::Options(),
                               store::BundleOpenOptions(), &mapped)
                  .ok());
  ASSERT_TRUE(mapped->graph().attached());

  for (const Algorithm algo :
       {Algorithm::kAnsW, Algorithm::kAnsWE, Algorithm::kAnsHeu,
        Algorithm::kFMAnsW, Algorithm::kApxWhyM}) {
    Request req;
    req.question = demo_.Question();
    req.options = ParityOptions(1);
    req.algorithm = algo;
    const Response heap_resp = Execute(g, &heap, nullptr, nullptr, req);
    const Response mapped_resp =
        Execute(mapped->graph(), &mapped->indexes, nullptr, nullptr, req);
    ASSERT_TRUE(heap_resp.ok() && mapped_resp.ok()) << AlgorithmName(algo);
    EXPECT_EQ(ResultFingerprint(heap_resp.result),
              ResultFingerprint(mapped_resp.result))
        << AlgorithmName(algo);
  }
}

}  // namespace
}  // namespace wqe
