#include "checks.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "exemplar/relevance.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "match/matcher.h"
#include "workload/metrics.h"

namespace perfbench {

namespace {

constexpr double kTolerance = 1e-9;

// V_{u_o}: the label class of the asked query's focus, as ChaseContext
// defines it.
std::vector<wqe::NodeId> FocusUniverse(const wqe::Graph& g,
                                       const wqe::PatternQuery& q) {
  const wqe::LabelId label = q.node(q.focus()).label;
  std::vector<wqe::NodeId> universe;
  if (label == wqe::kWildcardSymbol) {
    universe.resize(g.num_nodes());
    for (wqe::NodeId v = 0; v < g.num_nodes(); ++v) universe[v] = v;
  } else {
    const auto bucket = g.NodesWithLabel(label);
    universe.assign(bucket.begin(), bucket.end());
  }
  return universe;
}

std::string Bits(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

}  // namespace

AnswerChecker::AnswerChecker(const wqe::Graph& g, wqe::GraphIndexes& indexes)
    : g_(g), indexes_(indexes) {}

Checked AnswerChecker::Check(const Question& q, const wqe::Response& r) const {
  Checked out;
  if (!r.ok()) {
    out.failure = "status " + r.status.ToString();
    return out;
  }
  if (!r.found()) {
    out.failure = "no answer";
    return out;
  }
  const wqe::WhyAnswer& best = r.best();

  wqe::Matcher matcher(g_, &indexes_.dist);
  if (matcher.Answer(best.rewrite) != best.matches) {
    out.failure = "matches differ from Matcher::Answer(rewrite)";
    return out;
  }

  const wqe::WhyQuestion& w = q.c.question;
  const std::vector<wqe::NodeId> universe = FocusUniverse(g_, w.query);
  const wqe::ClosenessEvaluator closeness(g_, indexes_.adom,
                                          q.options.closeness);
  const wqe::RepResult rep = wqe::ComputeRep(closeness, w.exemplar, universe);
  const double lambda = q.options.closeness.lambda;
  const double cl =
      wqe::Classify(universe, best.matches, rep).AnswerCloseness(lambda);
  if (std::fabs(cl - best.closeness) > kTolerance) {
    out.failure = "closeness " + std::to_string(best.closeness) +
                  " but Classify gives " + std::to_string(cl);
    return out;
  }

  const double cost = best.ops.Cost(indexes_.adom, indexes_.diameter);
  if (best.cost > q.options.budget + kTolerance ||
      cost > q.options.budget + kTolerance) {
    out.failure = "cost exceeds budget";
    return out;
  }
  if (std::fabs(cost - best.cost) > kTolerance) {
    out.failure = "reported cost differs from the operators' cost";
    return out;
  }

  const double cl_star = wqe::TheoreticalOptimal(rep, universe.size());
  out.closeness = (cl + lambda) / (cl_star + lambda);
  out.delta = wqe::AnswerJaccard(best.matches, q.c.gt_answer);
  out.satisfied = best.satisfies_exemplar;
  return out;
}

std::string AnswerDigest(const wqe::Response& r) {
  std::string d = r.status.ToString();
  for (const wqe::WhyAnswer& a : r.result.answers) {
    d += '|';
    d += a.rewrite.Fingerprint();
    for (const wqe::Op& op : a.ops.ops()) {
      d += ':';
      d += wqe::OpKindName(op.kind);
    }
    d += '|' + Bits(a.closeness) + '|' + Bits(a.cost) + '|' +
         (a.satisfies_exemplar ? "1" : "0");
    for (wqe::NodeId v : a.matches) d += ',' + std::to_string(v);
  }
  return d;
}

int RunSelfTest() {
  const wqe::Graph g = wqe::GenerateGraph(wqe::ImdbLike(0.25));
  wqe::GraphIndexes indexes(g, 1);
  const AnswerChecker checker(g, indexes);
  const std::vector<wqe::BenchCase> cases = MakeCatalog(g, 4, 1);

  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  using Corruption = std::function<void(wqe::WhyAnswer&, double budget)>;
  const std::pair<const char*, Corruption> corruptions[] = {
      {"matches", [](wqe::WhyAnswer& a, double) {
         if (a.matches.empty()) {
           a.matches.push_back(0);
         } else {
           a.matches.pop_back();
         }
       }},
      {"closeness", [](wqe::WhyAnswer& a, double) { a.closeness += 1e-3; }},
      {"cost", [](wqe::WhyAnswer& a, double budget) { a.cost = budget + 0.5; }},
  };

  for (size_t i = 0; i < cases.size(); ++i) {
    Question q;
    q.c = cases[i];
    q.algorithm = wqe::Algorithm::kAnsHeu;
    q.options = PaperChaseOptions();
    const wqe::Response genuine = wqe::Execute(g, q.ToRequest(i));
    const std::string tag = "question " + std::to_string(i) + ": ";
    const Checked base = checker.Check(q, genuine);
    expect(base.failure.empty(), tag + "genuine answer passes" +
                                     (base.failure.empty() ? "" : " (" + base.failure + ")"));
    if (!genuine.found()) continue;
    for (const auto& [name, corrupt] : corruptions) {
      wqe::Response copy = genuine;
      corrupt(copy.result.answers.front(), q.options.budget);
      const Checked bad = checker.Check(q, copy);
      expect(!bad.failure.empty(), tag + "corrupted " + name + " is caught" +
                                       (bad.failure.empty() ? "" : " (" + bad.failure + ")"));
    }
    // Repeat identity: a copy one ulp away in closeness must digest
    // differently from the genuine answer.
    wqe::Response repeat = genuine;
    double& cl = repeat.result.answers.front().closeness;
    cl = std::nextafter(cl, 2.0);
    expect(AnswerDigest(repeat) != AnswerDigest(genuine),
           tag + "a repeat differing in one bit is caught");
  }
  expect(!cases.empty(), "self-test generated questions");
  std::printf("self-test %s\n", failures == 0 ? "PASSED" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
