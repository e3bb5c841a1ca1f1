// serve_mix: open-loop traffic through serve::Server over a store bundle.
//
// The server opens the bundle zero-copy (OpenServingState) and serves a
// fixed mix of AnsW / AnsHeu / ApxWhyM / AnsWE questions in which every
// distinct question recurs, so the shared ViewCache and the cross-request
// plan memo have something to hit. Requests are sent at fixed offered
// rates, evenly spaced, and each is timed from its scheduled send time.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "checks.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "layers.h"
#include "serve/server.h"
#include "store/artifact_store.h"
#include "store/serde.h"
#include "workload/suite.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 51;

// The distinct requests. AnsW, AnsHeu and ApxWhyM ask the first catalog
// questions; AnsWE asks Why-Empty questions. One round sends each distinct
// request once; every rate step sends whole rounds, each in a fresh seeded
// order, so the work per step is the same for every seed. At light load
// the algorithms' typical latencies order AnsWE ~ ApxWhyM < AnsHeu < AnsW;
// with as many AnsWE and ApxWhyM requests as AnsW ones, p50 falls among the
// AnsHeu requests rather than at the edge between two algorithms, where it
// jumps from run to run.
struct MixEntry {
  wqe::Algorithm algorithm;
  size_t questions;
};
constexpr MixEntry kMix[] = {
    {wqe::Algorithm::kAnsW, 6},
    {wqe::Algorithm::kAnsHeu, 6},
    {wqe::Algorithm::kApxWhyM, 2},
    {wqe::Algorithm::kAnsWE, 4},
};

// Offered rates (requests/s) from light load to past capacity, with each
// step's share of a sweep's sending time. The sweep runs kSweeps times in
// --seconds (steps rounded to whole rounds); the quarter of each sweep the
// shares leave over is for the backlogs of the past-capacity steps to
// drain. Every figure is taken from the best sweep, so a transient slowdown
// of the machine during one sweep does not move it. The top rate lies well
// past the capacity of either catalog on a 4-vCPU virtual machine, so
// max_rate_qps and the capacity have headroom. kReferenceStep is the step
// whose latency the end-to-end latency metrics report: light load, where
// latency is mostly execution, not queueing.
constexpr double kRates[] = {10, 25, 40, 60, 250};
constexpr double kShares[] = {0.3, 0.15, 0.15, 0.1, 0.04};
constexpr size_t kSweeps = 3;
constexpr size_t kReferenceStep = 0;

// The p90 latency limit behind max_rate_qps (recorded in BENCHMARK.json).
constexpr double kLatencyLimitMs = 500;

size_t Concurrency() {
  const size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::clamp<size_t>(hw - 1, 1, 3);
}

struct Sent {
  size_t question;  // index into the distinct set
  double due;       // scheduled send time, seconds from step start
  double done = 0;  // completion time, seconds from step start
  wqe::Response response;
};

struct StepResult {
  std::vector<double> latency_ms, queue_ms, solve_ms, execute_ms;
  std::vector<size_t> question;  // distinct-set index of each latency_ms entry
  std::vector<double> lag_ms;
  size_t shed = 0, failed = 0, completed = 0;
  size_t backlog_at_last_send = 0;
  // Completions per second from the step's first send to its last
  // completion: the server's capacity once the offered rate exceeds it, as
  // the backlog then keeps every slot busy until the step has drained.
  double throughput = 0;
};

// Sends `order` at `rate`, evenly spaced, and waits for every response.
// A poller records completions as futures become ready.
StepResult RunStep(wqe::serve::Server& server, const std::vector<Question>& distinct,
                   const std::vector<size_t>& order, double rate,
                   const std::vector<std::string>& reference, uint64_t* next_id) {
  StepResult out;
  std::vector<Sent> sent(order.size());
  std::vector<std::future<wqe::Response>> futures(order.size());
  std::vector<bool> ready(order.size(), false);
  size_t outstanding = 0;
  const auto start = std::chrono::steady_clock::now();
  auto now = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  auto poll = [&](size_t upto) {
    for (size_t k = 0; k < upto; ++k) {
      if (ready[k]) continue;
      if (futures[k].wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
      sent[k].done = now();
      sent[k].response = futures[k].get();
      ready[k] = true;
      --outstanding;
    }
  };
  for (size_t k = 0; k < order.size(); ++k) {
    sent[k].question = order[k];
    sent[k].due = static_cast<double>(k) / rate;
    while (now() < sent[k].due) {
      poll(k);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    out.lag_ms.push_back((now() - sent[k].due) * 1e3);
    futures[k] = server.Submit(distinct[order[k]].ToRequest((*next_id)++));
    ++outstanding;
  }
  out.backlog_at_last_send = outstanding;
  while (outstanding > 0) {
    poll(order.size());
    if (outstanding > 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  double last_done = 0;
  for (const Sent& s : sent) {
    last_done = std::max(last_done, s.done);
    const wqe::Response& r = s.response;
    if (r.status.code() == wqe::Status::Code::kOverloaded) {
      ++out.shed;
      continue;
    }
    ++out.completed;
    out.latency_ms.push_back((s.done - s.due) * 1e3);
    out.question.push_back(s.question);
    out.queue_ms.push_back(r.queue_seconds * 1e3);
    out.solve_ms.push_back(r.result.stats.elapsed_seconds * 1e3);
    out.execute_ms.push_back(out.latency_ms.back() - out.queue_ms.back());
    if (!r.ok() || r.result.termination() == wqe::TerminationReason::kDeadline ||
        AnswerDigest(r) != reference[s.question]) {
      ++out.failed;
    }
  }
  out.throughput = last_done > 0 ? static_cast<double>(out.completed) / last_done : 0;
  return out;
}

// A step is within the latency limit when nothing is shed and its p90
// latency is at most the limit.
bool WithinLatency(const StepResult& s) {
  return s.shed == 0 && Quantile(s.latency_ms, 0.9) <= kLatencyLimitMs;
}

// A sweep's capacity: the completion rate of its past-capacity top step.
// An offered rate above it makes the backlog grow.
double Capacity(const std::vector<StepResult>& steps) { return steps.back().throughput; }

// A rate meets the limit when it is within the latency limit and the
// backlog does not grow, i.e. the rate is at most the sweep's capacity.
bool MeetsLimit(const std::vector<StepResult>& steps, size_t i) {
  return WithinLatency(steps[i]) && kRates[i] <= Capacity(steps);
}

// The highest offered rate that meets the limit: the last rate within the
// latency limit, interpolated on p90 latency towards the next rate, which
// misses it, and capped at the capacity. Should even the lowest rate miss,
// it is scaled down by limit / p90 (never 0). Capping at the measured
// capacity, not at a backlog count at one instant, keeps the figure
// continuous in the speed of the machine.
double MaxRate(const std::vector<StepResult>& steps) {
  double rate = kRates[std::size(kRates) - 1];
  if (!WithinLatency(steps.front())) {
    const double p90 = Quantile(steps.front().latency_ms, 0.9);
    rate = kRates[0] * std::min(1.0, kLatencyLimitMs / std::max(p90, 1e-9));
  } else {
    for (size_t i = 0; i + 1 < steps.size(); ++i) {
      const StepResult& next = steps[i + 1];
      if (WithinLatency(next)) continue;
      const double p_lo = Quantile(steps[i].latency_ms, 0.9);
      const double p_hi = Quantile(next.latency_ms, 0.9);
      double f = 0;
      if (next.shed == 0 && p_hi > p_lo) f = (kLatencyLimitMs - p_lo) / (p_hi - p_lo);
      rate = kRates[i] + (kRates[i + 1] - kRates[i]) * std::clamp(f, 0.0, 1.0);
      break;
    }
  }
  return std::min(rate, Capacity(steps));
}

std::vector<Question> DistinctSet(const wqe::Graph& g, uint64_t catalog_seed) {
  size_t why = 0, empty = 0;
  for (const MixEntry& e : kMix) {
    size_t& n = e.algorithm == wqe::Algorithm::kAnsWE ? empty : why;
    n = std::max(n, e.questions);
  }
  const std::vector<wqe::BenchCase> catalog = MakeCatalog(g, why, catalog_seed);
  const std::vector<wqe::BenchCase> empties = MakeEmptyCatalog(g, empty, catalog_seed);
  std::vector<Question> out;
  for (const MixEntry& e : kMix) {
    const auto& source = e.algorithm == wqe::Algorithm::kAnsWE ? empties : catalog;
    for (size_t i = 0; i < e.questions && i < source.size(); ++i) {
      out.push_back({source[i], e.algorithm, PaperChaseOptions()});
    }
  }
  return out;
}

// Declared in dependency order; Reset() tears down in reverse (the server
// borrows the scope and the mapped state).
struct ServingSetup {
  std::unique_ptr<wqe::MappedServingState> state;
  std::unique_ptr<wqe::obs::Observability> obs;
  std::unique_ptr<wqe::serve::Server> server;

  void Reset() {
    server.reset();
    obs.reset();
    state.reset();
  }
};

}  // namespace

void ProbeServeLayer(const wqe::Graph& g, wqe::GraphIndexes& indexes,
                     const std::vector<Question>& pool, Report& report) {
  wqe::obs::Observability o;
  wqe::serve::ServerOptions sopts;
  sopts.concurrency = 1;
  sopts.prebuilt_indexes = &indexes;
  sopts.observability = &o;
  sopts.telemetry_port = 0;
  wqe::serve::Server server(g, sopts);
  std::vector<double> queue_ms, solve_ms, lag_ms;
  size_t shed = 0, sent = 0;
  wqe::Timer since_reply;
  for (size_t i = 0; i < pool.size(); ++i) {
    // Closed loop: each question is due when the previous reply arrives.
    lag_ms.push_back(since_reply.ElapsedSeconds() * 1e3);
    const wqe::Response r = server.Serve(pool[i].ToRequest(i));
    since_reply.Reset();
    ++sent;
    if (r.status.code() == wqe::Status::Code::kOverloaded) {
      ++shed;
      continue;
    }
    queue_ms.push_back(r.queue_seconds * 1e3);
    solve_ms.push_back(r.result.stats.elapsed_seconds * 1e3);
  }
  std::map<std::string, uint64_t> c;
  o.metrics.ForEachCounter([&c](const std::string& n, uint64_t v) { c[n] = v; });
  report.Note("serve layer probed with " + std::to_string(sent) +
              " questions sent one at a time");
  report.Add("serve.queue_wait_p90_ms", Quantile(queue_ms, 0.9), "ms", queue_ms.size());
  report.Add("serve.solve_p90_ms", Quantile(solve_ms, 0.9), "ms", solve_ms.size());
  report.Add("serve.shed_frac",
             sent == 0 ? 0 : static_cast<double>(shed) / static_cast<double>(sent), "ratio");
  report.Add("serve.generator_lag_ms", Quantile(lag_ms, 0.9), "ms", lag_ms.size());
  report.Add("serve.plan_hits", static_cast<double>(server.shared_plans().hits()), "count");
  const uint64_t lookups = c["cache.hits"] + c["cache.misses"];
  report.Add("serve.cache_hit_rate",
             lookups == 0 ? 0
                          : static_cast<double>(c["cache.hits"]) / static_cast<double>(lookups),
             "ratio");
}

RunOutcome RunServeMix(const Args& args) {
  RunOutcome out;
  Report& report = out.report;
  const size_t concurrency = Concurrency();

  // Before set-up: build the indexes heap-side and write the bundle the
  // server will open; its key is the graph fingerprint, known to a
  // deployment ahead of start-up.
  const std::string dir = MakeTempDir(args.workload);
  std::vector<double> index_build;
  uint64_t key = 0;
  {
    const wqe::Graph g = wqe::GenerateGraph(wqe::ImdbLike(0.25));
    key = wqe::store::Serde::GraphFingerprint(g);
    std::unique_ptr<wqe::GraphIndexes> built;
    for (int i = 0; i < (args.trace ? 3 : 1); ++i) {
      wqe::Timer t;
      built = std::make_unique<wqe::GraphIndexes>(g, 1);
      index_build.push_back(t.ElapsedSeconds());
    }
    wqe::store::ArtifactStore store(dir, key);
    const wqe::Status s = store.SaveBundle(g, built->adom, built->diameter,
                                           built->dist, wqe::DistanceIndex::Options());
    if (!s.ok()) {
      std::fprintf(stderr, "error: writing the bundle failed: %s\n", s.ToString().c_str());
      RemoveTempDir(dir);
      out.correct = false;
      out.attempted = out.failed = 1;
      return out;
    }
  }

  // Set-up: open the bundle and start a server on it, several times; the
  // last server stays up.
  std::vector<double> setup, opens;
  ServingSetup serving;
  for (int i = 0; i < kSetupRepeats; ++i) {
    serving.Reset();
    serving.obs = std::make_unique<wqe::obs::Observability>();
    wqe::Timer t;
    wqe::store::ArtifactStore store(dir, key);
    const wqe::Status s = wqe::OpenServingState(
        store, wqe::DistanceIndex::Options(), {}, &serving.state);
    if (!s.ok()) {
      std::fprintf(stderr, "error: opening the bundle failed: %s\n", s.ToString().c_str());
      RemoveTempDir(dir);
      out.correct = false;
      out.attempted = out.failed = 1;
      return out;
    }
    opens.push_back(t.ElapsedSeconds());
    wqe::serve::ServerOptions sopts;
    sopts.concurrency = concurrency;
    sopts.prebuilt_indexes = &serving.state->indexes;
    sopts.observability = serving.obs.get();
    sopts.telemetry_port = 0;  // telemetry on, as in production
    // Room for the whole backlog of the past-capacity step: overload shows
    // as latency, and no request of the sweep is shed.
    sopts.max_queue = 1024;
    serving.server = std::make_unique<wqe::serve::Server>(serving.state->graph(), sopts);
    setup.push_back(t.ElapsedSeconds());
  }
  wqe::serve::Server& server = *serving.server;
  const wqe::Graph& g = serving.state->graph();
  wqe::GraphIndexes& indexes = serving.state->indexes;

  const std::vector<Question> distinct = DistinctSet(g, args.catalog_seed);
  std::vector<size_t> round(distinct.size());
  std::iota(round.begin(), round.end(), 0);

  // Sequential reference pass (also warms the shared caches): the answers
  // every served response must reproduce byte for byte.
  uint64_t next_id = 0;
  std::vector<wqe::Response> reference;
  std::vector<std::string> digest;
  for (const Question& q : distinct) {
    reference.push_back(server.Serve(q.ToRequest(next_id++)));
    digest.push_back(AnswerDigest(reference.back()));
  }

  // The open-loop sweep, after one warm-up round at the reference rate.
  std::mt19937_64 rng(MixSeed(args.seed, 11));
  {
    std::vector<size_t> warm = round;
    std::shuffle(warm.begin(), warm.end(), rng);
    RunStep(server, distinct, warm, kRates[kReferenceStep], digest, &next_id);
    server.Drain();
  }
  std::vector<std::vector<StepResult>> sweeps(kSweeps);
  std::set<size_t> seen;
  size_t requests = 0, recurring = 0, rounds_sent = 0;
  const double sweep_seconds = args.seconds / static_cast<double>(kSweeps);
  for (std::vector<StepResult>& steps : sweeps) {
    for (size_t i = 0; i < std::size(kRates); ++i) {
      const double rate = kRates[i];
      const size_t rounds = std::max<size_t>(
          1, static_cast<size_t>(std::lround(rate * kShares[i] * sweep_seconds /
                                             static_cast<double>(round.size()))));
      rounds_sent += rounds;
      std::vector<size_t> order;
      for (size_t r = 0; r < rounds; ++r) {
        std::vector<size_t> perm = round;
        std::shuffle(perm.begin(), perm.end(), rng);
        order.insert(order.end(), perm.begin(), perm.end());
      }
      for (size_t q : order) {
        ++requests;
        if (!seen.insert(q).second) ++recurring;
      }
      steps.push_back(RunStep(server, distinct, order, rate, digest, &next_id));
      server.Drain();
    }
  }
  const double peak_rss = PeakRssMb();

  // Answer checks on the reference answers (the served ones equal them or
  // were counted as failures above).
  const AnswerChecker checker(g, indexes);
  std::vector<double> closeness, delta;
  size_t satisfied = 0;
  std::vector<bool> bad(distinct.size(), false);
  for (size_t i = 0; i < distinct.size(); ++i) {
    const Checked c = checker.Check(distinct[i], reference[i]);
    if (!c.failure.empty()) {
      bad[i] = true;
      report.Note("check failed on question " + std::to_string(i) + ": " + c.failure);
    }
    closeness.push_back(c.closeness);
    delta.push_back(c.delta);
    if (c.satisfied) ++satisfied;
  }
  size_t shed = 0;
  std::vector<double> lag;
  for (size_t w = 0; w < sweeps.size(); ++w) {
    for (size_t i = 0; i < sweeps[w].size(); ++i) {
      const StepResult& s = sweeps[w][i];
      out.attempted += s.completed + s.shed;
      out.failed += s.failed + s.shed;
      shed += s.shed;
      lag.insert(lag.end(), s.lag_ms.begin(), s.lag_ms.end());
      char line[256];
      std::snprintf(line, sizeof(line),
                    "sweep %zu rate %4.1f/s: %3zu sent, p50 %6.1f ms, p90 %6.1f ms, "
                    "achieved %5.2f/s, mean execution %5.1f ms, shed %zu, backlog at "
                    "last send %zu%s",
                    w, kRates[i], s.completed + s.shed, Quantile(s.latency_ms, 0.5),
                    Quantile(s.latency_ms, 0.9), s.throughput, Mean(s.execute_ms), s.shed,
                    s.backlog_at_last_send, MeetsLimit(sweeps[w], i) ? "" : " (misses limit)");
      report.Note(line);
    }
  }
  // Which requests set the reference step's latency: per algorithm, the p50
  // over the three sweeps' reference steps and its share of the requests
  // faster than the overall p50.
  {
    std::vector<double> all;
    std::map<wqe::Algorithm, std::vector<double>> by_algo;
    for (const auto& steps : sweeps) {
      const StepResult& ref = steps[kReferenceStep];
      all.insert(all.end(), ref.latency_ms.begin(), ref.latency_ms.end());
      for (size_t k = 0; k < ref.latency_ms.size(); ++k) {
        by_algo[distinct[ref.question[k]].algorithm].push_back(ref.latency_ms[k]);
      }
    }
    const double p50 = Quantile(all, 0.5);
    const auto below = [p50](const std::vector<double>& ms) {
      return static_cast<double>(
          std::count_if(ms.begin(), ms.end(), [p50](double v) { return v < p50; }));
    };
    char line[128];
    std::snprintf(line, sizeof(line),
                  "reference step %.0f/s: p50 %.1f ms; per algorithm p50 / share of "
                  "requests below it:",
                  kRates[kReferenceStep], p50);
    std::string text = line;
    for (const auto& [algo, ms] : by_algo) {
      std::snprintf(line, sizeof(line), " %s %.1f ms / %.2f;", wqe::AlgorithmName(algo),
                    Quantile(ms, 0.5), below(ms) / std::max(1.0, below(all)));
      text += line;
    }
    report.Note(text);
  }
  // A failed check fails every request that asked that question (each
  // distinct request is sent once per round).
  size_t tainted = 0;
  for (size_t i = 0; i < distinct.size(); ++i) {
    if (bad[i]) ++tainted;
  }
  out.failed += tainted * rounds_sent;
  out.correct = out.failed == 0;
  report.Note("answer checks: " + std::to_string(distinct.size() - tainted) + "/" +
              std::to_string(distinct.size()) + " distinct questions pass; " +
              std::to_string(out.failed) + " failed of " + std::to_string(out.attempted) +
              " requests -> " + (out.correct ? "PASS" : "FAIL"));

  std::map<std::string, uint64_t> c;
  serving.obs->metrics.ForEachCounter([&c](const std::string& n, uint64_t v) { c[n] = v; });
  const uint64_t lookups = c["cache.hits"] + c["cache.misses"];
  const double cache_hit_rate =
      lookups == 0 ? 0 : static_cast<double>(c["cache.hits"]) / static_cast<double>(lookups);
  char line[256];
  std::snprintf(line, sizeof(line),
                "traffic: %zu distinct questions, %zu requests, recurrence share %.3f, "
                "shared-cache hit rate %.4f, evaluations/question %.2f, memo hit rate "
                "%.4f, delta.reverify_frac %.4f, concurrency %zu",
                distinct.size(), requests,
                requests == 0 ? 0.0 : static_cast<double>(recurring) / static_cast<double>(requests),
                cache_hit_rate,
                static_cast<double>(c["chase.evaluations"]) /
                    static_cast<double>(std::max<uint64_t>(c["serve.completed"], 1)),
                c["chase.evaluations"] + c["chase.memo_hits"] == 0
                    ? 0.0
                    : static_cast<double>(c["chase.memo_hits"]) /
                          static_cast<double>(c["chase.evaluations"] + c["chase.memo_hits"]),
                c["match.focus_verified"] == 0
                    ? 0.0
                    : static_cast<double>(c["delta_eval.reverified"]) /
                          static_cast<double>(c["match.focus_verified"]),
                concurrency);
  report.Note(line);

  // Each figure is taken from the least disturbed sweep: other tenants of
  // the machine only ever slow it down.
  auto best = [&sweeps](bool highest,
                        const std::function<double(const std::vector<StepResult>&)>& f) {
    double out = f(sweeps.front());
    for (const auto& steps : sweeps) {
      out = highest ? std::max(out, f(steps)) : std::min(out, f(steps));
    }
    return out;
  };
  const double n = static_cast<double>(distinct.size());
  if (!args.trace) {
    const size_t ref_samples = sweeps.front()[kReferenceStep].latency_ms.size();
    report.Add("setup_s", Median(setup), "s", setup.size());
    report.Add("questions_per_s",
               best(true, [](const auto& st) { return st.back().throughput; }), "1/s",
               sweeps.front().back().completed);
    report.Add("latency_p50_ms", best(false, [](const auto& st) {
                 return Quantile(st[kReferenceStep].latency_ms, 0.5);
               }), "ms", ref_samples);
    report.Add("latency_p90_ms", best(false, [](const auto& st) {
                 return Quantile(st[kReferenceStep].latency_ms, 0.9);
               }), "ms", ref_samples);
    report.Add("max_rate_qps",
               best(true, [](const auto& st) { return MaxRate(st); }),
               "1/s", kSweeps);
    report.Add("peak_rss_mb", peak_rss, "MiB");
    report.Add("closeness_mean", Mean(closeness), "ratio", distinct.size());
    report.Add("satisfied_frac", static_cast<double>(satisfied) / n, "ratio", distinct.size());
    report.Add("delta_mean", Mean(delta), "ratio", distinct.size());
    report.Add("ok_frac",
               1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
               "ratio", out.attempted);
    serving.Reset();
    RemoveTempDir(dir);
    return out;
  }

  report.Add("graph.index_build_s", Median(index_build), "s", index_build.size());
  report.Add("store.bundle_open_s", Median(opens), "s", opens.size());
  // The layer replay does not depend on the algorithm: replay each distinct
  // question once. AnsW's catalog questions cover AnsHeu's and ApxWhyM's.
  std::vector<Question> replay;
  for (const Question& q : distinct) {
    if (q.algorithm == wqe::Algorithm::kAnsW || q.algorithm == wqe::Algorithm::kAnsWE) {
      replay.push_back(q);
    }
  }
  ReplayLayers(g, indexes, replay, args.seconds * 0.3, report);
  ReportWasteRatios(serving.obs->metrics,
                    static_cast<double>(std::max<uint64_t>(c["serve.completed"], 1)), report);
  ReportPhaseShares(server.MergedPhases(), report);
  report.Add("serve.queue_wait_p90_ms", best(false, [](const auto& st) {
               return Quantile(st.back().queue_ms, 0.9);
             }), "ms", sweeps.front().back().queue_ms.size());
  report.Add("serve.solve_p90_ms", best(false, [](const auto& st) {
               return Quantile(st.back().solve_ms, 0.9);
             }), "ms", sweeps.front().back().solve_ms.size());
  report.Add("serve.shed_frac",
             static_cast<double>(shed) /
                 static_cast<double>(std::max<uint64_t>(out.attempted, 1)),
             "ratio", out.attempted);
  report.Add("serve.generator_lag_ms", Quantile(lag, 0.9), "ms", lag.size());
  report.Add("serve.plan_hits", static_cast<double>(server.shared_plans().hits()), "count");
  report.Add("serve.cache_hit_rate", cache_hit_rate, "ratio");

  // Tracing overhead: warm sequential asks of each distinct question, once
  // with a span around the call and once without, in alternating order.
  SpanLog log;
  double untraced = 0, traced = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < distinct.size(); ++i) {
      for (size_t k = 0; k < 2; ++k) {
        const bool with_spans = (i + pass + k) % 2 == 1;
        wqe::Timer t;
        if (with_spans) {
          SpanLog::Scope s(&log, "serve", i);
          server.Serve(distinct[i].ToRequest(next_id++));
        } else {
          server.Serve(distinct[i].ToRequest(next_id++));
        }
        (with_spans ? traced : untraced) += t.ElapsedSeconds();
      }
    }
  }
  report.Add("obs.trace_overhead_frac", untraced > 0 ? traced / untraced - 1.0 : 0,
             "ratio", 2 * distinct.size());
  serving.Reset();
  RemoveTempDir(dir);
  return out;
}

}  // namespace perfbench
