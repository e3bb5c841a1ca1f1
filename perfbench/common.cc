#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"

namespace perfbench {

void Report::Add(const std::string& name, double value, const std::string& unit,
                 size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print() const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("%-34s %16.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values are not JSON; report them as 0 (none is expected).
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1 - frac) + xs[hi] * frac;
}

double Median(std::vector<double> xs) { return Quantile(std::move(xs), 0.5); }

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, uint64_t request)
    : log_(log), index_(log->spans_.size()) {
  const int64_t parent =
      log->open_.empty() ? -1 : static_cast<int64_t>(log->open_.back());
  log->spans_.push_back({name, NowNs(), 0, parent, request});
  log->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  log_->spans_[index_].end_ns = NowNs();
  log_->open_.pop_back();
}

std::map<std::string, SpanLog::Layer> SpanLog::Summarize() const {
  // Child coverage per span; children nest inside their parent on one
  // thread, so summing child durations gives the covered part.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Layer> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t dur = s.end_ns - s.start_ns;
    Layer& l = out[s.name];
    ++l.count;
    l.total_seconds += static_cast<double>(dur) / 1e9;
    l.self_seconds += static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e9;
  }
  return out;
}

namespace {

// §7 protocol: 3 edges, up to 3 literals, 3 disturbing operators with
// refine probability 0.6, at most 10 exemplar tuples.
wqe::WhyFactoryOptions Protocol(uint64_t seed) {
  wqe::WhyFactoryOptions opts;
  opts.query.num_edges = 3;
  opts.query.max_literals = 3;
  opts.disturb.num_ops = 3;
  opts.disturb.refine_prob = 0.6;
  opts.max_tuples = 10;
  opts.seed = seed;
  return opts;
}

// The library derives each case's seed from the start seed plus its index,
// so catalogs start far apart; catalog 1 starts at generator seed 1.
uint64_t CatalogStart(uint64_t catalog_seed) {
  return 1 + (catalog_seed - 1) * 100003;
}

}  // namespace

std::vector<wqe::BenchCase> MakeCatalog(const wqe::Graph& g, size_t n,
                                        uint64_t catalog_seed) {
  return wqe::MakeBenchCases(g, n, Protocol(CatalogStart(catalog_seed)));
}

std::vector<wqe::BenchCase> MakeEmptyCatalog(const wqe::Graph& g, size_t n,
                                             uint64_t catalog_seed) {
  wqe::WhyFactoryOptions opts = Protocol(CatalogStart(catalog_seed));
  opts.query.num_edges = 2;  // as Fig 12(c)
  return wqe::MakeWhyEmptyCases(g, n, opts);
}

wqe::ChaseOptions PaperChaseOptions() {
  wqe::ChaseOptions opts;
  opts.budget = 3;
  opts.beam = 2;
  opts.max_steps = 4000;
  opts.time_limit_seconds = 0;
  opts.num_threads = 1;
  return opts;
}

}  // namespace perfbench
