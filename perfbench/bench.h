#ifndef WQE_PERFBENCH_BENCH_H_
#define WQE_PERFBENCH_BENCH_H_

// Shared pieces of the Why-question benchmark: command-line options, the
// generated question pools, metric reporting, sample statistics and the
// benchmark-side span log that times calls into the library's layers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chase/solve.h"
#include "workload/why_factory.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// answ_imdb only: "answ" asks with the paper's AnsW configuration,
  /// "answb" with the unoptimized AnsWb baseline (the sensitivity check).
  std::string config = "answ";
  /// answ_imdb and serve_mix: seed of the fixed question catalog.
  uint64_t catalog_seed = 1;
};

/// One generated Why-question (with its ground truth and the original
/// query's answer) and the algorithm and options it is asked under.
struct Question {
  wqe::BenchCase c;
  wqe::Algorithm algorithm = wqe::Algorithm::kAnsW;
  wqe::ChaseOptions options;

  wqe::Request ToRequest(uint64_t id) const {
    wqe::Request req;
    req.question = c.question;
    req.options = options;
    req.algorithm = algorithm;
    req.id = id;
    return req;
  }
};

/// Metric lines in print order. Print() writes one human-readable line per
/// metric; Json() renders the final result object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  /// Free-form "# ..." line (traffic properties, check verdicts).
  void Note(const std::string& line);
  void Print() const;
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Linear-interpolated quantile of `xs` (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> xs, double q);
double Median(std::vector<double> xs);
double Mean(const std::vector<double>& xs);

/// Peak resident set size of this process so far, in MiB (VmHWM).
double PeakRssMb();

uint64_t NowNs();

/// Derives independent sub-seeds from the run seed (splitmix64).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// In-memory span log for the traced runs. Each span has a name, start,
/// end, the span that caused it and the request it belongs to; a layer's
/// self time is its duration minus what its child spans cover. Spans are
/// only opened in benchmark code, around calls into the library.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    size_t index_;
  };

  struct Layer {
    uint64_t count = 0;
    double total_seconds = 0;
    double self_seconds = 0;
  };

  /// Per-name totals over every closed span.
  std::map<std::string, Layer> Summarize() const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    uint64_t request;
  };
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// The fixed catalogs. The dataset graphs are the library's presets; the
/// catalog seed picks the questions. MakeCatalog gives the first `n` §7
/// questions the library's generator yields from `catalog_seed` (catalog
/// seed 1 gives the figure benches' default WQE_SEED=1 questions);
/// MakeEmptyCatalog the first `n` Why-Empty questions (two pattern edges, as
/// Fig 12(c)).
std::vector<wqe::BenchCase> MakeCatalog(const wqe::Graph& g, size_t n,
                                        uint64_t catalog_seed);
std::vector<wqe::BenchCase> MakeEmptyCatalog(const wqe::Graph& g, size_t n,
                                             uint64_t catalog_seed);

/// The paper's §7 chase options: B = 3, beam 2, the deterministic max_steps
/// cap, no wall-clock limit, one thread.
wqe::ChaseOptions PaperChaseOptions();

}  // namespace perfbench

#endif  // WQE_PERFBENCH_BENCH_H_
