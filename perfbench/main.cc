// The Why-question benchmark. One command per workload:
//
//   wqe_perfbench --workload <answ_imdb|serve_mix>
//                 --seed N --seconds S --trace <0|1>
//                 [--config answ|answb] [--catalog-seed N]
//   wqe_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics. Human-readable lines come first; the
// last line of standard output is the JSON result. See README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "checks.h"
#include "workloads.h"

namespace {

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: wqe_perfbench --workload answ_imdb|serve_mix "
               "--seed N --seconds S --trace 0|1 [--config answ|answb] "
               "[--catalog-seed N]\n"
               "       wqe_perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") return perfbench::RunSelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args.seed)) return Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &n) || n == 0 || n > 3600) {
        return Usage("--seconds takes an integer in [1, 3600]");
      }
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &n) || n > 1) return Usage("--trace takes 0 or 1");
      args.trace = n == 1;
      have_trace = true;
    } else if (flag == "--config") {
      args.config = value;
      if (args.config != "answ" && args.config != "answb") {
        return Usage("--config takes answ or answb");
      }
    } else if (flag == "--catalog-seed") {
      if (!ParseUnsigned(value, &args.catalog_seed)) {
        return Usage("--catalog-seed takes an integer");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::RunOutcome out;
  if (args.workload == "answ_imdb") {
    out = perfbench::RunAnswImdb(args);
  } else if (args.workload == "serve_mix") {
    if (args.config != "answ") return Usage("--config applies to answ_imdb only");
    out = perfbench::RunServeMix(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  out.report.Print();
  std::printf("%s\n", out.report.Json(out.correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return 0;
}
