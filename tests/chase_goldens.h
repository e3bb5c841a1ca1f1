#ifndef WQE_TESTS_CHASE_GOLDENS_H_
#define WQE_TESTS_CHASE_GOLDENS_H_

// Golden pins for chase output. tests/golden/off_arm_goldens.txt holds the
// fingerprints the retired control arms produced — full (non-delta)
// evaluation and the interpreted candidate probes — recorded before those
// arms were deleted. The single remaining evaluation path is pinned against
// them byte for byte, so a regression in delta evaluation or in the compiled
// filter plans still shows up as a diff against the reference semantics.
//
// File format: records of the form "== <key> <byte count>\n<bytes>\n".
// Tests that include this header define WQE_SOURCE_DIR (tests/CMakeLists.txt).

#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>

#include "chase/multi_focus.h"
#include "chase/result.h"

namespace wqe {

/// Everything a ChaseResult reports except wall-clock fields, resource
/// telemetry and work counters: termination, the explored tree (steps,
/// pruned — the bound cut counts a skipped child as pruned exactly like its
/// post-evaluation verdict would) and every answer byte. Doubles print at
/// round-trip precision.
inline std::string InvariantFingerprint(const ChaseResult& r) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << static_cast<int>(r.termination()) << '|' << r.stats.steps << '|'
      << r.stats.ops_generated << '|' << r.stats.pruned << '|' << r.cl_star
      << '\n';
  for (const WhyAnswer& a : r.answers) {
    out << a.fingerprint << '|' << a.cost << '|' << a.closeness << '|'
        << a.satisfies_exemplar << '|';
    for (NodeId v : a.matches) out << v << ',';
    out << '\n';
  }
  return out.str();
}

/// InvariantFingerprint plus the evaluation count — for comparisons where
/// the amount of work must match too.
inline std::string ResultFingerprint(const ChaseResult& r) {
  return "evaluations=" + std::to_string(r.stats.evaluations) + '\n' +
         InvariantFingerprint(r);
}

/// The multi-focus analogue of InvariantFingerprint.
inline std::string MultiFocusFingerprint(const MultiFocusResult& r) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << r.stats.steps << '|' << r.stats.pruned << '|' << r.cl_star_total
      << '\n';
  for (const MultiFocusAnswer& a : r.answers) {
    out << a.fingerprint << '|' << a.cost << '|' << a.total_closeness << '|'
        << a.satisfies_all << '|';
    for (const auto& matches : a.matches_per_focus) {
      for (NodeId v : matches) out << v << ',';
      out << ';';
    }
    out << '\n';
  }
  return out.str();
}

/// The recorded off-arm goldens (key → recorded bytes), parsed once per
/// test binary. An unreadable or malformed file yields an empty map, so
/// every lookup then fails loudly.
inline const std::map<std::string, std::string>& OffArmGoldens() {
  using Goldens = std::map<std::string, std::string>;
  static const Goldens goldens = []() -> Goldens {
    Goldens g;
    std::ifstream in(std::string(WQE_SOURCE_DIR) +
                     "/tests/golden/off_arm_goldens.txt");
    std::string marker, key;
    size_t size = 0;
    while (in >> marker >> key >> size) {
      if (marker != "==" || in.get() != '\n') return {};
      std::string bytes(size, '\0');
      if (!in.read(bytes.data(), static_cast<std::streamsize>(size)) ||
          in.get() != '\n') {
        return {};
      }
      g[key] = std::move(bytes);
    }
    if (!in.eof()) g.clear();
    return g;
  }();
  return goldens;
}

/// The golden recorded under `key`, or a marker that cannot equal any
/// fingerprint when the key is missing.
inline std::string OffArmGolden(const std::string& key) {
  const auto& g = OffArmGoldens();
  auto it = g.find(key);
  return it == g.end() ? "<no golden recorded for " + key + ">" : it->second;
}

}  // namespace wqe

#endif  // WQE_TESTS_CHASE_GOLDENS_H_
