#ifndef WQE_MATCH_STAR_TABLE_H_
#define WQE_MATCH_STAR_TABLE_H_

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "graph/bfs.h"
#include "match/candidate_set.h"
#include "match/filter_plan.h"
#include "match/star.h"

namespace wqe {

struct MatchStats;

namespace store {
class Serde;
}  // namespace store

/// One (node, distance) entry in a star-table cell.
struct SpokeMatch {
  NodeId node;
  uint32_t dist;
};

/// One row of a star table T_i(G) (§2.3): the j-th match of the center plus,
/// per spoke, the set of (match, distance) pairs of that spoke's node inside
/// the center match's bounded neighborhood.
struct StarRow {
  NodeId center;
  std::vector<std::vector<SpokeMatch>> spoke_matches;  // parallel to spokes
  /// Focus matches via the augmented edge; empty when the star already
  /// contains the focus (center or spoke).
  std::vector<SpokeMatch> focus_matches;
};

/// Materialized star view T_i(G): the compact encoding of Q_i's matches.
/// Relevance of focus occurrences (the v.stat flag of §2.3) is kept by the
/// evaluation layer's RelevanceSets — tables themselves are relevance-free so
/// the view cache can share them across chase steps that only reclassify.
class StarTable {
 public:
  StarTable(StarQuery star, QNodeId focus) : star_(std::move(star)), focus_(focus) {}

  const StarQuery& star() const { return star_; }
  const std::vector<StarRow>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  /// All nodes seen in the focus position across rows (sorted, unique).
  /// Star-view evaluation intersects these across stars to prune V_{u_o}.
  const std::vector<NodeId>& focus_occurrences() const { return focus_occ_; }

  /// Whether `v` occurs in the focus position of any row — the delta
  /// evaluation path's per-candidate probe (chase/delta_eval): a refine-only
  /// re-verification intersects the (small) parent match set with each
  /// surviving star's focus bitset, O(1) per probe, without building full
  /// occurrence intersections. Falls back to binary search when the bitset
  /// stayed disengaged (sparse occurrences over a huge id range).
  bool ContainsFocusOccurrence(NodeId v) const {
    if (focus_bits_.engaged()) return focus_bits_.Test(v);
    return std::binary_search(focus_occ_.begin(), focus_occ_.end(), v);
  }

  /// All center matches (sorted, unique). Tables are addressed by *role*
  /// (center / spoke index / focus), never by query node id: the view cache
  /// shares tables across rewrites whose node ids differ but whose star
  /// signatures — which fix the canonical spoke order — agree.
  const std::vector<NodeId>& center_occurrences() const { return center_occ_; }

  /// All matches seen by spoke `s` (sorted, unique).
  const std::vector<NodeId>& spoke_occurrences(size_t s) const {
    return spoke_occ_[s];
  }

  /// Row whose center match is `v`, or nullptr.
  const StarRow* RowOfCenter(NodeId v) const;

  /// Approximate memory footprint in entries (cache accounting).
  size_t EntryCount() const { return entry_count_; }

 private:
  friend class StarMaterializer;
  friend class store::Serde;  // binary snapshot encode/decode

  /// (Re)derives the focus bitset from focus_occ_. Called after the
  /// occurrence sets settle — by the materializer and by snapshot decode, so
  /// heap-built and store-loaded tables probe identically. The memory cap
  /// keeps the bitset within a small factor of the occurrence vector.
  void RebuildFocusBits() {
    focus_bits_.Assign(focus_occ_,
                       std::max<size_t>(256, focus_occ_.size()));
  }

  StarQuery star_;
  QNodeId focus_;
  std::vector<StarRow> rows_;
  std::unordered_map<NodeId, size_t> row_of_center_;
  std::vector<NodeId> focus_occ_;
  std::vector<NodeId> center_occ_;
  std::vector<std::vector<NodeId>> spoke_occ_;  // parallel to star_.spokes
  match::RangeBitset focus_bits_;  // derived from focus_occ_, not serialized
  size_t entry_count_ = 0;
};

/// Builds star tables against a fixed graph. Holds BFS scratch; concurrent
/// Materialize calls on one instance are not allowed, but the build itself
/// fans out internally when num_threads > 1.
class StarMaterializer {
 public:
  explicit StarMaterializer(const Graph& g) : g_(g), bfs_(g) {}

  /// Workers for row construction (0 = hardware concurrency, 1 = serial).
  /// Rows are computed per center candidate on per-thread BFS scratch and
  /// assembled in center order, so tables are identical for every setting.
  void set_num_threads(size_t n) { num_threads_ = n; }

  /// Sink for the candidate-funnel counters (candidates_seeded/_filtered):
  /// table builds are where center candidates are actually seeded from label
  /// buckets and filtered by predicates, so the stage accounting lives here.
  /// Null (the default) disables it. The pointee must outlive this builder.
  void set_stats(MatchStats* stats) { stats_ = stats; }

  /// Arms a wall-clock deadline checked every kDeadlineCheckStride rows:
  /// Materialize throws DeadlineExceeded instead of finishing the table, so
  /// a huge star cannot blow past time_limit_seconds by a whole build pass.
  /// Null disarms (the default — index/cache prewarming runs unbounded).
  /// `d` must outlive the armed period; StarMatcher forwards its own.
  void set_deadline(const Deadline* d) { deadline_ = d; }

  /// Materializes T_i(G) for `star` of query `q`: one row per center match
  /// (center candidates whose every spoke has at least one match and, for
  /// focus-augmented stars, at least one focus candidate in range). `plans`,
  /// when non-null, supplies `q`'s already-compiled filters (the matcher's
  /// plan memo holds them per rewrite); null compiles a local set.
  std::shared_ptr<const StarTable> Materialize(
      const PatternQuery& q, const StarQuery& star,
      const match::QueryFilterPlans* plans = nullptr);

 private:
  /// The row for center candidate `c`, or false if not viable. Every node
  /// probe runs `plans`, the query's compiled filters.
  bool BuildRow(const PatternQuery& q, const StarQuery& star, NodeId c,
                BoundedBfs& bfs, const match::QueryFilterPlans& plans,
                StarRow& row) const;

  const Graph& g_;
  BoundedBfs bfs_;
  size_t num_threads_ = 1;
  MatchStats* stats_ = nullptr;
  const Deadline* deadline_ = nullptr;
};

}  // namespace wqe

#endif  // WQE_MATCH_STAR_TABLE_H_
