// Cluster membership (Section 3.1).
//
// A cluster is a set of nodes that are pairwise connected and know each
// other's identities; it is also a vertex of the OVER overlay. All protocol
// decisions of a cluster are taken collectively (randNum) and all statements
// a cluster makes to the outside are believed only when more than half of
// its members say the same thing (cluster/intercluster.hpp) — which is sound
// exactly while > 2/3 of the members are honest, the invariant NOW maintains.
//
// Storage: a Cluster is a thin view (id + slot) over the deployment's shared
// MemberSlab (member_slab.hpp) — its sorted member list is the slab extent
// of its slot. The slab outlives and never moves relative to its clusters
// (NowState owns it behind a unique_ptr), so the raw pointer is stable.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <vector>

#include "cluster/member_slab.hpp"
#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace now::cluster {

/// Merges sorted `removals` out of and sorted `additions` into the sorted
/// `members` run, writing the result into `out` (cleared first; capacity
/// persists across calls). O(|members| + |edits|). Additions must all be
/// absent from `members`; a removal that is not present — a stale removal
/// list — throws std::invalid_argument instead of silently corrupting the
/// membership (the old debug-only assert let the reserve below underflow
/// and wrap in release builds).
inline void merge_sorted_edits(std::span<const NodeId> members,
                               std::span<const NodeId> removals,
                               std::span<const NodeId> additions,
                               std::vector<NodeId>& out) {
  if (removals.size() > members.size()) {
    throw std::invalid_argument(
        "merge_sorted_edits: more removals than members");
  }
  out.clear();
  out.reserve(members.size() - removals.size() + additions.size());
  auto removal = removals.begin();
  auto addition = additions.begin();
  for (const NodeId m : members) {
    while (addition != additions.end() && *addition < m) {
      out.push_back(*addition++);
    }
    if (removal != removals.end() && *removal == m) {
      ++removal;
      continue;
    }
    out.push_back(m);
  }
  if (removal != removals.end()) {
    throw std::invalid_argument("merge_sorted_edits: removal of a non-member");
  }
  while (addition != additions.end()) out.push_back(*addition++);
}

class Cluster {
 public:
  Cluster(ClusterId id, MemberSlab& slab, std::size_t slot)
      : id_(id), slab_(&slab), slot_(static_cast<std::uint32_t>(slot)) {}

  [[nodiscard]] ClusterId id() const { return id_; }
  [[nodiscard]] std::span<const NodeId> members() const {
    return slab_->members(slot_);
  }
  [[nodiscard]] std::size_t size() const { return slab_->size(slot_); }

  [[nodiscard]] bool contains(NodeId node) const {
    const auto m = members();
    return std::binary_search(m.begin(), m.end(), node);
  }

  void add_member(NodeId node) { slab_->insert_sorted(slot_, node); }

  void remove_member(NodeId node) { slab_->erase_sorted(slot_, node); }

  /// Bulk membership update in one merge pass: drops `removals` and splices
  /// in `additions` (both sorted; removals must all be present — enforced —
  /// additions all absent). O(|members| + |edits|) where one
  /// add/remove_member call each is O(|members|). `scratch` is the caller's
  /// reusable buffer (capacity persists across calls, contents ignored).
  /// Sequential only: the extent may relocate. The batch commit's parallel
  /// stage 1 instead rebuilds every touched extent from node_home
  /// (NowState::rebuild_memberships, one counting sort by node id).
  void apply_sorted_edits(std::span<const NodeId> removals,
                          std::span<const NodeId> additions,
                          std::vector<NodeId>& scratch) {
    merge_sorted_edits(members(), removals, additions, scratch);
    slab_->assign(slot_, scratch);
  }

  /// Member at sorted position `index` (used with randNum for uniform picks).
  [[nodiscard]] NodeId member_at(std::size_t index) const {
    assert(index < size());
    return members()[index];
  }

  /// Uniformly random member.
  [[nodiscard]] NodeId random_member(Rng& rng) const {
    const auto m = members();
    assert(!m.empty());
    return m[rng.uniform(m.size())];
  }

 private:
  ClusterId id_;
  MemberSlab* slab_;
  std::uint32_t slot_;
};

/// Number of `cluster`'s members that belong to `byzantine`.
[[nodiscard]] inline std::size_t byzantine_count(const Cluster& cluster,
                                                 const NodeSet& byzantine) {
  std::size_t count = 0;
  for (const NodeId m : cluster.members())
    if (byzantine.contains(m)) ++count;
  return count;
}

/// byzantine_count for callers that already hold the Byzantine ids SORTED:
/// streams the slab extent once with a binary search per member instead of
/// a paged NodeSet lookup — the shape every invariant / adversary sweep
/// wants, since it builds one sorted copy and scans all clusters.
[[nodiscard]] inline std::size_t byzantine_count(
    const Cluster& cluster, std::span<const NodeId> sorted_byzantine) {
  assert(std::is_sorted(sorted_byzantine.begin(), sorted_byzantine.end()));
  std::size_t count = 0;
  for (const NodeId m : cluster.members()) {
    if (std::binary_search(sorted_byzantine.begin(), sorted_byzantine.end(),
                           m)) {
      ++count;
    }
  }
  return count;
}

/// Fraction of Byzantine members (p_C in the paper's analysis, Section 4).
[[nodiscard]] inline double byzantine_fraction(const Cluster& cluster,
                                               const NodeSet& byzantine) {
  if (cluster.size() == 0) return 0.0;
  return static_cast<double>(byzantine_count(cluster, byzantine)) /
         static_cast<double>(cluster.size());
}

/// byzantine_fraction over a sorted Byzantine id span (see byzantine_count).
[[nodiscard]] inline double byzantine_fraction(
    const Cluster& cluster, std::span<const NodeId> sorted_byzantine) {
  if (cluster.size() == 0) return 0.0;
  return static_cast<double>(byzantine_count(cluster, sorted_byzantine)) /
         static_cast<double>(cluster.size());
}

}  // namespace now::cluster
