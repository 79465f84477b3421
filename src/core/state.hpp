// Shared mutable state of a NOW deployment: the cluster partition, the
// node -> cluster map, the OVER overlay, and the (simulation-only) ground
// truth of which nodes the adversary controls.
//
// Protocol code never *reads* the byzantine set to make decisions — honest
// logic is oblivious to it. It is consulted only (a) by primitives whose
// outcome genuinely depends on adversarial membership (e.g. the inter-
// cluster majority rule) and (b) by invariant checks and experiment metrics,
// mirroring the role of the adversary's full knowledge in the paper's model.
//
// Storage layout (the flat-state refactor + the membership slab): every
// container on the join/leave/exchange hot path is O(1) or O(log k)
// amortized.
//   * clusters — a slot table (vector + free list) addressed through a paged
//     ClusterId -> slot index, with a dense list of live ids for O(1)
//     uniform sampling;
//   * member lists — ONE flat NodeId pool (cluster/member_slab.hpp) carved
//     into per-slot extents with amortized headroom; each Cluster is a thin
//     view over its extent, so stage-1 membership-rebuild workers scatter
//     into one pool instead of k separate vectors. The slab
//     lives behind a unique_ptr so the Cluster views' slab pointer survives
//     NowState moves;
//   * cluster sizes — mirrored in a Fenwick tree over slots, making the
//     size-biased draw (randCl's limit law) O(log k) instead of O(k);
//   * node_home / the live-node registry — paged arrays keyed by the
//     sequential NodeId values;
//   * byzantine — a flat NodeSet (dense vector + paged positions).
// All membership mutations MUST flow through add_member / remove_member /
// move_node so the Fenwick mirror stays consistent; Cluster objects are
// only handed out const. Two sanctioned exceptions:
//   * corrupt_home_for_test, for invariant tests that need to break the
//     bookkeeping on purpose;
//   * the parallel-commit primitives (commit_home / clear_home /
//     rebuild_memberships / commit_spilled_members / apply_size_deltas /
//     adjust_placed_count), the resolve/stage-1/stage-2 split of the
//     sharded batch commit (DESIGN.md §7): the sequential resolve writes
//     every node's final home into node_home, stage 1 rebuilds every
//     touched slot's member extent from node_home with one shard-parallel
//     counting sort in NodeId order (node_home is read-only during it; the
//     pages it found empty are released after it), slots whose rebuilt
//     membership outgrew their extent are spilled to a sequential stage-2
//     commit, and the Fenwick mirror and the placed-node count are
//     reconciled afterwards in one sequential merge. Their contracts spell
//     out exactly which shared structure each one may touch.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/member_slab.hpp"
#include "common/fenwick.hpp"
#include "common/node_set.hpp"
#include "common/paged_index.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "over/overlay.hpp"

namespace now::core {

class SnapshotReader;
class SnapshotWriter;

/// Stage 1 found a cluster whose membership rebuilt from node_home does not
/// have the size the resolve recorded for it, or a home naming no live
/// cluster: node_home and the resolve's per-slot net counts disagree (a
/// resolve bug, or a home forged by corrupt_home_for_test). Thrown before
/// any extent is written.
class MembershipMismatch : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class NowState {
 public:
  explicit NowState(const over::OverParams& over_params)
      : overlay(over_params),
        cluster_slot_(kNoSlot),
        slab_(std::make_unique<cluster::MemberSlab>()),
        node_home_(ClusterId::invalid()) {}

  /// The OVER overlay (vertices are the live ClusterIds).
  over::Overlay overlay;

  /// Ground truth of adversarial control (see the header comment).
  NodeSet byzantine;

  // ------------------------------------------------------------- identities

  [[nodiscard]] NodeId fresh_node_id() { return NodeId{next_node_id_++}; }

  // --------------------------------------------------------------- clusters

  /// Creates an empty cluster with a fresh id and returns the id.
  ClusterId create_cluster() {
    const ClusterId id{next_cluster_id_++};
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slab_->acquire_slot(slot);
      slots_[slot].emplace(id, *slab_, slot);
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slab_->acquire_slot(slot);
      slots_.emplace_back(std::in_place, id, *slab_, slot);
      live_pos_.push_back(0);
      if (sizes_.size() < slots_.size()) {
        sizes_.resize(std::max<std::size_t>(16, 2 * slots_.size()));
      }
    }
    cluster_slot_.set(id.value(), slot);
    live_pos_[slot] = static_cast<std::uint32_t>(live_ids_.size());
    live_ids_.push_back(id);
    return id;
  }

  /// Removes an (empty) cluster. The members must have been moved out or
  /// removed first — destroying a populated cluster would silently strand
  /// node_home entries.
  void destroy_cluster(ClusterId id) {
    const std::uint32_t slot = slot_of(id);
    assert(slots_[slot]->size() == 0 && "destroying a populated cluster");
    const std::uint32_t at = live_pos_[slot];
    const ClusterId moved = live_ids_.back();
    live_ids_[at] = moved;
    live_pos_[slot_of(moved)] = at;
    live_ids_.pop_back();
    slab_->release_slot(slot);
    slots_[slot].reset();
    cluster_slot_.unset(id.value());
    free_slots_.push_back(slot);
  }

  [[nodiscard]] bool has_cluster(ClusterId id) const {
    return cluster_slot_.get(id.value()) != kNoSlot;
  }

  [[nodiscard]] const cluster::Cluster& cluster_at(ClusterId id) const {
    return *slots_[slot_of(id)];
  }

  /// Live cluster ids, densely packed. Deterministic but unspecified order
  /// (ids move on destroy); do not assume id order.
  [[nodiscard]] std::span<const ClusterId> cluster_ids() const {
    return live_ids_;
  }

  [[nodiscard]] std::size_t num_clusters() const { return live_ids_.size(); }
  [[nodiscard]] std::size_t num_nodes() const { return placed_count_; }

  /// Stable slot index of a live cluster — the sharded batch step's
  /// partition key (operations are grouped by home-cluster slot modulo the
  /// shard count, see DESIGN.md §7). Slots are reused after destroy, so the
  /// value is only meaningful while the cluster is alive.
  [[nodiscard]] std::size_t slot_index(ClusterId id) const {
    return slot_of(id);
  }

  /// The shared membership arena (read-only).
  [[nodiscard]] const cluster::MemberSlab& member_slab() const {
    return *slab_;
  }

  // ------------------------------------------------------------- membership

  /// Adds `node` to cluster `c` and records the home mapping.
  void add_member(ClusterId c, NodeId node) {
    const std::uint32_t slot = slot_of(c);
    slots_[slot]->add_member(node);
    node_home_.set(node.value(), c);
    sizes_.add(slot, 1);
    ++placed_count_;
  }

  /// Removes `node` from cluster `c` and clears the home mapping.
  void remove_member(ClusterId c, NodeId node) {
    const std::uint32_t slot = slot_of(c);
    slots_[slot]->remove_member(node);
    node_home_.unset(node.value());
    sizes_.subtract(slot, 1);
    assert(placed_count_ > 0);
    --placed_count_;
  }

  /// Moves a node between clusters, keeping node_home consistent.
  void move_node(NodeId node, ClusterId from, ClusterId to) {
    assert(home_of(node) == from);
    const std::uint32_t from_slot = slot_of(from);
    const std::uint32_t to_slot = slot_of(to);
    slots_[from_slot]->remove_member(node);
    slots_[to_slot]->add_member(node);
    node_home_.set(node.value(), to);
    sizes_.subtract(from_slot, 1);
    sizes_.add(to_slot, 1);
  }

  /// Home cluster of `node`, or ClusterId::invalid() when the node is not
  /// currently placed in any cluster.
  [[nodiscard]] ClusterId home_of(NodeId node) const {
    return node_home_.get(node.value());
  }

  [[nodiscard]] bool is_placed(NodeId node) const {
    return home_of(node).valid();
  }

  /// Hints the cache that `node`'s home entry is about to be read — the
  /// batch partition and resolve sweeps issue this one op ahead so the
  /// paged-index line is in flight while the current op is processed.
  void prefetch_home(NodeId node) const { node_home_.prefetch(node.value()); }

  /// Deliberately mis-points a node's home entry without touching cluster
  /// membership — invariant tests use this to fabricate broken bookkeeping.
  void corrupt_home_for_test(NodeId node, ClusterId wrong) {
    node_home_.set(node.value(), wrong);
  }

  // ------------------------------------------------- parallel commit (§7)
  //
  // The sharded batch commit resolves membership moves sequentially in
  // canonical order (commit_home / clear_home keep node_home current as it
  // goes), so when the resolve ends node_home holds every node's final
  // home — the one record of where each node ends up. Stage 1
  // (rebuild_memberships) then derives every touched cluster's membership
  // from node_home with one shard-parallel counting sort in NodeId order,
  // writing each slot's new members in place into its slab extent, or into
  // a spill buffer when they outgrew the extent's cap (the spill set
  // depends only on the rebuilt sizes and extent caps, so it is
  // shard-independent). node_home is read-only for the whole of stage 1;
  // the pages its scan found empty are released right after, sequentially.
  // These primitives deliberately do NOT maintain the Fenwick size mirror
  // or the placed-node count — stage 2 first re-homes the spilled slots
  // (commit_spilled_members, ascending slot order), then folds the size
  // deltas back in sequentially. Between the resolve pass and the matching
  // apply_size_deltas/adjust_placed_count calls, the size-dependent
  // samplers (random_cluster_size_biased, num_nodes) and the member extents
  // are out of sync with node_home and must not be consulted.

  /// Reusable buffers of stage 1 (capacities persist across
  /// rebuild_memberships calls; contents are ignored on entry). `spills`
  /// is the output: the slots whose rebuilt membership did not fit their
  /// extent, in ascending slot order, with their sorted members — the
  /// caller commits them sequentially in stage 2 and clears the list.
  struct StageOneScratch {
    /// Allocated node_home pages, ascending; worker w scans the w-th
    /// contiguous share of them.
    std::vector<std::size_t> pages;
    /// Per worker, by slot: pass-1 counts of the ids homed at the slot,
    /// turned into the worker's write offsets for pass 2.
    std::vector<std::vector<std::uint32_t>> counts;
    /// Per worker: scanned pages that held no placed node.
    std::vector<std::vector<std::size_t>> empty_pages;
    /// By slot: where pass 2 writes the slot's members (extent or spill
    /// buffer); null for a slot that is not rebuilt.
    std::vector<NodeId*> dest;
    /// (slot, new size) of the slots rebuilt in place.
    std::vector<std::pair<std::size_t, std::size_t>> in_place;
    std::vector<std::pair<std::size_t, std::vector<NodeId>>> spills;
  };

  /// What one rebuild_memberships call scanned and freed.
  struct StageOneStats {
    std::size_t scanned = 0;         // node_home entries visited
    std::size_t pages_released = 0;  // empty node_home pages freed
  };

  /// Stage 1: rebuilds the membership of every slot in `touched_slots`
  /// (distinct, live) from node_home. `net_of_slot[slot]` is the resolve's
  /// signed size change for each touched slot (+1 per add, -1 per
  /// removal). Runs on `workers` tasks of `pool`, each owning a contiguous,
  /// page-aligned share of the allocated node_home pages:
  ///   1. (parallel) count, per slot, the ids homed there;
  ///   2. (sequential) per touched slot, check count - old size == net —
  ///      a mismatch throws MembershipMismatch before any write — turn the
  ///      per-worker counts into write offsets in worker order, and pick
  ///      the destination: the extent in place when the new size fits its
  ///      cap, else a spill buffer on scratch.spills;
  ///   3. (parallel) scatter each touched slot's ids to their offsets.
  /// Ids are scanned in ascending order, so every run is sorted by
  /// construction: the same bytes a per-cluster sort would produce. The
  /// in-place sizes are then committed, and the node_home pages the scan
  /// found empty are released (ids are never reused, so such a page stays
  /// empty until a set() re-allocates it) — the scan visits only pages
  /// that hold a placed node, not every id ever allocated. The Fenwick
  /// mirror and placed_count are intentionally left stale (see above).
  StageOneStats rebuild_memberships(std::span<const std::size_t> touched_slots,
                                    std::span<const std::int64_t> net_of_slot,
                                    ThreadPool& pool, std::size_t workers,
                                    StageOneScratch& scratch) {
    constexpr std::size_t kPageSize = PagedIndex<ClusterId>::kPageSize;
    assert(workers > 0);
    StageOneStats stats;
    if (touched_slots.empty()) return stats;
    scratch.pages.clear();
    for (std::size_t p = 0; p < node_home_.page_count(); ++p) {
      if (node_home_.page(p) != nullptr) scratch.pages.push_back(p);
    }
    stats.scanned = scratch.pages.size() * kPageSize;
    scratch.counts.resize(std::max(scratch.counts.size(), workers));
    scratch.empty_pages.resize(std::max(scratch.empty_pages.size(), workers));
    const std::size_t slot_count = slots_.size();
    // Calls fn(slot, id) for every placed id of worker w's pages, in id
    // order; records the pages holding none on `empties` when non-null.
    const auto scan = [&](std::size_t w, std::vector<std::size_t>* empties,
                          auto&& fn) {
      const std::size_t begin = w * scratch.pages.size() / workers;
      const std::size_t end = (w + 1) * scratch.pages.size() / workers;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t p = scratch.pages[i];
        const ClusterId* homes = node_home_.page(p);
        const NodeId::value_type base = p * kPageSize;
        bool placed = false;
        for (std::size_t k = 0; k < kPageSize; ++k) {
          if (!homes[k].valid()) continue;
          placed = true;
          const std::uint32_t slot = cluster_slot_.get(homes[k].value());
          if (slot == kNoSlot) {
            throw MembershipMismatch(
                "stage 1: node " + std::to_string(base + k) +
                " is homed at cluster " + std::to_string(homes[k].value()) +
                ", which does not exist");
          }
          fn(slot, NodeId{base + k});
        }
        if (!placed && empties != nullptr) empties->push_back(p);
      }
    };

    pool.parallel_for(workers, [&](std::size_t w) {
      std::vector<std::uint32_t>& count = scratch.counts[w];
      count.assign(slot_count, 0);
      scratch.empty_pages[w].clear();
      scan(w, &scratch.empty_pages[w],
           [&count](std::uint32_t slot, NodeId) { ++count[slot]; });
    });

    scratch.dest.assign(slot_count, nullptr);
    scratch.in_place.clear();
    scratch.spills.clear();
    for (const std::size_t slot : touched_slots) {
      assert(slot < slot_count && slots_[slot].has_value());
      std::uint32_t total = 0;
      for (std::size_t w = 0; w < workers; ++w) {
        const std::uint32_t c = scratch.counts[w][slot];
        scratch.counts[w][slot] = total;
        total += c;
      }
      const std::size_t old = slab_->size(slot);
      if (static_cast<std::int64_t>(total) - static_cast<std::int64_t>(old) !=
          net_of_slot[slot]) {
        throw MembershipMismatch(
            "stage 1: slot " + std::to_string(slot) + " rebuilt to " +
            std::to_string(total) + " members from " + std::to_string(old) +
            ", but the resolve recorded net " +
            std::to_string(net_of_slot[slot]));
      }
      if (total <= slab_->extent(slot).cap) {
        scratch.dest[slot] = slab_->extent_data(slot);
        scratch.in_place.emplace_back(slot, total);
      } else {
        scratch.spills.emplace_back(slot, std::vector<NodeId>(total));
        scratch.dest[slot] = scratch.spills.back().second.data();
      }
    }

    pool.parallel_for(workers, [&](std::size_t w) {
      std::uint32_t* cursor = scratch.counts[w].data();
      NodeId* const* dest = scratch.dest.data();
      scan(w, nullptr, [cursor, dest](std::uint32_t slot, NodeId node) {
        if (dest[slot] != nullptr) dest[slot][cursor[slot]++] = node;
      });
    });

    for (const auto& [slot, size] : scratch.in_place) {
      slab_->set_member_count(slot, size);
    }
    std::sort(scratch.spills.begin(), scratch.spills.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t w = 0; w < workers; ++w) {
      for (const std::size_t p : scratch.empty_pages[w]) {
        node_home_.release_page(p);
        ++stats.pages_released;
      }
    }
    return stats;
  }

  /// Stage 2 (sequential): re-homes a stage-1 spilled slot into a fresh
  /// tail extent. Callers commit spills in ascending slot order so the tail
  /// allocation sequence — and hence the slab layout — is canonical. Must
  /// run before apply_size_deltas (which checks sizes against the extents).
  void commit_spilled_members(std::size_t slot,
                              std::span<const NodeId> members) {
    assert(slot < slots_.size() && slots_[slot].has_value());
    slab_->assign(slot, members);
  }

  /// Stage 2 (sequential): gives the slab a compaction opportunity at the
  /// batch boundary, so dead space from relocations is bounded even when a
  /// batch triggers no sequential slab mutation of its own.
  void maybe_compact_slab() { slab_->maybe_compact(); }

  /// Writes a node's home as the resolve decides its move — node_home
  /// doubles as the commit's within-batch home map, so no separate scratch
  /// structure (or deferred write pass) is needed.
  void commit_home(NodeId node, ClusterId home) {
    node_home_.set(node.value(), home);
  }

  /// Clears a departing node's home mapping (sequential resolve phase).
  void clear_home(NodeId node) { node_home_.unset(node.value()); }

  /// Stage 2: folds the per-shard signed size deltas into the Fenwick
  /// mirror (slots must be live; a slot appears at most once per call since
  /// each slot is owned by exactly one shard).
  /// When `pool` is non-null the rebuild branch (delta count ~ slot count)
  /// runs the blocked shard-parallel Fenwick build — bit-identical to the
  /// sequential one (see FenwickTree::apply_deltas).
  void apply_size_deltas(
      std::span<const std::pair<std::size_t, std::int64_t>> deltas,
      ThreadPool* pool = nullptr, std::size_t blocks = 1) {
#ifndef NDEBUG
    for (const auto& [slot, delta] : deltas) {
      assert(slot < slots_.size() && slots_[slot].has_value());
      assert(static_cast<std::int64_t>(sizes_.value_at(slot)) + delta ==
             static_cast<std::int64_t>(slots_[slot]->size()));
    }
#endif
    sizes_.apply_deltas(deltas, pool, blocks);
  }

  /// Stage 2: reconciles the placed-node count with the batch's net
  /// join/leave balance (swaps are size-neutral).
  void adjust_placed_count(std::int64_t delta) {
    assert(delta >= 0 ||
           placed_count_ >= static_cast<std::size_t>(-delta));
    placed_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(placed_count_) + delta);
  }

  /// Number of slots in the cluster slot table (live or free) — the bound
  /// commit engines size their per-slot scratch arrays to.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  // ------------------------------------------------------ live-node registry

  /// Adds a node to the sampling index (on join / initialization).
  void register_node(NodeId node) {
    const bool inserted = live_.insert(node);
    assert(inserted && "node already registered");
    (void)inserted;
  }

  /// Removes a node from the sampling index (on leave).
  void unregister_node(NodeId node) {
    const bool erased = live_.erase(node);
    assert(erased && "node was not registered");
    (void)erased;
  }

  /// Live nodes, densely packed (swap-and-pop order, not id order).
  [[nodiscard]] std::span<const NodeId> live_nodes() const {
    return live_.items();
  }

  /// Uniformly random live node.
  [[nodiscard]] NodeId random_node(Rng& rng) const {
    assert(!live_.empty());
    return live_.at_index(rng.uniform(live_.size()));
  }

  /// `count` distinct live nodes drawn uniformly (Floyd's algorithm, O(count)
  /// expected). Requires count <= the number of live nodes. The shared
  /// victim picker of batched churn drivers and tests.
  [[nodiscard]] std::vector<NodeId> sample_distinct_nodes(
      Rng& rng, std::size_t count) const {
    assert(count <= live_.size());
    std::vector<NodeId> result;
    result.reserve(count);
    for (const std::size_t index : rng.sample_distinct(live_.size(), count)) {
      result.push_back(live_.at_index(index));
    }
    return result;
  }

  /// Uniformly random *honest* live node (rejection sampling; cheap while
  /// the honest fraction is bounded away from zero).
  [[nodiscard]] NodeId random_honest_node(Rng& rng) const {
    assert(live_.size() > byzantine.size());
    while (true) {
      const NodeId candidate = random_node(rng);
      if (!byzantine.contains(candidate)) return candidate;
    }
  }

  // ----------------------------------------------------------- sampling laws

  /// Uniformly random cluster (used for join contact points; any cluster of
  /// the overlay may be contacted). O(1).
  [[nodiscard]] ClusterId random_cluster_uniform(Rng& rng) const {
    assert(!live_ids_.empty());
    return live_ids_[rng.uniform(live_ids_.size())];
  }

  /// Cluster drawn with probability |C| / n — the biased CTRW's limit law.
  /// O(log k) via the Fenwick size mirror.
  [[nodiscard]] ClusterId random_cluster_size_biased(Rng& rng) const {
    assert(num_nodes() > 0 && sizes_.total() == num_nodes());
    const std::size_t slot = sizes_.find(rng.uniform(sizes_.total()));
    return slots_[slot]->id();
  }

  /// Total number of nodes that are Byzantine.
  [[nodiscard]] std::size_t byzantine_total() const {
    return byzantine.size();
  }

  /// Resident bytes of the deterministic state: slot table, live/free
  /// lists, both paged indices, the Fenwick mirror, the membership slab
  /// and the node registries. Capacities, not sizes — this is what the
  /// process holds, the quantity the bytes_per_node bench scalar tracks.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return slots_.capacity() * sizeof(slots_[0]) +
           live_pos_.capacity() * sizeof(std::uint32_t) +
           free_slots_.capacity() * sizeof(std::uint32_t) +
           live_ids_.capacity() * sizeof(ClusterId) +
           cluster_slot_.footprint_bytes() + sizes_.footprint_bytes() +
           slab_->footprint_bytes() + node_home_.footprint_bytes() +
           live_.footprint_bytes() + byzantine.footprint_bytes();
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Snapshot serialization (core/snapshot.cpp): the slot table with each
  /// slot's members, the free list and every dense order (live_ids_, live_,
  /// byzantine) are observable through sampling, so they are written and
  /// reconstructed verbatim; the slab layout (unobservable) is re-carved
  /// packed, and the derived containers (cluster_slot_, node_home_, sizes_,
  /// live_pos_, placed_count_) are rebuilt from them.
  friend void snapshot_save_state(const NowState& state,
                                  SnapshotWriter& writer);
  friend void snapshot_load_state(NowState& state, SnapshotReader& reader);

  [[nodiscard]] std::uint32_t slot_of(ClusterId id) const {
    const std::uint32_t slot = cluster_slot_.get(id.value());
    // Keep the old ordered-map contract (at() threw) rather than turning a
    // stale id into an out-of-bounds slot read in release builds.
    if (slot == kNoSlot) throw std::out_of_range("cluster does not exist");
    return slot;
  }

  NodeId::value_type next_node_id_ = 0;
  ClusterId::value_type next_cluster_id_ = 0;

  // Slot table for clusters; sizes_ mirrors each slot's |C| for the biased
  // draw. slots_ and live_pos_ are parallel (sizes_ over-allocates). The
  // slab holds every slot's member extent; it sits behind a unique_ptr so
  // the Cluster views' raw slab pointers survive NowState moves.
  std::vector<std::optional<cluster::Cluster>> slots_;
  std::vector<std::uint32_t> live_pos_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<ClusterId> live_ids_;
  PagedIndex<std::uint32_t> cluster_slot_;
  FenwickTree sizes_;
  std::unique_ptr<cluster::MemberSlab> slab_;

  PagedIndex<ClusterId> node_home_;
  std::size_t placed_count_ = 0;

  NodeSet live_;
};

}  // namespace now::core
