// Flat extent-based membership arena (DESIGN.md §9).
//
// All cluster member lists live in ONE contiguous NodeId pool, partitioned
// into per-slot extents [first, first + size) with amortized headroom
// (cap >= size). Cluster becomes a thin view over its extent, so the batch
// commit's stage-1 workers scatter every touched cluster's new members
// straight into one pool instead of one heap allocation per cluster, and a
// snapshot of the whole membership is one bulk write per slot's member run.
//
// Layout determinism contract: the extent table (and therefore every slab
// position) must be bit-identical across shard counts. That holds
// because the pool is only ever reshaped at sequential points:
//   * insert_sorted / erase_sorted / assign — the sequential engine and the
//     stage-2 split/merge/spill paths;
//   * compact() — triggered by a fixed threshold on (tail_, packed_), both
//     of which evolve through the same canonical mutation sequence
//     everywhere.
// The only parallel writes are stage 1's scatters into extent_data(),
// strictly inside pre-existing extents (disjoint byte ranges); the sizes
// they produce are committed sequentially afterwards (set_member_count).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"

namespace now::cluster {

class MemberSlab {
 public:
  /// One slot's range of the pool: members occupy
  /// [first, first + size), the slot owns [first, first + cap).
  /// 32-bit fields keep the extent table half the size a size_t layout
  /// would be — it is read on every members() access, so it competes for
  /// L1 with the pool itself. Pool positions are bounded by ~2x the packed
  /// membership (compaction trigger), far below 2^32 for any simulated
  /// deployment; relocate() asserts the bound anyway.
  struct Extent {
    std::uint32_t first = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// Headroom policy: ~25% slack plus a constant, so steady churn edits the
  /// extent in place and relocations stay O(amortized) under growth.
  [[nodiscard]] static constexpr std::uint64_t cap_for(std::uint64_t size) {
    return size + size / 4 + 8;
  }

  /// Pool positions a slot of `size` members takes once packed: what
  /// compact() gives it (empty extents take none).
  [[nodiscard]] static constexpr std::uint64_t packed_cap(std::uint64_t size) {
    return size == 0 ? 0 : cap_for(size);
  }

  /// Compaction trigger: the allocated prefix is more than twice what a
  /// compaction would pack it to (beyond a fixed slack that keeps small
  /// deployments from compacting constantly). A pure function of
  /// (tail_, packed_), hence layout-deterministic — see the header
  /// comment — and cleared by construction: compact() sets tail_ = packed_.
  static constexpr std::uint64_t kCompactSlack = 1024;

  // ----------------------------------------------------------------- slots

  /// Registers `slot` with an empty extent (no pool space until members
  /// arrive). Grows the extent table as needed.
  void acquire_slot(std::size_t slot) {
    if (slot >= extents_.size()) extents_.resize(slot + 1);
    assert(extents_[slot].size == 0 && "acquiring a populated slot");
    extents_[slot] = Extent{};
  }

  /// Releases an (empty) slot; its dead cap is reclaimed at the next
  /// compaction.
  void release_slot(std::size_t slot) {
    assert(slot < extents_.size());
    assert(extents_[slot].size == 0 && "releasing a populated slot");
    extents_[slot] = Extent{};
  }

  [[nodiscard]] std::span<const NodeId> members(std::size_t slot) const {
    const Extent& e = extents_[slot];
    return {pool_.data() + e.first, static_cast<std::size_t>(e.size)};
  }

  [[nodiscard]] std::size_t size(std::size_t slot) const {
    return static_cast<std::size_t>(extents_[slot].size);
  }

  [[nodiscard]] const Extent& extent(std::size_t slot) const {
    return extents_[slot];
  }

  [[nodiscard]] std::size_t slot_count() const { return extents_.size(); }

  // ----------------------------------------- sequential mutators (see top)

  void insert_sorted(std::size_t slot, NodeId node) {
    if (extents_[slot].size == extents_[slot].cap) {
      relocate(slot, cap_for(extents_[slot].size + 1));
    }
    Extent& e = extents_[slot];
    NodeId* base = pool_.data() + e.first;
    NodeId* last = base + e.size;
    NodeId* it = std::lower_bound(base, last, node);
    assert((it == last || *it != node) && "member already present");
    std::copy_backward(it, last, last + 1);
    *it = node;
    set_size(e, e.size + 1);
    maybe_compact();
  }

  void erase_sorted(std::size_t slot, NodeId node) {
    Extent& e = extents_[slot];
    NodeId* base = pool_.data() + e.first;
    NodeId* last = base + e.size;
    NodeId* it = std::lower_bound(base, last, node);
    assert(it != last && *it == node && "member not present");
    (void)std::copy(it + 1, last, it);
    set_size(e, e.size - 1);
    maybe_compact();
  }

  /// Replaces the slot's members with `members` (sorted), relocating the
  /// extent to a fresh tail range when the current cap is too small.
  void assign(std::size_t slot, std::span<const NodeId> members) {
    if (members.size() > extents_[slot].cap) {
      relocate(slot, cap_for(members.size()));
    }
    Extent& e = extents_[slot];
    std::copy(members.begin(), members.end(),
              pool_.begin() + static_cast<std::ptrdiff_t>(e.first));
    set_size(e, members.size());
    maybe_compact();
  }

  // ------------------------------------------------------ stage-1 writes

  /// The slot's extent in the pool, [first, first + cap): stage-1 workers
  /// scatter the slot's new members into it concurrently (distinct slots,
  /// and disjoint ranges of one slot, are disjoint pool bytes). Never
  /// relocates; a membership larger than cap must go through assign().
  [[nodiscard]] NodeId* extent_data(std::size_t slot) {
    return pool_.data() + extents_[slot].first;
  }

  /// Sets the slot's member count after its extent was filled in place
  /// (sequential; size <= cap).
  void set_member_count(std::size_t slot, std::size_t size) {
    assert(size <= extents_[slot].cap);
    set_size(extents_[slot], size);
  }

  // ------------------------------------------------------------ compaction

  [[nodiscard]] std::uint64_t tail() const { return tail_; }
  [[nodiscard]] std::uint64_t packed() const { return packed_; }
  [[nodiscard]] std::uint64_t compaction_count() const { return compactions_; }

  /// Resident bytes: the member pool plus the extent table (capacities).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return pool_.capacity() * sizeof(NodeId) +
           extents_.capacity() * sizeof(Extent);
  }

  [[nodiscard]] bool compaction_due() const {
    return tail_ > 2 * packed() + kCompactSlack;
  }

  void maybe_compact() {
    if (compaction_due()) compact();
  }

  /// Repacks every populated extent in ascending slot order with fresh
  /// cap_for headroom; empty extents reset to zero. Gap bytes between the
  /// old extents are dead (no read ever leaves [first, first + size)), so
  /// compaction is unobservable except through the extent table itself —
  /// which is layout-deterministic, see the header comment.
  void compact() {
#if NOW_OBS_ENABLED
    static const obs::MetricId compactions_id =
        obs::counter_id("slab.compactions");
    obs::counter_add(compactions_id);
#endif
    std::vector<NodeId> fresh(static_cast<std::size_t>(packed()));
    std::uint64_t offset = 0;
    for (Extent& e : extents_) {
      if (e.size == 0) {
        e = Extent{};
        continue;
      }
      std::copy(pool_.begin() + static_cast<std::ptrdiff_t>(e.first),
                pool_.begin() + static_cast<std::ptrdiff_t>(e.first + e.size),
                fresh.begin() + static_cast<std::ptrdiff_t>(offset));
      e.first = static_cast<std::uint32_t>(offset);
      e.cap = static_cast<std::uint32_t>(cap_for(e.size));
      offset += e.cap;
    }
    assert(offset == packed());
    pool_ = std::move(fresh);
    tail_ = offset;
    ++compactions_;
  }

 private:
  /// Moves the slot's members to a fresh extent of `new_cap` at the tail.
  /// The old range becomes dead space until the next compaction.
  void relocate(std::size_t slot, std::uint64_t new_cap) {
    const std::uint64_t new_first = tail_;
    assert(new_first + new_cap <= std::numeric_limits<std::uint32_t>::max() &&
           "pool position overflows the u32 extent fields");
    if (pool_.size() < new_first + new_cap) {
      pool_.resize(std::max<std::size_t>(
          static_cast<std::size_t>(new_first + new_cap), 2 * pool_.size()));
    }
    Extent& e = extents_[slot];
    // Old extent ends at or below tail_ == new_first, so the ranges are
    // disjoint.
    std::copy(pool_.begin() + static_cast<std::ptrdiff_t>(e.first),
              pool_.begin() + static_cast<std::ptrdiff_t>(e.first + e.size),
              pool_.begin() + static_cast<std::ptrdiff_t>(new_first));
    e.first = static_cast<std::uint32_t>(new_first);
    e.cap = static_cast<std::uint32_t>(new_cap);
    tail_ = new_first + new_cap;
  }

  /// Sets the extent's size, adjusting packed_ by the delta (unsigned
  /// wrap-around makes a shrink a subtraction).
  void set_size(Extent& e, std::uint64_t size) {
    packed_ += packed_cap(size) - packed_cap(e.size);
    e.size = static_cast<std::uint32_t>(size);
  }

  std::vector<NodeId> pool_;
  std::vector<Extent> extents_;
  std::uint64_t tail_ = 0;  // allocated prefix of pool_
  std::uint64_t packed_ = 0;  // sum of packed_cap(extent size)
  std::uint64_t compactions_ = 0;
};

}  // namespace now::cluster
