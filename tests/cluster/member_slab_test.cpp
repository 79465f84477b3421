// Tests for the flat extent-based membership arena (cluster/member_slab.hpp,
// DESIGN.md §9): the extent/cap policy, the parallel-safe try_assign + spill
// protocol, the commit's stage 1 (each touched cluster rebuilt from
// node_home, checked against a std::set model across shard counts),
// compaction (trigger, packing, and — the tentpole contract — its
// UNOBSERVABILITY to everything RNG-visible), slab-geometry bit-identity
// across shard counts, and snapshot round-trips of a
// fragmented slab into a packed one.
#include "cluster/member_slab.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/now.hpp"
#include "core/state.hpp"

namespace now::core {
namespace {

NowParams slab_params() {
  NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = WalkMode::kSampleExact;
  p.k = 10;
  p.tau = 0.10;
  return p;
}

over::OverParams small_over() {
  over::OverParams p;
  p.max_size = 1 << 12;
  return p;
}

/// Full slab consistency sweep against the cluster partition: every live
/// cluster's extent is in bounds, sorted, sized consistently and disjoint
/// from every other extent; the packed counter matches; and at rest the
/// compaction trigger has been honored (every mutation path ends in
/// maybe_compact).
void expect_slab_consistent(const NowState& state) {
  const cluster::MemberSlab& slab = state.member_slab();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  std::uint64_t packed = 0;
  for (const ClusterId id : state.cluster_ids()) {
    const auto& c = state.cluster_at(id);
    const auto& e = slab.extent(state.slot_index(id));
    ASSERT_EQ(c.size(), static_cast<std::size_t>(e.size)) << "cluster " << id;
    ASSERT_LE(e.size, e.cap) << "cluster " << id;
    ASSERT_LE(e.first + e.cap, slab.tail()) << "cluster " << id;
    const auto members = c.members();
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()))
        << "cluster " << id;
    if (e.cap > 0) ranges.emplace_back(e.first, e.first + e.cap);
    packed += cluster::MemberSlab::packed_cap(e.size);
  }
  EXPECT_EQ(packed, slab.packed());
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    ASSERT_LE(ranges[i - 1].second, ranges[i].first) << "extents overlap";
  }
  EXPECT_FALSE(slab.compaction_due());
}

/// The slab's full observable geometry: the allocated prefix plus every
/// slot's (first, size, cap) triple. Bit-identity of this signature is the
/// layout-determinism contract.
struct SlabSignature {
  std::uint64_t tail = 0;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> extents;
  bool operator==(const SlabSignature&) const = default;
};

SlabSignature slab_signature(const NowState& state) {
  const cluster::MemberSlab& slab = state.member_slab();
  SlabSignature sig;
  sig.tail = slab.tail();
  for (std::size_t s = 0; s < slab.slot_count(); ++s) {
    const auto& e = slab.extent(s);
    sig.extents.emplace_back(e.first, e.size, e.cap);
  }
  return sig;
}

/// Sorted (cluster id, size) pairs — the full partition signature.
std::vector<std::pair<std::uint64_t, std::size_t>> partition_signature(
    const NowSystem& system) {
  std::vector<std::pair<std::uint64_t, std::size_t>> sig;
  for (const ClusterId id : system.state().cluster_ids()) {
    sig.emplace_back(id.value(), system.state().cluster_at(id).size());
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

std::pair<std::vector<NodeId>, OpReport> drive_batch(NowSystem& system,
                                                     Rng& victim_rng,
                                                     std::size_t shards) {
  const auto leaves = system.state().sample_distinct_nodes(victim_rng, 8);
  return system.step_parallel_mixed(8, 1, leaves, shards);
}

// --------------------------------------------------------------- slab units

TEST(MemberSlabTest, InsertEraseKeepSortedExtents) {
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  for (const std::uint64_t v : {9u, 1u, 5u, 3u, 7u}) {
    slab.insert_sorted(0, NodeId{v});
  }
  const auto members = slab.members(0);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(slab.size(0), 5u);
  EXPECT_EQ(slab.packed(), cluster::MemberSlab::cap_for(5));
  slab.erase_sorted(0, NodeId{5});
  EXPECT_EQ(slab.size(0), 4u);
  EXPECT_EQ(slab.packed(), cluster::MemberSlab::cap_for(4));
  const auto after = slab.members(0);
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
  EXPECT_FALSE(std::binary_search(after.begin(), after.end(), NodeId{5}));
}

TEST(MemberSlabTest, CapPolicyGrantsHeadroomAndRelocationMovesToTail) {
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  slab.acquire_slot(1);
  slab.insert_sorted(0, NodeId{1});
  // First insert allocates cap_for(1) = 9 at the tail.
  EXPECT_EQ(slab.extent(0).cap, cluster::MemberSlab::cap_for(1));
  const std::uint64_t tail_before = slab.tail();
  EXPECT_EQ(tail_before, slab.extent(0).cap);
  // A second slot carves strictly after the first.
  slab.insert_sorted(1, NodeId{2});
  EXPECT_EQ(slab.extent(1).first, tail_before);
  // Fill slot 0 past its cap: the extent relocates to a fresh tail range,
  // leaving its old range behind as dead space.
  const std::uint64_t old_first = slab.extent(0).first;
  for (std::uint64_t v = 10; slab.extent(0).first == old_first; ++v) {
    slab.insert_sorted(0, NodeId{v});
  }
  EXPECT_GT(slab.extent(0).first, slab.extent(1).first);
  const auto members = slab.members(0);
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
}

TEST(MemberSlabTest, TryAssignFailsBeyondCapAndNeverMoves) {
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  for (std::uint64_t v = 0; v < 4; ++v) slab.insert_sorted(0, NodeId{v});
  const auto extent_before = slab.extent(0);
  const std::uint64_t tail_before = slab.tail();

  // Within cap: succeeds in place.
  std::vector<NodeId> fits;
  for (std::uint64_t v = 100; v < 100 + extent_before.cap; ++v) {
    fits.emplace_back(v);
  }
  ASSERT_TRUE(slab.try_assign(0, fits));
  EXPECT_EQ(slab.extent(0).first, extent_before.first);
  EXPECT_EQ(slab.extent(0).cap, extent_before.cap);
  EXPECT_EQ(slab.tail(), tail_before);
  EXPECT_EQ(slab.packed(), cluster::MemberSlab::cap_for(fits.size()));

  // Beyond cap: refused, nothing changes.
  std::vector<NodeId> overflow = fits;
  overflow.emplace_back(999u);
  ASSERT_FALSE(slab.try_assign(0, overflow));
  EXPECT_EQ(slab.extent(0).first, extent_before.first);
  EXPECT_EQ(slab.size(0), fits.size());
  EXPECT_EQ(slab.tail(), tail_before);
}

TEST(MemberSlabTest, CompactionPacksAscendingSlotsAndResetsEmpties) {
  cluster::MemberSlab slab;
  for (std::size_t s = 0; s < 4; ++s) slab.acquire_slot(s);
  for (std::uint64_t v = 0; v < 20; ++v) slab.insert_sorted(1, NodeId{v});
  for (std::uint64_t v = 100; v < 110; ++v) slab.insert_sorted(3, NodeId{v});
  // Grow-then-shrink slot 1 to strand dead space behind a relocation.
  for (std::uint64_t v = 20; v < 60; ++v) slab.insert_sorted(1, NodeId{v});
  for (std::uint64_t v = 20; v < 60; ++v) slab.erase_sorted(1, NodeId{v});
  const std::vector<NodeId> one(slab.members(1).begin(),
                                slab.members(1).end());
  const std::vector<NodeId> three(slab.members(3).begin(),
                                  slab.members(3).end());

  slab.compact();
  EXPECT_GE(slab.compaction_count(), 1u);
  // Populated extents pack in ascending slot order with fresh cap_for
  // headroom; empty slots reset to zero.
  EXPECT_EQ(slab.extent(1).first, 0u);
  EXPECT_EQ(slab.extent(1).cap, cluster::MemberSlab::cap_for(one.size()));
  EXPECT_EQ(slab.extent(3).first, slab.extent(1).cap);
  EXPECT_EQ(slab.extent(3).cap, cluster::MemberSlab::cap_for(three.size()));
  EXPECT_EQ(slab.tail(), slab.extent(1).cap + slab.extent(3).cap);
  EXPECT_EQ(slab.extent(0).cap, 0u);
  EXPECT_EQ(slab.extent(2).cap, 0u);
  // Contents survive verbatim.
  const auto m1 = slab.members(1);
  const auto m3 = slab.members(3);
  EXPECT_TRUE(std::equal(m1.begin(), m1.end(), one.begin(), one.end()));
  EXPECT_TRUE(std::equal(m3.begin(), m3.end(), three.begin(), three.end()));
}

TEST(MemberSlabTest, CompactionClearsItsOwnTrigger) {
  // The trigger compares tail against the packed size, which is exactly
  // the tail compact() produces, so a compaction can never leave the
  // trigger armed — even for thousands of tiny extents. Below a mean size
  // of ~10.7 the repack, 1.25 * live + 8 * slots, already exceeded the
  // old trigger's 2 * live + slack.
  for (const std::uint64_t max_size : {1u, 3u, 10u, 40u}) {
    cluster::MemberSlab slab;
    std::uint64_t next = 0;
    for (std::size_t s = 0; s < 4000; ++s) {
      slab.acquire_slot(s);
      for (std::uint64_t i = 0; i < 1 + s % max_size; ++i) {
        slab.insert_sorted(s, NodeId{next++});
      }
    }
    // Strand dead space behind relocations, then empty every third slot.
    for (std::size_t s = 0; s < 4000; s += 2) {
      for (std::uint64_t i = 0; i < 12; ++i) {
        slab.insert_sorted(s, NodeId{next++});
      }
    }
    for (std::size_t s = 0; s < 4000; s += 3) {
      while (slab.size(s) > 0) slab.erase_sorted(s, slab.members(s).front());
    }
    slab.compact();
    EXPECT_EQ(slab.tail(), slab.packed()) << "max size " << max_size;
    EXPECT_FALSE(slab.compaction_due()) << "max size " << max_size;
  }
}

TEST(MemberSlabTest, RoundRobinFillCompactsAtMostTwice) {
  // initialize()'s fill: 1e5 nodes dealt round-robin into 2564 slots (the
  // n = 1e5, k = 3 deployment). Every extent grows through the tiny-size
  // regime together; a trigger that compaction cannot clear compacted on
  // nearly every insert here. A machine-independent work count.
  constexpr std::size_t kSlots = 2564;
  cluster::MemberSlab slab;
  for (std::size_t s = 0; s < kSlots; ++s) slab.acquire_slot(s);
  for (std::uint64_t v = 0; v < 100000; ++v) {
    slab.insert_sorted(v % kSlots, NodeId{v});
  }
  EXPECT_LE(slab.compaction_count(), 2u);
  EXPECT_FALSE(slab.compaction_due());
}

TEST(MemberSlabTest, ShrunkSlotGetsItsDeadSpaceBack) {
  // Inflate tail with churn on one slot, then shrink it 40x: every mutator
  // self-compacts via maybe_compact, so dead space stays bounded by the
  // packed size.
  cluster::MemberSlab slab;
  slab.acquire_slot(0);
  for (std::uint64_t v = 0; v < 40000; ++v) {
    slab.insert_sorted(0, NodeId{v});
  }
  for (std::uint64_t v = 0; v < 39000; ++v) {
    slab.erase_sorted(0, NodeId{v});
  }
  EXPECT_FALSE(slab.compaction_due());
  EXPECT_LE(slab.tail(),
            2 * slab.packed() + cluster::MemberSlab::kCompactSlack);
  EXPECT_GE(slab.compaction_count(), 1u);
}

// ---------------------------------------------------------- spill protocol

TEST(MemberSlabTest, OversizedMergeSpillsToSequentialCommit) {
  NowState state{small_over()};
  const ClusterId c = state.create_cluster();
  const std::size_t slot = state.slot_index(c);
  std::uint64_t next_id = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const NodeId node{next_id++};
    state.register_node(node);
    state.add_member(c, node);
  }
  const std::uint64_t cap = state.member_slab().extent(slot).cap;

  // A join burst larger than the extent's headroom, resolved the way the
  // batch commit does it (homes written, arrivals and net count recorded):
  // try_assign must refuse and stage 1 park the slot on the spill list
  // instead of relocating.
  std::vector<NodeId> arrivals;
  for (std::uint64_t i = 0; i <= cap; ++i) {
    const NodeId node{1000 + i};
    state.commit_home(node, c);
    arrivals.push_back(node);
  }
  const auto delta = static_cast<std::int64_t>(arrivals.size());
  NowState::EditScratch scratch;
  state.rebuild_members(slot, arrivals, delta, scratch);
  ASSERT_EQ(scratch.spills.size(), 1u);
  EXPECT_EQ(scratch.spills[0].first, slot);
  // The extent is untouched until the sequential commit lands the spill.
  EXPECT_EQ(state.cluster_at(c).size(), 4u);

  state.commit_spilled_members(scratch.spills[0].first,
                               scratch.spills[0].second);
  scratch.spills.clear();
  EXPECT_EQ(state.cluster_at(c).size(), 4u + arrivals.size());
  EXPECT_TRUE(state.cluster_at(c).contains(NodeId{1000}));
  EXPECT_TRUE(state.cluster_at(c).contains(NodeId{1000 + cap}));
  EXPECT_GT(state.member_slab().extent(slot).cap, cap);

  // Stage-2 bookkeeping reconciles cleanly (the debug assert inside
  // apply_size_deltas cross-checks the final extent size).
  const std::vector<std::pair<std::size_t, std::int64_t>> deltas{
      {slot, delta}};
  state.apply_size_deltas(deltas);
  state.adjust_placed_count(delta);
  EXPECT_EQ(state.num_nodes(), 4u + arrivals.size());
}

// --------------------------------------- stage 1: rebuild from node_home

/// A NowState with one cluster per entry of `sizes`, filled with fresh
/// node ids in order.
std::vector<ClusterId> make_clusters(NowState& state,
                                     std::initializer_list<std::size_t> sizes) {
  std::vector<ClusterId> ids;
  for (const std::size_t size : sizes) {
    ids.push_back(state.create_cluster());
    for (std::size_t i = 0; i < size; ++i) {
      const NodeId node = state.fresh_node_id();
      state.register_node(node);
      state.add_member(ids.back(), node);
    }
  }
  return ids;
}

std::vector<NodeId> members_of(const NowState& state, ClusterId c) {
  const auto m = state.cluster_at(c).members();
  return {m.begin(), m.end()};
}

TEST(StageOneTest, NodeThatLeavesAndComesBackIsKeptOnce) {
  // C = {0, 1, 2}, P = {3, 4, 5}. Within one batch node 0 swaps C -> P
  // with node 3, then swaps back P -> C with node 3 again: node 0 is both
  // an old member of C whose home is C and an arrival at C, and must end
  // up in C exactly once.
  NowState state{small_over()};
  const auto ids = make_clusters(state, {3, 3});
  const ClusterId c = ids[0];
  const ClusterId p = ids[1];
  const NodeId x{0};
  const NodeId y{3};
  std::vector<NodeId> arrivals_c;
  std::vector<NodeId> arrivals_p;
  state.commit_home(x, p);
  state.commit_home(y, c);
  arrivals_p.push_back(x);
  arrivals_c.push_back(y);
  state.commit_home(x, c);
  state.commit_home(y, p);
  arrivals_c.push_back(x);
  arrivals_p.push_back(y);

  NowState::EditScratch scratch;
  state.rebuild_members(state.slot_index(c), arrivals_c, 0, scratch);
  state.rebuild_members(state.slot_index(p), arrivals_p, 0, scratch);
  EXPECT_TRUE(scratch.spills.empty());
  EXPECT_EQ(members_of(state, c),
            (std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}}));
  EXPECT_EQ(members_of(state, p),
            (std::vector<NodeId>{NodeId{3}, NodeId{4}, NodeId{5}}));
}

TEST(StageOneTest, SlotThatOnlyLosesMembersShrinks) {
  // Leavers and no arrivals: the survivors are exactly the members whose
  // home is still this cluster, and the extent stays where it was.
  NowState state{small_over()};
  const auto ids = make_clusters(state, {6});
  const ClusterId c = ids[0];
  const std::size_t slot = state.slot_index(c);
  const auto extent_before = state.member_slab().extent(slot);
  for (const NodeId leaver : {NodeId{1}, NodeId{4}}) {
    state.clear_home(leaver);
    state.unregister_node(leaver);
  }
  NowState::EditScratch scratch;
  state.rebuild_members(slot, {}, -2, scratch);
  EXPECT_TRUE(scratch.spills.empty());
  EXPECT_EQ(members_of(state, c), (std::vector<NodeId>{NodeId{0}, NodeId{2},
                                                       NodeId{3}, NodeId{5}}));
  EXPECT_EQ(state.member_slab().extent(slot).first, extent_before.first);
  EXPECT_EQ(state.member_slab().extent(slot).cap, extent_before.cap);
  EXPECT_EQ(state.member_slab().packed(), cluster::MemberSlab::cap_for(4));
}

TEST(StageOneTest, ForgedHomeThrowsBeforeAnyWrite) {
  // A home forged to point elsewhere makes the rebuilt membership one short
  // of what the (empty) resolve recorded: stage 1 must throw the typed
  // error and leave the extent bytes as they were.
  NowState state{small_over()};
  const auto ids = make_clusters(state, {5, 5});
  const ClusterId c = ids[0];
  const std::size_t slot = state.slot_index(c);
  const std::vector<NodeId> before = members_of(state, c);
  const auto extent_before = state.member_slab().extent(slot);
  const std::uint64_t packed_before = state.member_slab().packed();
  state.corrupt_home_for_test(NodeId{2}, ids[1]);

  NowState::EditScratch scratch;
  EXPECT_THROW(state.rebuild_members(slot, {}, 0, scratch),
               MembershipMismatch);
  EXPECT_EQ(members_of(state, c), before);
  EXPECT_EQ(state.member_slab().extent(slot).size, extent_before.size);
  EXPECT_EQ(state.member_slab().extent(slot).first, extent_before.first);
  EXPECT_EQ(state.member_slab().packed(), packed_before);
  EXPECT_TRUE(scratch.spills.empty());

  // The same forged home reached through the batch engine's thread pool
  // surfaces as the same typed error on the calling thread.
  ThreadPool pool{1};
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t s) {
                                   NowState::EditScratch local;
                                   if (s == 1) {
                                     state.rebuild_members(slot, {}, 0,
                                                           local);
                                   }
                                 }),
               MembershipMismatch);
  EXPECT_EQ(members_of(state, c), before);
}

/// Drives the commit's resolve + stage-1 protocol directly against a
/// std::set reference model of membership: random joins, leaves and swaps
/// (a node may move several times, or move and then leave, within one
/// batch) write node_home and record per-slot arrivals and net counts the
/// way the resolve does; stage 1 then rebuilds every touched slot on
/// `shards` workers over contiguous slot blocks, and stage 2 commits the
/// spills in ascending slot order.
class StageOneModel {
 public:
  StageOneModel(std::uint64_t seed, std::size_t shards)
      : state_{small_over()}, rng_{seed}, shards_{shards},
        pool_{shards - 1}, scratch_(shards) {
    for (std::size_t c = 0; c < 24; ++c) {
      ids_.push_back(state_.create_cluster());
      model_.emplace_back();
      for (std::uint64_t i = 0; i < 4 + rng_.uniform(40); ++i) {
        const NodeId node = state_.fresh_node_id();
        state_.register_node(node);
        state_.add_member(ids_[c], node);
        model_[c].insert(node);
        live_.push_back(node);
      }
    }
  }

  /// One batch of `ops` random operations; `join_bias` in [0, 100) is the
  /// percentage of joins, which land on the first `join_spread` clusters
  /// (a burst on few clusters outgrows their headroom and spills).
  void batch(std::size_t ops, std::uint64_t join_bias,
             std::size_t join_spread) {
    touched_.clear();
    arrivals_.assign(ids_.size(), {});
    net_.assign(ids_.size(), 0);
    std::int64_t placed_delta = 0;
    for (std::size_t op = 0; op < ops; ++op) {
      const std::uint64_t roll = rng_.uniform(100);
      if (roll < join_bias || live_.size() < 2) {
        const std::size_t c = rng_.uniform(join_spread);
        const NodeId node = state_.fresh_node_id();
        state_.register_node(node);
        state_.commit_home(node, ids_[c]);
        model_[c].insert(node);
        live_.push_back(node);
        arrive(c, node);
        ++net_[c];
        ++placed_delta;
      } else if (roll < join_bias + (100 - join_bias) / 3) {
        const std::size_t at = rng_.uniform(live_.size());
        const NodeId node = live_[at];
        const std::size_t c = index_of(state_.home_of(node));
        state_.clear_home(node);
        state_.unregister_node(node);
        model_[c].erase(node);
        live_[at] = live_.back();
        live_.pop_back();
        touch(c);
        --net_[c];
        --placed_delta;
      } else {
        const NodeId x = live_[rng_.uniform(live_.size())];
        const NodeId y = live_[rng_.uniform(live_.size())];
        const ClusterId x_home = state_.home_of(x);
        const ClusterId y_home = state_.home_of(y);
        if (x_home == y_home) continue;
        const std::size_t xc = index_of(x_home);
        const std::size_t yc = index_of(y_home);
        state_.commit_home(x, y_home);
        state_.commit_home(y, x_home);
        model_[xc].erase(x);
        model_[yc].insert(x);
        model_[yc].erase(y);
        model_[xc].insert(y);
        arrive(yc, x);
        arrive(xc, y);
      }
    }

    const std::size_t slot_block =
        (state_.slot_count() + shards_ - 1) / shards_;
    std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> deltas(
        shards_);
    pool_.parallel_for(shards_, [&](std::size_t s) {
      for (const std::size_t c : touched_) {
        const std::size_t slot = state_.slot_index(ids_[c]);
        if (slot / slot_block != s) continue;
        state_.rebuild_members(slot, arrivals_[c], net_[c], scratch_[s]);
        if (net_[c] != 0) deltas[s].emplace_back(slot, net_[c]);
      }
    });
    std::vector<std::pair<std::size_t, const std::vector<NodeId>*>> spilled;
    for (const auto& w : scratch_) {
      for (const auto& [slot, members] : w.spills) {
        spilled.emplace_back(slot, &members);
      }
    }
    std::sort(spilled.begin(), spilled.end());
    spills_ += spilled.size();
    for (const auto& [slot, members] : spilled) {
      state_.commit_spilled_members(slot, *members);
    }
    for (auto& w : scratch_) w.spills.clear();
    std::vector<std::pair<std::size_t, std::int64_t>> all;
    for (const auto& d : deltas) all.insert(all.end(), d.begin(), d.end());
    std::sort(all.begin(), all.end());
    state_.apply_size_deltas(all);
    state_.adjust_placed_count(placed_delta);
    state_.maybe_compact_slab();
  }

  /// Every cluster's extent equals its reference set, and every live
  /// node's home is the cluster holding it.
  void expect_matches_model() const {
    std::size_t total = 0;
    for (std::size_t c = 0; c < ids_.size(); ++c) {
      const auto members = state_.cluster_at(ids_[c]).members();
      ASSERT_TRUE(std::ranges::equal(members, model_[c])) << "cluster " << c;
      for (const NodeId node : members) {
        ASSERT_EQ(state_.home_of(node), ids_[c]) << "node " << node;
      }
      total += members.size();
    }
    EXPECT_EQ(total, live_.size());
    EXPECT_EQ(state_.num_nodes(), live_.size());
    expect_slab_consistent(state_);
  }

  [[nodiscard]] const NowState& state() const { return state_; }
  [[nodiscard]] std::size_t spills() const { return spills_; }

 private:
  void touch(std::size_t c) {
    if (std::find(touched_.begin(), touched_.end(), c) == touched_.end()) {
      touched_.push_back(c);
    }
  }
  void arrive(std::size_t c, NodeId node) {
    touch(c);
    arrivals_[c].push_back(node);
  }
  [[nodiscard]] std::size_t index_of(ClusterId id) const {
    return static_cast<std::size_t>(
        std::find(ids_.begin(), ids_.end(), id) - ids_.begin());
  }

  NowState state_;
  Rng rng_;
  std::size_t shards_;
  ThreadPool pool_;
  std::vector<NowState::EditScratch> scratch_;
  std::vector<ClusterId> ids_;
  std::vector<std::set<NodeId>> model_;
  std::vector<NodeId> live_;
  std::vector<std::size_t> touched_;
  std::vector<std::vector<NodeId>> arrivals_;
  std::vector<std::int64_t> net_;
  std::size_t spills_ = 0;
};

TEST(StageOneTest, RandomBatchesMatchSetModelAtEveryShardCount) {
  constexpr std::size_t kShardAxis[] = {1, 2, 4, 8};
  for (const std::uint64_t seed : {7u, 1234u, 98765u}) {
    std::vector<SlabSignature> layouts;
    for (const std::size_t shards : kShardAxis) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", shards " +
                   std::to_string(shards));
      StageOneModel model{seed, shards};
      for (int b = 0; b < 40; ++b) {
        // Every eighth batch is a join burst on two clusters, so spills
        // happen too.
        if (b % 8 == 7) {
          model.batch(60, 90, 2);
        } else {
          model.batch(60, 30, 24);
        }
        model.expect_matches_model();
        if (HasFatalFailure()) return;
      }
      EXPECT_GT(model.spills(), 0u) << "no batch exercised the spill path";
      layouts.push_back(slab_signature(model.state()));
    }
    // The slab layout, not just membership, is shard-independent.
    for (std::size_t v = 1; v < layouts.size(); ++v) {
      EXPECT_EQ(layouts[v], layouts[0])
          << "seed " << seed << ": shards " << kShardAxis[v]
          << " laid the slab out differently from shards 1";
    }
  }
}

// ----------------------------------------------- system-level slab behavior

TEST(MemberSlabTest, SplitsCarveAndMergesCoalesceConsistently) {
  // Sustained growth (splits carve fresh extents) followed by sustained
  // shrinkage (merges drain and release extents): the slab stays consistent
  // with the partition after every operation.
  Metrics metrics;
  NowSystem system{slab_params(), metrics, 8};
  system.initialize(400, 0, InitTopology::kModeledSparse);
  const std::size_t clusters_before = system.num_clusters();
  std::size_t splits = 0;
  for (int i = 0; i < 200; ++i) {
    const auto [node, report] = system.join(false);
    splits += report.splits;
    expect_slab_consistent(system.state());
  }
  EXPECT_GT(splits, 0u);
  EXPECT_GT(system.num_clusters(), clusters_before);

  Rng rng{321};
  std::size_t merges = 0;
  for (int i = 0; i < 350 && system.num_nodes() > 100; ++i) {
    const auto report = system.leave(system.state().random_node(rng));
    merges += report.merges;
    expect_slab_consistent(system.state());
  }
  EXPECT_GT(merges, 0u);
  EXPECT_TRUE(system.check().ok);
}

TEST(MemberSlabTest, LayoutIsBitIdenticalAcrossShards) {
  // The tentpole determinism contract: the extent table — not just the
  // partition — is identical across shards {1, 4, 8}, because the pool is
  // only reshaped at sequential points and the spill set is
  // shard-independent.
  constexpr std::size_t kShardAxis[] = {1, 4, 8};
  std::vector<std::unique_ptr<Metrics>> metrics;
  std::vector<std::unique_ptr<NowSystem>> systems;
  std::vector<Rng> victim_rngs;
  for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
    metrics.push_back(std::make_unique<Metrics>());
    systems.push_back(
        std::make_unique<NowSystem>(slab_params(), *metrics.back(), 61));
    systems.back()->initialize(900, 90, InitTopology::kModeledSparse);
    victim_rngs.emplace_back(61 ^ 99);
  }
  for (int round = 0; round < 4; ++round) {
    for (std::size_t v = 0; v < systems.size(); ++v) {
      drive_batch(*systems[v], victim_rngs[v], kShardAxis[v]);
    }
    const SlabSignature reference = slab_signature(systems[0]->state());
    for (std::size_t v = 1; v < systems.size(); ++v) {
      ASSERT_EQ(slab_signature(systems[v]->state()), reference)
          << "shards " << kShardAxis[v] << " diverged from shards "
          << kShardAxis[0] << " in round " << round;
    }
  }
  for (const auto& system : systems) {
    expect_slab_consistent(system->state());
    EXPECT_TRUE(system->check().ok);
  }
}

TEST(MemberSlabTest, ForcedCompactionMidScenarioIsUnobservable) {
  // Gap bytes and dead space are dead: force-compacting one of two
  // identical systems mid-run must not change anything RNG-observable —
  // joins, costs, partitions, homes — even though the extent tables now
  // differ.
  constexpr std::size_t kShards = 4;
  Metrics ma;
  Metrics mb;
  NowSystem a{slab_params(), ma, 17};
  NowSystem b{slab_params(), mb, 17};
  a.initialize(900, 90, InitTopology::kModeledSparse);
  b.initialize(900, 90, InitTopology::kModeledSparse);
  Rng victims_a{17 ^ 3};
  Rng victims_b{17 ^ 3};
  for (int t = 0; t < 2; ++t) {
    drive_batch(a, victims_a, kShards);
    drive_batch(b, victims_b, kShards);
  }

  // The sanctioned test-only mutation path (the slab is handed out const).
  auto& slab_b = const_cast<cluster::MemberSlab&>(b.state().member_slab());
  const std::uint64_t compactions_before = slab_b.compaction_count();
  slab_b.compact();
  ASSERT_EQ(slab_b.compaction_count(), compactions_before + 1);
  expect_slab_consistent(b.state());

  for (int t = 0; t < 4; ++t) {
    const auto [ja, ra] = drive_batch(a, victims_a, kShards);
    const auto [jb, rb] = drive_batch(b, victims_b, kShards);
    ASSERT_EQ(ja, jb) << "batch " << t;
    EXPECT_EQ(ra.cost.messages, rb.cost.messages) << "batch " << t;
    EXPECT_EQ(ra.cost.rounds, rb.cost.rounds) << "batch " << t;
    EXPECT_EQ(ra.conflicts, rb.conflicts) << "batch " << t;
    EXPECT_EQ(ra.splits, rb.splits) << "batch " << t;
    EXPECT_EQ(ra.merges, rb.merges) << "batch " << t;
  }
  EXPECT_EQ(partition_signature(a), partition_signature(b));
  for (const NodeId node : a.state().live_nodes()) {
    ASSERT_EQ(a.state().home_of(node), b.state().home_of(node));
  }
  EXPECT_EQ(a.rng().state(), b.rng().state());
}

TEST(MemberSlabTest, FragmentedSlabSurvivesSnapshotRoundTrip) {
  // Join-heavy churn relocates extents and leaves dead space behind. The
  // snapshot carries membership only (format v3): the loaded slab is
  // packed, yet membership and the continuation must match the fragmented
  // original exactly, because layout is unobservable.
  const std::string path = testing::TempDir() + "member_slab_frag.snap";
  Metrics ma;
  NowSystem a{slab_params(), ma, 29};
  a.initialize(600, 60, InitTopology::kModeledSparse);
  // A join burst forces splits: each split strands the parent cluster's
  // extent as dead space (guaranteed fragmentation, below the compaction
  // threshold at this scale).
  std::size_t splits = 0;
  for (int i = 0; i < 200; ++i) splits += a.join(false).second.splits;
  ASSERT_GT(splits, 0u);
  Rng victims_a{29 ^ 1};
  for (int t = 0; t < 4; ++t) {
    const auto leaves = a.state().sample_distinct_nodes(victims_a, 4);
    a.step_parallel_mixed(12, 1, leaves, 4);
  }
  // The churn above must have left the slab unpacked, or the packed
  // layout the load produces would equal it and this test is vacuous.
  const cluster::MemberSlab& slab_a = a.state().member_slab();
  EXPECT_GT(slab_a.tail(), slab_a.packed())
      << "churn produced no fragmentation";
  a.save(path);

  Metrics mb;
  NowSystem b{slab_params(), mb, 29};
  b.load(path);
  expect_slab_consistent(b.state());
  // Membership survives: same clusters, same sorted member runs.
  ASSERT_TRUE(std::ranges::equal(a.state().cluster_ids(),
                                 b.state().cluster_ids()));
  for (const ClusterId id : a.state().cluster_ids()) {
    ASSERT_TRUE(std::ranges::equal(a.state().cluster_at(id).members(),
                                   b.state().cluster_at(id).members()))
        << "cluster " << id;
  }
  // The loaded layout is packed: exactly what compact() produces.
  const SlabSignature loaded = slab_signature(b.state());
  EXPECT_EQ(loaded.tail, b.state().member_slab().packed());
  auto& slab_b = const_cast<cluster::MemberSlab&>(b.state().member_slab());
  slab_b.compact();
  EXPECT_EQ(slab_signature(b.state()), loaded);

  // Restore-then-continue stays bit-exact through more sharded batches.
  Rng victims_b{0};
  victims_b.restore_state(victims_a.state());
  for (int t = 0; t < 4; ++t) {
    const auto la = a.state().sample_distinct_nodes(victims_a, 4);
    const auto lb = b.state().sample_distinct_nodes(victims_b, 4);
    ASSERT_EQ(la, lb) << "batch " << t;
    const auto [ja, ra] = a.step_parallel_mixed(6, 1, la, 4);
    const auto [jb, rb] = b.step_parallel_mixed(6, 1, lb, 4);
    ASSERT_EQ(ja, jb) << "batch " << t;
    EXPECT_EQ(ra.cost.messages, rb.cost.messages) << "batch " << t;
    EXPECT_EQ(ra.conflicts, rb.conflicts) << "batch " << t;
    EXPECT_EQ(ra.splits, rb.splits) << "batch " << t;
    EXPECT_EQ(ra.merges, rb.merges) << "batch " << t;
  }
  EXPECT_EQ(partition_signature(a), partition_signature(b));
  for (const NodeId node : a.state().live_nodes()) {
    ASSERT_EQ(a.state().home_of(node), b.state().home_of(node));
  }
  EXPECT_EQ(a.rng().state(), b.rng().state());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace now::core
