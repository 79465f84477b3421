// Tests for the snapshot subsystem (core/snapshot.hpp, DESIGN.md §8): a mid-run
// checkpoint restored into a fresh NowSystem and continued must be
// BIT-IDENTICAL to the uninterrupted run — partitions, node homes, the
// Byzantine ground truth, the system RNG's continued stream and the invariant
// samples — across shard counts {1, 4, 8}; and malformed files (wrong magic,
// unknown version, truncation, corruption, parameter drift, a membership that
// does not place every live node exactly once) must be rejected, never
// misparsed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/now.hpp"
#include "core/snapshot.hpp"
#include "core/state.hpp"

namespace now::core {
namespace {

NowParams snapshot_params() {
  NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = WalkMode::kSampleExact;
  p.k = 10;
  p.tau = 0.10;
  return p;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
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

/// One driven batch: 8 joins (1 Byzantine) + 8 leaves picked by
/// `victim_rng`. Identical state + identical victim stream => identical
/// batches, which the equivalence matrix relies on.
std::pair<std::vector<NodeId>, OpReport> drive_batch(NowSystem& system,
                                                     Rng& victim_rng,
                                                     std::size_t shards) {
  const auto leaves = system.state().sample_distinct_nodes(victim_rng, 8);
  return system.step_parallel_mixed(8, 1, leaves, shards);
}

void expect_identical(const NowSystem& a, const NowSystem& b,
                      const std::string& context) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << context;
  EXPECT_EQ(partition_signature(a), partition_signature(b)) << context;
  // Dense orders are part of the deterministic state, not just the sets.
  ASSERT_EQ(a.state().live_nodes().size(), b.state().live_nodes().size());
  for (std::size_t i = 0; i < a.state().live_nodes().size(); ++i) {
    ASSERT_EQ(a.state().live_nodes()[i], b.state().live_nodes()[i])
        << context << " live-node order at " << i;
  }
  ASSERT_EQ(a.state().byzantine.size(), b.state().byzantine.size());
  for (std::size_t i = 0; i < a.state().byzantine.size(); ++i) {
    ASSERT_EQ(a.state().byzantine.at_index(i),
              b.state().byzantine.at_index(i))
        << context << " byzantine order at " << i;
  }
  for (const NodeId node : a.state().live_nodes()) {
    ASSERT_EQ(a.state().home_of(node), b.state().home_of(node))
        << context << " home of " << node;
  }
}

TEST(SnapshotTest, RestoreThenContinueIsBitIdenticalAcrossShards) {
  // The tentpole guarantee, over the full matrix: 3 seeds x shards {1, 4, 8}.
  // Run A uninterrupted for T1 + T2 batches; run B for T1 batches, save, keep
  // going (saving must not perturb the saving system); restore into a fresh C
  // and continue both for T2 batches. A, B and C must agree on everything
  // observable — including the system RNG's continued state and the invariant
  // report.
  constexpr std::size_t kShardAxis[] = {1, 4, 8};
  constexpr int kT1 = 3;
  constexpr int kT2 = 3;
  for (const std::uint64_t seed : {5ull, 21ull, 77ull}) {
    for (const std::size_t shards : kShardAxis) {
      const std::string context =
          "seed " + std::to_string(seed) + " shards " +
          std::to_string(shards);
      const std::string path = temp_path("now_roundtrip.snap");
      const NowParams params = snapshot_params();

      Metrics metrics_a;
      NowSystem a{params, metrics_a, seed};
      a.initialize(900, 90, InitTopology::kModeledSparse);
      Rng victims_a{seed ^ 0xBEEF};
      for (int t = 0; t < kT1; ++t) drive_batch(a, victims_a, shards);

      Metrics metrics_b;
      NowSystem b{params, metrics_b, seed};
      b.initialize(900, 90, InitTopology::kModeledSparse);
      Rng victims_b{seed ^ 0xBEEF};
      for (int t = 0; t < kT1; ++t) drive_batch(b, victims_b, shards);
      b.save(path);
      const auto victim_state = victims_b.state();

      Metrics metrics_c;
      NowSystem c{params, metrics_c, seed};
      c.load(path);
      Rng victims_c{0};
      victims_c.restore_state(victim_state);
      expect_identical(a, c, context + " at the checkpoint");

      for (int t = 0; t < kT2; ++t) {
        const auto [ja, ra] = drive_batch(a, victims_a, shards);
        const auto [jb, rb] = drive_batch(b, victims_b, shards);
        const auto [jc, rc] = drive_batch(c, victims_c, shards);
        ASSERT_EQ(ja, jc) << context << " continued batch " << t;
        ASSERT_EQ(jb, jc) << context << " continued batch " << t;
        EXPECT_EQ(ra.wave_count, rc.wave_count) << context;
        EXPECT_EQ(ra.conflicts, rc.conflicts) << context;
        EXPECT_EQ(ra.cost.messages, rc.cost.messages) << context;
        EXPECT_EQ(ra.cost.rounds, rc.cost.rounds) << context;
        EXPECT_EQ(ra.splits, rc.splits) << context;
        EXPECT_EQ(ra.merges, rc.merges) << context;
      }
      expect_identical(a, c, context + " after continuation");
      expect_identical(b, c, context + " saver vs restorer");
      // RNG-stream continuation: the restored generator sits in the
      // exact same state as the uninterrupted one.
      EXPECT_EQ(a.rng().state(), c.rng().state()) << context;
      // Invariant samples drawn now are identical field by field.
      const auto inv_a = a.check();
      const auto inv_c = c.check();
      EXPECT_EQ(inv_a.ok, inv_c.ok);
      EXPECT_EQ(inv_a.num_nodes, inv_c.num_nodes);
      EXPECT_EQ(inv_a.num_clusters, inv_c.num_clusters);
      EXPECT_EQ(inv_a.min_cluster_size, inv_c.min_cluster_size);
      EXPECT_EQ(inv_a.max_cluster_size, inv_c.max_cluster_size);
      EXPECT_EQ(inv_a.worst_byz_fraction, inv_c.worst_byz_fraction);
      EXPECT_EQ(inv_a.compromised_clusters, inv_c.compromised_clusters);
      EXPECT_EQ(inv_a.overlay_max_degree, inv_c.overlay_max_degree);
      EXPECT_EQ(inv_a.overlay_connected, inv_c.overlay_connected);
      std::remove(path.c_str());
    }
  }
}

TEST(SnapshotTest, LegacySequentialOpsContinueIdenticallyToo) {
  // The sequential engine draws from the system RNG directly, so this is
  // the path that exercises the saved rng state hardest.
  const NowParams params = snapshot_params();
  const std::string path = temp_path("now_legacy.snap");
  Metrics ma;
  Metrics mb;
  NowSystem a{params, ma, 123};
  NowSystem b{params, mb, 123};
  a.initialize(700, 70, InitTopology::kModeledSparse);
  b.initialize(700, 70, InitTopology::kModeledSparse);
  for (int i = 0; i < 10; ++i) {
    a.join(i % 3 == 0);
    b.join(i % 3 == 0);
  }
  b.save(path);
  Metrics mc;
  NowSystem c{params, mc, 123};
  c.load(path);
  for (int i = 0; i < 10; ++i) {
    const auto [na, ra] = a.join(false);
    const auto [nc, rc] = c.join(false);
    ASSERT_EQ(na, nc);
    EXPECT_EQ(ra.cost.messages, rc.cost.messages);
    a.leave(na);
    c.leave(nc);
  }
  expect_identical(a, c, "legacy ops");
  EXPECT_EQ(a.rng().state(), c.rng().state());
  std::remove(path.c_str());
}

TEST(SnapshotTest, DirtySamplerOverlaySurvivesTheRoundTrip) {
  // At small scales every batch crosses the alias rebuild threshold, so
  // the saved sampler state is trivial (clean table, empty dirty list).
  // At this scale (~600 clusters, 4+4 ops/batch) the dirty overlay
  // SURVIVES across batches and draw_biased's rejection pattern — and
  // therefore every subsequent partner draw — depends on the exact stale
  // weights and dirty-list order. Restoring must reproduce them verbatim;
  // restore-then-continue diverges within two batches if it does not.
  NowParams p;  // default k -> ~33-member clusters, ~600 of them
  p.max_size = 1 << 15;
  p.walk_mode = WalkMode::kSampleExact;
  const std::string path = temp_path("now_dirty.snap");
  Metrics ma;
  Metrics mb;
  NowSystem a{p, ma, 101};
  NowSystem b{p, mb, 101};
  a.initialize(20000, 1500, InitTopology::kModeledSparse);
  b.initialize(20000, 1500, InitTopology::kModeledSparse);
  Rng victims_a{101 ^ 5};
  Rng victims_b{101 ^ 5};
  for (int t = 0; t < 3; ++t) {
    const auto la = a.state().sample_distinct_nodes(victims_a, 4);
    const auto lb = b.state().sample_distinct_nodes(victims_b, 4);
    a.step_parallel_mixed(4, 1, la, 4);
    b.step_parallel_mixed(4, 1, lb, 4);
  }
  b.save(path);
  Metrics mc;
  NowSystem c{p, mc, 101};
  c.load(path);
  Rng victims_c{0};
  victims_c.restore_state(victims_b.state());
  for (int t = 0; t < 4; ++t) {
    const auto la = a.state().sample_distinct_nodes(victims_a, 4);
    const auto lc = c.state().sample_distinct_nodes(victims_c, 4);
    ASSERT_EQ(la, lc) << "batch " << t;
    const auto [ja, ra] = a.step_parallel_mixed(4, 1, la, 4);
    const auto [jc, rc] = c.step_parallel_mixed(4, 1, lc, 4);
    ASSERT_EQ(ja, jc) << "batch " << t;
    EXPECT_EQ(ra.cost.messages, rc.cost.messages) << "batch " << t;
  }
  expect_identical(a, c, "dirty-overlay continuation");
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsWrongMagicVersionTruncationAndCorruption) {
  const NowParams params = snapshot_params();
  const std::string path = temp_path("now_reject.snap");
  Metrics metrics;
  NowSystem system{params, metrics, 9};
  system.initialize(300, 30, InitTopology::kModeledSparse);
  system.save(path);

  const auto read_bytes = [&]() {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const auto write_bytes = [&](const std::string& bytes,
                               const std::string& where) {
    std::ofstream out(where, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamoff>(bytes.size()));
  };
  const std::string good = read_bytes();

  const auto expect_rejected = [&](const std::string& bytes,
                                   const char* what) {
    const std::string bad_path = temp_path("now_reject_bad.snap");
    write_bytes(bytes, bad_path);
    Metrics m;
    NowSystem fresh{params, m, 9};
    EXPECT_THROW(fresh.load(bad_path), SnapshotError) << what;
    std::remove(bad_path.c_str());
  };

  // Wrong magic.
  std::string bad = good;
  bad[0] = 'X';
  expect_rejected(bad, "magic");
  // Unknown (future) format version.
  bad = good;
  bad[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  expect_rejected(bad, "version");
  // Truncation, both mid-payload and inside the checksum.
  expect_rejected(good.substr(0, good.size() / 2), "truncated payload");
  expect_rejected(good.substr(0, good.size() - 3), "truncated checksum");
  // Flipped payload byte: the checksum must catch it.
  bad = good;
  bad[good.size() / 2] ^= static_cast<char>(0x40);
  expect_rejected(bad, "corruption");

  // Parameter drift: same file, different behavior-relevant params.
  NowParams drifted = params;
  drifted.k = params.k + 1;
  Metrics m2;
  NowSystem other{drifted, m2, 9};
  EXPECT_THROW(other.load(path), SnapshotError);

  // A system that already ran must refuse to load over itself.
  EXPECT_THROW(system.load(path), SnapshotError);
  std::remove(path.c_str());
}

/// Saves a fresh 300-node deployment after `forge` has edited its slab
/// behind NowState's back (the sanctioned test-only mutation path: the
/// slab is handed out const), loads the file into a fresh system, and
/// returns the SnapshotError message ("" when the load succeeded).
template <typename Forge>
std::string load_error_after_forging(const std::string& name, Forge forge) {
  const NowParams params = snapshot_params();
  const std::string path = temp_path(name);
  Metrics ma;
  NowSystem a{params, ma, 13};
  a.initialize(300, 30, InitTopology::kModeledSparse);
  const NowState& state = a.state();
  forge(const_cast<cluster::MemberSlab&>(state.member_slab()),
        state.slot_index(state.cluster_ids()[0]),
        state.slot_index(state.cluster_ids()[1]));
  a.save(path);
  Metrics mb;
  NowSystem b{params, mb, 13};
  std::string error;
  try {
    b.load(path);
  } catch (const SnapshotError& e) {
    error = e.what();
  }
  std::remove(path.c_str());
  return error;
}

TEST(SnapshotTest, RejectsANodeListedInTwoClusters) {
  // Swap one of cluster 1's members for one of cluster 0's: every count
  // still adds up, but that node is now placed twice.
  const std::string error = load_error_after_forging(
      "now_twice.snap", [](cluster::MemberSlab& slab, std::size_t first,
                           std::size_t second) {
        const NodeId twice = slab.members(first).front();
        slab.erase_sorted(second, slab.members(second).front());
        slab.insert_sorted(second, twice);
      });
  EXPECT_NE(error.find("two clusters"), std::string::npos) << error;
}

TEST(SnapshotTest, RejectsAPlacedCountThatDiffersFromLiveNodes) {
  // Drop a live node from its cluster: it stays in the live registry, so
  // the placed count falls one short.
  const std::string error = load_error_after_forging(
      "now_unplaced.snap",
      [](cluster::MemberSlab& slab, std::size_t, std::size_t second) {
        slab.erase_sorted(second, slab.members(second).front());
      });
  EXPECT_NE(error.find("live-node count"), std::string::npos) << error;
}

}  // namespace
}  // namespace now::core
