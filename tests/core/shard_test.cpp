// Tests for the sharded batch engine (DESIGN.md §7): the single-shard
// equivalence guarantee (shard count never changes results, only wall
// clock), the per-shard OpReport accounting, and the conflict-dropping
// commit phase.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/now.hpp"

namespace now::core {
namespace {

NowParams shard_params() {
  NowParams p;
  p.max_size = 1 << 12;
  p.walk_mode = WalkMode::kSampleExact;
  // Tests below assert the compromise invariant after every batch; at the
  // default k = 3 a ~24-member cluster grazes 1/3 on unlucky seeds (the
  // finite-size whp caveat the thm3/remark tests document), so scale k the
  // way Lemma 1 prescribes.
  p.k = 10;
  p.tau = 0.10;
  return p;
}

/// Distinct live victims drawn with `rng`; identical state + identical rng
/// stream => identical victims, which the equivalence test relies on.
std::vector<NodeId> pick_victims(const NowSystem& system, std::size_t count,
                                 Rng& rng) {
  return system.state().sample_distinct_nodes(rng, count);
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

TEST(ShardTest, ShardCountDoesNotChangeResults) {
  // Same seed, same batches: shards ∈ {1, 4, 8} must produce an IDENTICAL
  // partition — same cluster ids, same sizes, same node homes, same
  // Byzantine ground truth — with the parallel two-stage commit and the
  // wave scheduler engaged, because plans depend only on the start-of-step
  // snapshot and per-op/per-wave derived RNG streams, the wave list is
  // collected in canonical cluster order, and the commit resolves every
  // move in canonical order. Three seeds, mixed batches: joins, leaves and
  // a Byzantine fraction of the joiners in every round.
  for (const std::uint64_t seed : {11ull, 29ull, 47ull}) {
    constexpr std::size_t kShardAxis[] = {1, 4, 8};
    std::vector<std::unique_ptr<Metrics>> metrics;
    std::vector<std::unique_ptr<NowSystem>> systems;
    std::vector<Rng> victim_rngs;
    for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
      metrics.push_back(std::make_unique<Metrics>());
      systems.push_back(
          std::make_unique<NowSystem>(shard_params(), *metrics.back(), seed));
      systems.back()->initialize(1200, 120, InitTopology::kModeledSparse);
      victim_rngs.emplace_back(seed ^ 99);
    }

    for (int round = 0; round < 4; ++round) {
      // Mixed batch: 14 joins of which `round` are Byzantine, 10 leaves.
      const std::size_t byz_joins = static_cast<std::size_t>(round);
      std::vector<std::vector<NodeId>> joined(std::size(kShardAxis));
      std::vector<OpReport> reports(std::size(kShardAxis));
      for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
        const auto leaves = pick_victims(*systems[v], 10, victim_rngs[v]);
        std::tie(joined[v], reports[v]) = systems[v]->step_parallel_mixed(
            14, byz_joins, leaves, kShardAxis[v]);
      }
      for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
        ASSERT_EQ(joined[0], joined[v])
            << "seed " << seed << " round " << round << " shards "
            << kShardAxis[v];
        EXPECT_EQ(reports[0].splits, reports[v].splits);
        EXPECT_EQ(reports[0].merges, reports[v].merges);
        EXPECT_EQ(reports[0].conflicts, reports[v].conflicts);
        EXPECT_EQ(reports[0].wave_count, reports[v].wave_count);
        EXPECT_EQ(reports[0].cost.rounds, reports[v].cost.rounds);
      }
      EXPECT_GT(reports[0].wave_count, 0u);
    }

    for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
      EXPECT_EQ(systems[0]->num_nodes(), systems[v]->num_nodes());
      EXPECT_EQ(partition_signature(*systems[0]),
                partition_signature(*systems[v]));
      for (const NodeId node : systems[0]->state().live_nodes()) {
        ASSERT_EQ(systems[0]->state().home_of(node),
                  systems[v]->state().home_of(node))
            << "seed " << seed << " shards " << kShardAxis[v];
        EXPECT_EQ(systems[0]->state().byzantine.contains(node),
                  systems[v]->state().byzantine.contains(node));
      }
      EXPECT_EQ(systems[0]->state().byzantine.size(),
                systems[v]->state().byzantine.size());
      EXPECT_TRUE(systems[v]->check().ok);
    }
    EXPECT_TRUE(systems[0]->check().ok);
  }
}

TEST(ShardTest, WaveSchedulerRunsOneWavePerTouchedCluster) {
  // Several operations landing on one cluster must still produce at most
  // one primary wave per cluster; with a single-cluster partition there is
  // nobody to swap with, so an entire batch yields exactly one wave (the
  // target cluster's own, with zero swaps) — and never one per operation.
  NowParams p = shard_params();
  Metrics metrics;
  NowSystem system{p, metrics, 71};
  system.initialize(60, 0, InitTopology::kModeledSparse);
  ASSERT_EQ(system.num_clusters(), 1u);
  const auto [joined, report] = system.step_parallel_sharded(6, {}, false, 4);
  ASSERT_EQ(joined.size(), 6u);
  EXPECT_EQ(report.wave_count, 1u);  // 6 joins, one touched cluster
  EXPECT_EQ(report.conflicts, 0u);
  EXPECT_TRUE(system.check().ok);

  // In a multi-cluster deployment the wave count is bounded by the number
  // of live clusters (one wave per cluster per time step), even though the
  // sequential engine would run one exchange per join plus one per leave
  // partner — the O(partners x swaps) duplication the scheduler removes.
  Metrics big_metrics;
  NowSystem big{shard_params(), big_metrics, 73};
  big.initialize(1000, 0, InitTopology::kModeledSparse);
  Rng victims{5};
  const auto leaves = big.state().sample_distinct_nodes(victims, 12);
  const auto [j2, r2] = big.step_parallel_sharded(12, leaves, false, 4);
  EXPECT_GT(r2.wave_count, 0u);
  EXPECT_LE(r2.wave_count, big.num_clusters());
  EXPECT_TRUE(big.check().ok);
}

TEST(ShardTest, ClusterSizeMultisetMatchesAcrossShardCounts) {
  // The headline equivalence stated in DESIGN.md §7, on the multiset of
  // cluster sizes (id-agnostic) after a heavier mixed run.
  std::map<std::size_t, std::size_t> histogram[2];
  for (int variant = 0; variant < 2; ++variant) {
    Metrics metrics;
    NowSystem system{shard_params(), metrics, 23};
    system.initialize(900, 90, InitTopology::kModeledSparse);
    Rng victims{7};
    for (int round = 0; round < 6; ++round) {
      const auto leaves = pick_victims(system, 8, victims);
      system.step_parallel_sharded(8, leaves, false,
                                   variant == 0 ? 1 : 4);
    }
    for (const ClusterId id : system.state().cluster_ids()) {
      histogram[variant][system.state().cluster_at(id).size()] += 1;
    }
    EXPECT_TRUE(system.check().ok);
  }
  EXPECT_EQ(histogram[0], histogram[1]);
}

TEST(ShardTest, PerShardCostsMergeIntoReport) {
  Metrics metrics;
  NowSystem system{shard_params(), metrics, 31};
  system.initialize(1000, 100, InitTopology::kModeledSparse);
  Rng victims{3};
  const auto leaves = pick_victims(system, 9, victims);

  const auto joins_before = metrics.operation_count(metrics.find("join"));
  const auto leaves_before = metrics.operation_count(metrics.find("leave"));
  const auto [joined, report] =
      system.step_parallel_sharded(9, leaves, false, 3);
  ASSERT_EQ(joined.size(), 9u);

  // One planning-cost entry per shard; every planned message is accounted
  // exactly once: batch cost = sum of shard costs + the sequential commit.
  ASSERT_EQ(report.shard_costs.size(), 3u);
  std::uint64_t planned_messages = 0;
  for (const Cost& shard : report.shard_costs) {
    EXPECT_GT(shard.messages, 0u);
    planned_messages += shard.messages;
  }
  EXPECT_EQ(report.cost.messages,
            planned_messages + report.commit_cost.messages);

  // Per-operation samples from the shard-local Metrics instances were
  // merged back under the standard labels.
  EXPECT_EQ(metrics.operation_count(metrics.find("join")), joins_before + 9);
  EXPECT_EQ(metrics.operation_count(metrics.find("leave")), leaves_before + 9);

  // Rounds combine by max over the overlapped operations plus the deferred
  // commit restructuring — never the sum of all per-op rounds.
  const auto join_samples = metrics.operation_samples(metrics.find("join"));
  std::uint64_t sum_rounds = 0;
  for (auto it = join_samples.end() - 9; it != join_samples.end(); ++it) {
    sum_rounds += it->rounds;
  }
  EXPECT_GT(report.cost.rounds, 0u);
  EXPECT_LT(report.cost.rounds, sum_rounds + report.commit_cost.rounds + 1);
}

TEST(ShardTest, ShardedBatchConservesNodesAndInvariants) {
  Metrics metrics;
  NowSystem system{shard_params(), metrics, 41};
  system.initialize(800, 120, InitTopology::kModeledSparse);
  Rng victims{13};
  std::size_t expected = 800;
  for (int round = 0; round < 5; ++round) {
    const auto leaves = pick_victims(system, 6, victims);
    const auto [joined, report] =
        system.step_parallel_sharded(11, leaves, false, 4);
    EXPECT_EQ(joined.size(), 11u);
    expected += 11 - 6;
    ASSERT_EQ(system.num_nodes(), expected);
    const auto inv = system.check();
    ASSERT_TRUE(inv.ok) << (inv.violations.empty() ? ""
                                                   : inv.violations[0]);
  }
}

/// The forced-leave DoS regime's victims for `round`: 10 members of one
/// cluster (deterministic pick, rotating through the live-cluster list by
/// round) plus 2 more drawn by a seeded RNG. Identical state => identical
/// victims.
std::vector<NodeId> leave_heavy_victims(const NowState& state,
                                        std::uint64_t seed, int round) {
  const ClusterId target = state.cluster_ids()
      [static_cast<std::size_t>(round) % state.cluster_ids().size()];
  std::vector<NodeId> leaves;
  for (const NodeId member : state.cluster_at(target).members()) {
    if (leaves.size() >= 10) break;
    leaves.push_back(member);
  }
  Rng fill{seed ^
           (std::uint64_t{0xF0F0} + static_cast<std::uint64_t>(round))};
  while (leaves.size() < 12) {
    const NodeId candidate = state.random_node(fill);
    if (std::find(leaves.begin(), leaves.end(), candidate) == leaves.end()) {
      leaves.push_back(candidate);
    }
  }
  return leaves;
}

TEST(ShardTest, LeaveHeavyQuotaBatchesPreserveBitIdentity) {
  // The forced-leave DoS regime: most of a batch's leaves are concentrated
  // on one or two clusters (the scenario layer's batch_leave_quota targets
  // the worst/smallest ones) while joins trickle in — leave-heavy mixed
  // batches where many planned swaps hit a departing partner and the
  // resolve drops them. Victims are drawn from a single cluster per round,
  // plus a Byzantine joiner, across shards {1, 4, 8} and three seeds.
  for (const std::uint64_t seed : {13ull, 37ull, 59ull}) {
    constexpr std::size_t kShardAxis[] = {1, 4, 8};
    std::vector<std::unique_ptr<Metrics>> metrics;
    std::vector<std::unique_ptr<NowSystem>> systems;
    for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
      metrics.push_back(std::make_unique<Metrics>());
      systems.push_back(
          std::make_unique<NowSystem>(shard_params(), *metrics.back(), seed));
      systems.back()->initialize(1100, 110, InitTopology::kModeledSparse);
    }

    for (int round = 0; round < 4; ++round) {
      std::vector<std::vector<NodeId>> joined(std::size(kShardAxis));
      std::vector<OpReport> reports(std::size(kShardAxis));
      for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
        // Leave-heavy: 4 joins vs 12 leaves.
        const auto leaves =
            leave_heavy_victims(systems[v]->state(), seed, round);
        std::tie(joined[v], reports[v]) = systems[v]->step_parallel_mixed(
            4, /*byzantine_joins=*/1, leaves, kShardAxis[v]);
      }
      for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
        ASSERT_EQ(joined[0], joined[v])
            << "seed " << seed << " round " << round;
        EXPECT_EQ(reports[0].conflicts, reports[v].conflicts);
        EXPECT_EQ(reports[0].wave_count, reports[v].wave_count);
        EXPECT_EQ(reports[0].splits, reports[v].splits);
        EXPECT_EQ(reports[0].merges, reports[v].merges);
        EXPECT_EQ(reports[0].cost.rounds, reports[v].cost.rounds);
      }
    }

    for (std::size_t v = 1; v < std::size(kShardAxis); ++v) {
      EXPECT_EQ(partition_signature(*systems[0]),
                partition_signature(*systems[v]));
      for (const NodeId node : systems[0]->state().live_nodes()) {
        ASSERT_EQ(systems[0]->state().home_of(node),
                  systems[v]->state().home_of(node))
            << "seed " << seed << " shards " << kShardAxis[v];
      }
      EXPECT_TRUE(systems[v]->check().ok);
    }
  }
}

/// FNV-1a 64 over the partition signature's (id, size) pairs.
std::uint64_t signature_hash(const NowSystem& system) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& [id, size] : partition_signature(system)) {
    mix(id);
    mix(size);
  }
  return hash;
}

/// Run totals pinned by PinnedTrajectoriesDoNotDrift.
struct PinnedRun {
  std::uint64_t signature;
  std::uint64_t conflicts;
  std::uint64_t messages;
  std::uint64_t rounds;
};

TEST(ShardTest, PinnedTrajectoriesDoNotDrift) {
  // Golden values for conflict-heavy batches at 4 and 8 shards: the final
  // partition signature plus the conflicts, messages and rounds summed
  // over the run. They were recorded when a second (optimistic, parallel)
  // resolve still existed and agreed with the sequential one on every
  // value here, so any drift of the remaining resolve fails this test.
  constexpr std::size_t kShardAxis[] = {4, 8};
  const auto check = [](const NowSystem& system, const PinnedRun& totals,
                        const PinnedRun& golden, const std::string& context) {
    EXPECT_EQ(signature_hash(system), golden.signature) << context;
    EXPECT_EQ(totals.conflicts, golden.conflicts) << context;
    EXPECT_EQ(totals.messages, golden.messages) << context;
    EXPECT_EQ(totals.rounds, golden.rounds) << context;
    EXPECT_TRUE(system.check().ok) << context;
  };
  const auto add = [](PinnedRun& totals, const OpReport& report) {
    totals.conflicts += report.conflicts;
    totals.messages += report.cost.messages;
    totals.rounds += report.cost.rounds;
    EXPECT_EQ(report.resolve_replays, 0u);
  };

  // The leave-heavy regime of LeaveHeavyQuotaBatchesPreserveBitIdentity.
  const std::pair<std::uint64_t, PinnedRun> leave_heavy[] = {
      {13, {0xc1666cbb083f1fa3ull, 373, 3402634222ull, 715}},
      {37, {0x7add3f0ca54ebca3ull, 341, 3399411744ull, 784}},
      {59, {0x112528bcea11a159ull, 332, 3402230196ull, 715}},
  };
  for (const auto& [seed, golden] : leave_heavy) {
    for (const std::size_t shards : kShardAxis) {
      Metrics metrics;
      NowSystem system{shard_params(), metrics, seed};
      system.initialize(1100, 110, InitTopology::kModeledSparse);
      PinnedRun totals{0, 0, 0, 0};
      for (int round = 0; round < 4; ++round) {
        const auto leaves = leave_heavy_victims(system.state(), seed, round);
        add(totals,
            system.step_parallel_mixed(4, /*byzantine_joins=*/1, leaves,
                                       shards)
                .second);
      }
      check(system, totals, golden,
            "leave-heavy seed " + std::to_string(seed) + " shards " +
                std::to_string(shards));
    }
  }

  // Mixed churn: 12 joins (2 Byzantine) + 9 uniform leaves per batch.
  const PinnedRun mixed{0x0c7a9d67455af680ull, 459, 4383800421ull, 972};
  for (const std::size_t shards : kShardAxis) {
    Metrics metrics;
    NowSystem system{shard_params(), metrics, 83};
    system.initialize(1000, 100, InitTopology::kModeledSparse);
    Rng victims{83 ^ 7};
    PinnedRun totals{0, 0, 0, 0};
    for (int round = 0; round < 6; ++round) {
      const auto leaves = pick_victims(system, 9, victims);
      add(totals,
          system.step_parallel_mixed(12, /*byzantine_joins=*/2, leaves, shards)
              .second);
    }
    check(system, totals, mixed, "mixed shards " + std::to_string(shards));
  }
}

TEST(ShardTest, IncrementalPlanCacheMatchesFullRebuild) {
  // Same seed, same batches: one system keeps its PlanCache across batches
  // (incremental maintenance), the other is forced to rebuild from scratch
  // before every step. Every message charge the planners make flows
  // through the cached aggregates (neighborhood populations, walk cost
  // model, alias sampler), so any maintenance drift — a stale neighbor
  // population, a missed size delta — shows up as diverging messages or
  // partitions here. At this scale the batch dirties more than k/16
  // entries, so the alias overlay rebuilds after each commit and both
  // systems plan with a clean (two-uniform-draw) sampler: outcomes are
  // exactly bitwise equal. (The dirty overlay's law is covered
  // statistically in plan_cache_test.)
  Metrics metrics_inc;
  Metrics metrics_rebuild;
  NowSystem incremental{shard_params(), metrics_inc, 91};
  NowSystem rebuild{shard_params(), metrics_rebuild, 91};
  incremental.initialize(900, 90, InitTopology::kModeledSparse);
  rebuild.initialize(900, 90, InitTopology::kModeledSparse);
  Rng victims_a{17};
  Rng victims_b{17};

  for (int round = 0; round < 5; ++round) {
    const auto leaves_a = pick_victims(incremental, 7, victims_a);
    const auto leaves_b = pick_victims(rebuild, 7, victims_b);
    ASSERT_EQ(leaves_a, leaves_b);
    rebuild.invalidate_plan_cache();
    const auto [ja, ra] =
        incremental.step_parallel_mixed(7, 1, leaves_a, 4);
    const auto [jb, rb] = rebuild.step_parallel_mixed(7, 1, leaves_b, 4);
    ASSERT_EQ(ja, jb) << "round " << round;
    EXPECT_EQ(ra.cost.messages, rb.cost.messages) << "round " << round;
    EXPECT_EQ(ra.cost.rounds, rb.cost.rounds);
    EXPECT_EQ(ra.wave_count, rb.wave_count);
    EXPECT_EQ(ra.conflicts, rb.conflicts);
  }
  EXPECT_EQ(partition_signature(incremental), partition_signature(rebuild));
  for (const NodeId node : incremental.state().live_nodes()) {
    ASSERT_EQ(incremental.state().home_of(node),
              rebuild.state().home_of(node));
  }
  EXPECT_TRUE(incremental.check().ok);
  EXPECT_TRUE(rebuild.check().ok);
}

TEST(ShardTest, DirtyAliasOverlayStaysShardCountIndependent) {
  // Regression test: at a scale where a batch dirties fewer than k/16
  // alias entries, the PlanCache dirty overlay SURVIVES into the next
  // batch's planning and a size-biased partner draw can land in
  // draw_biased's dirty branch — a linear scan of dirty_list, whose order
  // is therefore observable. That order must be canonical: before the
  // commit sorted its size deltas by slot, it followed stage 1's
  // shard-count-dependent slot-block concatenation, and shards 1 vs 4
  // diverged by thousands of node homes within two batches (the small
  // deployments of the tests above never caught it, because there the
  // k/16 threshold rebuilds the table after every batch).
  NowParams p;  // default k -> ~33-member clusters, ~600 of them
  p.max_size = 1 << 15;
  p.walk_mode = WalkMode::kSampleExact;
  constexpr std::size_t kShardAxis[] = {1, 4};
  std::vector<std::unique_ptr<Metrics>> metrics;
  std::vector<std::unique_ptr<NowSystem>> systems;
  std::vector<Rng> victim_rngs;
  for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
    metrics.push_back(std::make_unique<Metrics>());
    systems.push_back(
        std::make_unique<NowSystem>(p, *metrics.back(), 101));
    systems.back()->initialize(20000, 1500, InitTopology::kModeledSparse);
    victim_rngs.emplace_back(101 ^ 5);
  }

  for (int round = 0; round < 6; ++round) {
    std::vector<std::vector<NodeId>> joined(std::size(kShardAxis));
    for (std::size_t v = 0; v < std::size(kShardAxis); ++v) {
      const auto leaves = pick_victims(*systems[v], 4, victim_rngs[v]);
      std::tie(joined[v], std::ignore) = systems[v]->step_parallel_mixed(
          4, /*byzantine_joins=*/1, leaves, kShardAxis[v]);
    }
    ASSERT_EQ(joined[0], joined[1]) << "round " << round;
    for (const NodeId node : systems[0]->state().live_nodes()) {
      ASSERT_EQ(systems[0]->state().home_of(node),
                systems[1]->state().home_of(node))
          << "round " << round;
    }
  }
  EXPECT_EQ(partition_signature(*systems[0]),
            partition_signature(*systems[1]));
}

TEST(ShardTest, LegacyPathIsUntouchedByDefault) {
  // step_parallel with shards<=1 must keep using the historical sequential
  // engine and the system RNG stream: identical to a plain join/leave loop.
  Metrics metrics_batch;
  Metrics metrics_loop;
  NowSystem batch{shard_params(), metrics_batch, 55};
  NowSystem loop{shard_params(), metrics_loop, 55};
  batch.initialize(600, 60, InitTopology::kModeledSparse);
  loop.initialize(600, 60, InitTopology::kModeledSparse);

  const auto [joined, report] = batch.step_parallel(5, {});
  (void)report;
  for (int i = 0; i < 5; ++i) loop.join(false);

  ASSERT_EQ(joined.size(), 5u);
  EXPECT_EQ(partition_signature(batch), partition_signature(loop));
}

}  // namespace
}  // namespace now::core
