// MICRO — google-benchmark microbenchmarks of the primitives, for profiling
// the simulator itself (wall-clock, not message-cost, which the other
// benches measure).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "agreement/phase_king.hpp"
#include "cluster/rand_num.hpp"
#include "common/thread_pool.hpp"
#include "core/now.hpp"
#include "core/state.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/random_walk.hpp"
#include "graph/spectral.hpp"
#include "obs/obs.hpp"

namespace now {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ErdosRenyi(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<graph::Vertex> verts(n);
  for (std::size_t i = 0; i < n; ++i) verts[i] = i;
  Rng rng{2};
  for (auto _ : state) {
    graph::Graph g;
    graph::generate_erdos_renyi(g, verts, 10.0 / static_cast<double>(n), rng);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_ErdosRenyi)->Arg(128)->Arg(512)->Arg(2048);

void BM_CtrwWalk(benchmark::State& state) {
  graph::Graph g;
  std::vector<graph::Vertex> verts(200);
  for (std::size_t i = 0; i < verts.size(); ++i) verts[i] = i;
  Rng gen{3};
  graph::generate_erdos_renyi(g, verts, 0.05, gen);
  for (const auto v : g.vertices()) {
    if (g.degree(v) == 0) g.add_edge(v, (v + 1) % 200);
  }
  Rng rng{4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ctrw_walk(g, 0, 25.0, rng).endpoint);
  }
}
BENCHMARK(BM_CtrwWalk);

void BM_SpectralEstimate(benchmark::State& state) {
  graph::Graph g;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<graph::Vertex> verts(n);
  for (std::size_t i = 0; i < n; ++i) verts[i] = i;
  Rng gen{5};
  graph::generate_erdos_renyi(g, verts, 12.0 / static_cast<double>(n), gen);
  for (const auto v : g.vertices()) {
    if (g.degree(v) == 0) g.add_edge(v, (v + 1) % n);
  }
  Rng rng{6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::estimate_expansion(g, rng, 100).spectral_gap);
  }
}
BENCHMARK(BM_SpectralEstimate)->Arg(128)->Arg(512);

void BM_RandNumMessageLevel(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < s; ++i) members.emplace_back(i);
  Metrics metrics;
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::run_rand_num(members, {}, 1000, cluster::RandNumMode::kFast,
                              cluster::RandNumByz::kFollow, metrics, rng)
            .value);
  }
}
BENCHMARK(BM_RandNumMessageLevel)->Arg(16)->Arg(33);

void BM_PhaseKing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<NodeId> members;
  std::map<NodeId, std::uint64_t> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    members.emplace_back(i);
    inputs[members.back()] = i % 2;
  }
  Metrics metrics;
  Rng rng{8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        agreement::run_phase_king(members, {}, inputs,
                                  agreement::ByzBehavior::kSilent, metrics,
                                  rng)
            .rounds);
  }
}
BENCHMARK(BM_PhaseKing)->Arg(7)->Arg(16)->Arg(31);

struct SystemFixture {
  core::NowParams params;
  Metrics metrics;
  core::NowSystem system;
  explicit SystemFixture(core::WalkMode mode)
      : params([mode] {
          core::NowParams p;
          p.max_size = 1 << 12;
          p.walk_mode = mode;
          return p;
        }()),
        system(params, metrics, 9) {
    system.initialize(800, 120, core::InitTopology::kModeledSparse);
  }
};

void BM_RandClSimulated(benchmark::State& state) {
  SystemFixture fx{core::WalkMode::kSimulate};
  const ClusterId start = fx.system.state().cluster_ids().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.system.rand_cl_from(start).cluster);
  }
}
BENCHMARK(BM_RandClSimulated);

void BM_RandClSampled(benchmark::State& state) {
  SystemFixture fx{core::WalkMode::kSampleExact};
  const ClusterId start = fx.system.state().cluster_ids().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.system.rand_cl_from(start).cluster);
  }
}
BENCHMARK(BM_RandClSampled);

void BM_ExchangeAll(benchmark::State& state) {
  SystemFixture fx{core::WalkMode::kSampleExact};
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto ids = fx.system.state().cluster_ids();
    benchmark::DoNotOptimize(
        fx.system.exchange_all(ids[cursor++ % ids.size()]).messages);
  }
}
BENCHMARK(BM_ExchangeAll);

/// NowParams of the churn rows: sampled walks, N at least twice n.
core::NowParams churn_params(std::size_t n) {
  core::NowParams params;
  params.max_size = std::max<std::uint64_t>(std::uint64_t{1} << 12,
                                            std::bit_ceil(2 * n));
  params.walk_mode = core::WalkMode::kSampleExact;
  return params;
}

/// The batch driver every sharded churn row shares: each iteration steps a
/// batch of `batch` joins through the sharded engine, then a batch in
/// which the same nodes leave, so the population returns to n and the
/// deployment stays in steady state. Time is reported per join + leave
/// pair, comparable across rows and engines. The counters are per-batch
/// means of the plan phase and the commit phase (with the commit further
/// broken into resolve / stage-1 apply / stage-2 merge) plus exchange
/// waves — the breakdown that attributes whole-step movement to the phase
/// that caused it. `metrics` (the system's cost sink) is drained after
/// every iteration, as a long-running caller would: it keeps one sample
/// per operation, so memory would otherwise grow with the iteration count.
void run_join_leave_batches(benchmark::State& state, core::NowSystem& system,
                            Metrics& metrics, std::size_t batch,
                            std::size_t shards) {
  double commit_ns = 0;
  double plan_ns = 0;
  double resolve_ns = 0;
  double stage1_ns = 0;
  double stage2_ns = 0;
  double wave_count = 0;
  std::size_t batches = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto [joined, up] = system.step_parallel(batch, {}, false, shards);
    benchmark::DoNotOptimize(up.cost.messages);
    const auto [unused, down] = system.step_parallel(0, joined, false, shards);
    benchmark::DoNotOptimize(down.cost.messages);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count() /
        static_cast<double>(batch));
    commit_ns += static_cast<double>(up.commit_ns + down.commit_ns);
    plan_ns += static_cast<double>(up.plan_ns + down.plan_ns);
    resolve_ns += static_cast<double>(up.resolve_ns + down.resolve_ns);
    stage1_ns += static_cast<double>(up.stage1_ns + down.stage1_ns);
    stage2_ns += static_cast<double>(up.stage2_ns + down.stage2_ns);
    wave_count += static_cast<double>(up.wave_count + down.wave_count);
    batches += 2;
    metrics.reset();
  }
  if (batches > 0) {
    const auto per_batch = [batches](double total) {
      return total / static_cast<double>(batches);
    };
    state.counters["commit_ns"] = per_batch(commit_ns);
    state.counters["plan_ns"] = per_batch(plan_ns);
    state.counters["resolve_ns"] = per_batch(resolve_ns);
    state.counters["stage1_ns"] = per_batch(stage1_ns);
    state.counters["stage2_ns"] = per_batch(stage2_ns);
    state.counters["wave_count"] = per_batch(wave_count);
  }
}

/// Join/leave churn at size n — the hot maintenance path whose per-op
/// wall-clock cost gates how large a deployment the simulator can step.
///
/// The second argument is the --shards axis: shards = 1 drives the legacy
/// sequential engine one operation at a time (the pre-sharding trajectory
/// baseline); shards >= 2 drives batches of 32 joins + leaves through the
/// sharded plan/commit engine. Time is reported per join + leave pair in
/// both modes so the BENCH_micro.json rows stay comparable across engines
/// and PRs.
void BM_JoinLeaveCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  Metrics metrics;
  core::NowSystem system{churn_params(n), metrics, 9};
  system.initialize(n, n * 15 / 100, core::InitTopology::kModeledSparse);
  if (shards > 1) {
    run_join_leave_batches(state, system, metrics, 32, shards);
    return;
  }
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto [node, report] = system.join(false);
    benchmark::DoNotOptimize(report.cost.messages);
    system.leave(node);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
}
BENCHMARK(BM_JoinLeaveCycle)
    ->UseManualTime()
    ->Args({800, 1})
    ->Args({800, 4})
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({200000, 1})
    ->Args({200000, 4});

/// BM_JoinLeaveCycle's sharded body with the telemetry layer switched ON
/// (spans recorded, counters incremented) — the obs-overhead guard row.
/// scripts/check_bench.py compares it against BM_JoinLeaveCycle/100000/4
/// (same work, telemetry off) and warns when the hooks cost more than the
/// DESIGN.md §13 overhead budget. With NOW_OBS=OFF the two rows measure
/// identical code.
void BM_JoinLeaveCycleObs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  Metrics metrics;
  core::NowSystem system{churn_params(n), metrics, 9};
  system.initialize(n, n * 15 / 100, core::InitTopology::kModeledSparse);
  obs::set_enabled(true);
  run_join_leave_batches(state, system, metrics, 32, shards);
  obs::set_enabled(false);
  obs::SpanRecorder::instance().reset();
  obs::Registry::instance().reset();
}
BENCHMARK(BM_JoinLeaveCycleObs)->UseManualTime()->Args({100000, 4});

/// The huge-batch tier (DESIGN.md §11): one deployment at n ∈ {1e6, 1e7}
/// stepped with 4096-op batches on 8 shards through the sharded engine —
/// the scale the streaming plan kernels, bulk RNG derivation and
/// epoch-stamped scratch exist for. On top of the shared driver's phase
/// breakdown, the row records the deployment's memory footprint per node
/// (NowSystem::footprint_bytes, capacities included), so both ns/op and
/// bytes-per-node are gated rows in BENCH_micro.json. CI runs the 1e6 row;
/// nightly runs the full 1e7 row and uploads the phase breakdown.
///
/// Every invocation builds its own deployment (initialize is linear in n).
/// The iteration count is fixed: the framework would size the loop from
/// the per-pair manual time (~1/4096 of an iteration's real duration) and
/// run thousands of 4096-op up/down iterations.
void BM_HugeBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Metrics metrics;
  core::NowSystem system{churn_params(n), metrics, 9};
  system.initialize(n, n * 15 / 100, core::InitTopology::kModeledSparse);
  run_join_leave_batches(state, system, metrics, 4096, 8);
  state.counters["bytes_per_node"] =
      static_cast<double>(system.footprint_bytes()) /
      static_cast<double>(system.num_nodes());
}
BENCHMARK(BM_HugeBatch)
    ->UseManualTime()
    ->Iterations(20)
    ->Arg(1000000)
    ->Arg(10000000);

/// Stage 1 in isolation: NowState::rebuild_memberships over every cluster
/// of an n-node partition — the two-pass counting sort of node_home in
/// NodeId order on `shards` workers, in-place extent writes and the size
/// commit — exactly the batch commit's stage 1. Moves alternate between a
/// forward sweep (swap each cluster's 8 lowest members for 8 fresh ids)
/// and its inverse, so the state is steady, net counts are zero, and no
/// sweep ever spills. The node_home writes that play the resolve's part
/// happen between the timed sweeps, outside the timed region, so only
/// stage 1 is measured. Time is reported per cluster rebuilt; this is the
/// microbenchmark BM_JoinLeaveCycle's stage-1 cost is attributed with.
void BM_MemberEditApply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kClusterSize = 64;
  constexpr std::size_t kEditsPerCluster = 8;
  const std::size_t k = n / kClusterSize;
  over::OverParams over;
  over.max_size = std::bit_ceil(std::uint64_t{2} * n);
  core::NowState st{over};
  std::vector<ClusterId> clusters;
  std::vector<std::size_t> slots;
  clusters.reserve(k);
  slots.reserve(k);
  for (std::size_t ci = 0; ci < k; ++ci) {
    const ClusterId c = st.create_cluster();
    clusters.push_back(c);
    slots.push_back(st.slot_index(c));
    for (std::size_t i = 0; i < kClusterSize; ++i) {
      const NodeId node{ci * kClusterSize + i};
      st.register_node(node);
      st.add_member(c, node);
    }
  }
  // Per cluster: the 8 members the forward sweep moves out, and the 8
  // fresh ids it moves in (the backward sweep moves them back).
  std::vector<std::vector<NodeId>> old_ids(k);
  std::vector<std::vector<NodeId>> new_ids(k);
  for (std::size_t ci = 0; ci < k; ++ci) {
    for (std::size_t j = 0; j < kEditsPerCluster; ++j) {
      old_ids[ci].emplace_back(ci * kClusterSize + j);
      new_ids[ci].emplace_back(n + ci * kEditsPerCluster + j);
    }
  }
  // The resolve's share of a sweep (untimed): `out` leaves each cluster,
  // `in` arrives there.
  const auto resolve = [&](const std::vector<std::vector<NodeId>>& out,
                           const std::vector<std::vector<NodeId>>& in) {
    for (std::size_t ci = 0; ci < k; ++ci) {
      for (const NodeId node : out[ci]) st.clear_home(node);
      for (const NodeId node : in[ci]) st.commit_home(node, clusters[ci]);
    }
  };
  ThreadPool pool{shards > 1 ? shards - 1 : 0};
  const std::vector<std::int64_t> net_of_slot(st.slot_count(), 0);
  core::NowState::StageOneScratch scratch;
  std::size_t spills = 0;
  const auto sweep = [&] {
    const auto start = std::chrono::steady_clock::now();
    st.rebuild_memberships(slots, net_of_slot, pool, shards, scratch);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    spills += scratch.spills.size();
    return elapsed;
  };
  double total_seconds = 0.0;
  for (auto _ : state) {
    resolve(old_ids, new_ids);
    double elapsed = sweep();
    resolve(new_ids, old_ids);
    elapsed += sweep();
    benchmark::ClobberMemory();
    state.SetIterationTime(elapsed);
    total_seconds += elapsed;
  }
  if (spills > 0) {
    state.SkipWithError("steady-state sweep spilled unexpectedly");
  }
  // Per-cluster cost: each iteration rebuilds every cluster twice (one
  // forward and one backward sweep).
  state.counters["edit_ns"] = benchmark::Counter(
      total_seconds * 1e9 /
      (static_cast<double>(state.iterations()) * static_cast<double>(2 * k)));
}
BENCHMARK(BM_MemberEditApply)
    ->UseManualTime()
    ->Args({100000, 1})
    ->Args({100000, 4})
    ->Args({1000000, 1})
    ->Args({1000000, 4});

}  // namespace
}  // namespace now

// Custom main: in addition to the console table, always write the results to
// BENCH_micro.json (google-benchmark's JSON schema: wall-ns per op lives in
// real_time) so the wall-clock trajectory of the hot paths is machine-diffable
// across PRs without remembering --benchmark_out flags. An explicit
// --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  const auto has_flag = [&args](std::string_view prefix) {
    return std::any_of(args.begin(), args.end(), [prefix](const char* arg) {
      return std::string_view(arg).starts_with(prefix);
    });
  };
  if (!has_flag("--benchmark_out=")) {
    args.push_back(out_flag.data());
    if (!has_flag("--benchmark_out_format=")) {
      args.push_back(format_flag.data());
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
