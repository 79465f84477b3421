// Telemetry-layer tests (DESIGN.md §13): registry merge determinism
// across thread counts, log2 histogram bucket boundaries, span ring
// wraparound, the batch engine's work counters, trace-export JSON validity from a forked two-process socket
// run, and the determinism contract — run digests are bit-identical with
// telemetry enabled, disabled, or compiled out (NOW_OBS=OFF builds this
// same file and the pinned digest must not move).
#include "obs/obs.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/now.hpp"
#include "net/socket_transport.hpp"
#include "obs/json.hpp"
#include "sim/shard_runtime.hpp"

namespace now::obs {
namespace {

namespace fs = std::filesystem;

/// Registry and SpanRecorder are process-wide singletons, so every test
/// scopes its recording window and drops its events on the way out.
class ObsEnabledScope {
 public:
  ObsEnabledScope() { set_enabled(true); }
  ~ObsEnabledScope() {
    set_enabled(false);
    SpanRecorder::instance().reset();
    Registry::instance().reset();
  }
};

// ------------------------------------------------------------- registry

TEST(RegistryTest, CounterMergeIsExactAcrossThreadCounts) {
  ObsEnabledScope obs;
  auto& reg = Registry::instance();
  const MetricId id = reg.counter("test.merge.counter");
  ASSERT_NE(id, kNoMetric);

  std::uint64_t expected = 0;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    constexpr std::uint64_t kAddsPerThread = 10000;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&reg, id] {
        for (std::uint64_t i = 0; i < kAddsPerThread; ++i) reg.add(id, 1);
      });
    }
    for (auto& th : pool) th.join();
    expected += threads * kAddsPerThread;
    // The read-time merge sums every thread shard: the total is exact no
    // matter how many threads contributed or when they exited.
    EXPECT_EQ(reg.counter_value(id), expected);
  }
}

TEST(RegistryTest, InternReturnsStableIdsAndChecksKinds) {
  ObsEnabledScope obs;
  auto& reg = Registry::instance();
  const MetricId a = reg.counter("test.intern.a");
  EXPECT_EQ(reg.counter("test.intern.a"), a);
  EXPECT_EQ(reg.name_of(a), "test.intern.a");
  EXPECT_EQ(reg.kind_of(a), MetricKind::kCounter);
  EXPECT_THROW(reg.histogram("test.intern.a"), std::logic_error);
}

TEST(RegistryTest, DisabledWritesDropTheirValue) {
  auto& reg = Registry::instance();
  const MetricId id = reg.counter("test.disabled.counter");
  set_enabled(false);
  reg.add(id, 5);
  EXPECT_EQ(reg.counter_value(id), 0u);
  {
    ObsEnabledScope obs;
    reg.add(id, 5);
    EXPECT_EQ(reg.counter_value(id), 5u);
  }
  // The scope's reset() zeroed it again.
  EXPECT_EQ(reg.counter_value(id), 0u);
}

TEST(RegistryTest, HistogramBucketsAreLog2WithExactBoundaries) {
  ObsEnabledScope obs;
  auto& reg = Registry::instance();
  const MetricId id = reg.histogram("test.hist.boundaries");
  ASSERT_NE(id, kNoMetric);

  // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  reg.observe(id, 0);  // bucket 0
  reg.observe(id, 1);  // bucket 1
  reg.observe(id, 2);  // bucket 2 lower bound
  reg.observe(id, 3);  // bucket 2 upper bound
  reg.observe(id, 4);  // bucket 3 lower bound
  reg.observe(id, 7);  // bucket 3 upper bound
  reg.observe(id, 8);  // bucket 4
  reg.observe(id, (1ull << 33) - 1);  // bucket 33 upper bound
  reg.observe(id, 1ull << 33);        // bucket 34 lower bound
  reg.observe(id, ~0ull);             // bucket 64 (top bucket)

  const auto buckets = reg.histogram_buckets(id);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(buckets[4], 1u);
  EXPECT_EQ(buckets[33], 1u);
  EXPECT_EQ(buckets[34], 1u);
  EXPECT_EQ(buckets[64], 1u);
  EXPECT_EQ(reg.histogram_count(id), 10u);
}

// ------------------------------------------------------- span recorder

TEST(SpanRecorderTest, RingOverwritesOldestOnWraparound) {
  ObsEnabledScope obs;
  auto& rec = SpanRecorder::instance();
  rec.set_capacity(4);
  const std::uint32_t name = rec.intern("test.ring.event");

  for (std::uint64_t i = 0; i < 7; ++i) {
    rec.instant(Cat::kShard, name, /*arg0=*/i);
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: events 0..2 were overwritten, 3..6 survive in order.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg0, i + 3);
    EXPECT_EQ(events[i].name, name);
    EXPECT_FALSE(events[i].is_span);
  }
  rec.set_capacity(1u << 16);  // restore the default for later tests
}

TEST(SpanRecorderTest, ScopedSpanWritesOutNsEvenWhenRecordingDisabled) {
  set_enabled(false);
  std::uint64_t measured = ~0ull;
  {
    ScopedSpan span(Cat::kStep, "test.span.disabled", &measured);
  }
  if (kCompiledIn) {
    // Recording is off but the caller asked for the duration: the span
    // still reads the clock (this keeps OpReport's *_ns fields filled).
    EXPECT_NE(measured, ~0ull);
    EXPECT_EQ(SpanRecorder::instance().snapshot().size(), 0u);
  } else {
    EXPECT_EQ(measured, ~0ull);  // NOW_OBS=OFF: hooks are no-ops
  }
}

// --------------------------------------------------------- trace export

/// Forks one worker for `shard` that runs over real local TCP with
/// telemetry enabled and writes its OBS file before exiting.
pid_t spawn_obs_worker(const sim::ShardSpec& spec, std::size_t shard,
                       std::uint16_t port, const std::string& obs_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  int code = 0;
  try {
    set_enabled(true);
    auto spoke = net::SocketSpoke::connect(port, shard);
    sim::run_worker(spec, shard, *spoke);
    if (!write_obs_file(obs_path, "shard" + std::to_string(shard))) code = 1;
  } catch (...) {
    code = 1;
  }
  std::_Exit(code);
}

TEST(TraceExportTest, ForkedTwoProcessRunWritesValidTraceEventJson) {
  if (!kCompiledIn) GTEST_SKIP() << "NOW_OBS=OFF: no spans to export";

  sim::ShardSpec spec;
  spec.num_shards = 2;
  spec.steps = 4;
  spec.batch_ops = 2;
  spec.n0 = 24;
  spec.seed = 29;

  const fs::path dir =
      fs::temp_directory_path() /
      ("now_obs_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string worker_path = (dir / "OBS_shard1.json").string();
  const std::string hub_path = (dir / "OBS_hub.json").string();

  auto hub = net::SocketHub::listen(spec.num_shards);
  std::vector<pid_t> pids;
  pids.push_back(spawn_obs_worker(spec, 1, hub->port(), worker_path));

  sim::ShardRunResult result;
  {
    ObsEnabledScope obs;
    // Shard 0 runs in this process so the hub's file also carries spans.
    std::thread local_worker([&] {
      auto spoke = net::SocketSpoke::connect(hub->port(), 0);
      sim::run_worker(spec, 0, *spoke);
    });
    hub->accept_initial();
    result = sim::run_hub(spec, *hub, *hub);
    local_worker.join();
    ASSERT_TRUE(write_obs_file(hub_path, "hub"));
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  EXPECT_NE(result.run_digest, 0u);

  // Both files must parse as the OBS schema: a Perfetto-loadable document
  // with a nowObs sidecar (EXPERIMENTS.md "OBS file schema").
  for (const std::string& path : {hub_path, worker_path}) {
    SCOPED_TRACE(path);
    const json::ValuePtr doc = json::parse_file(path);
    ASSERT_TRUE(doc->is_object());

    const json::Value* meta = doc->get("nowObs");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->get("obs_format")->as_u64(), 1u);
    EXPECT_GT(meta->get("epoch_wall_us")->as_u64(), 0u);
    EXPECT_GT(meta->get("pid")->as_u64(), 0u);
    const json::Value* counters = meta->get("registry")->get("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_TRUE(counters->is_array());
    // The socket run must have counted at least one digest-report send.
    std::uint64_t digest_sends = 0;
    for (const auto& c : counters->array) {
      if (c->get("name")->as_string() == "net.send.shard_digest") {
        digest_sends = c->get("value")->as_u64();
      }
    }
    EXPECT_GT(digest_sends, 0u);

    const json::Value* events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_GT(events->array.size(), 1u);
    EXPECT_EQ(events->array[0]->get("ph")->as_string(), "M");
    std::size_t shard_steps = 0;
    for (const auto& e : events->array) {
      const std::string& ph = e->get("ph")->as_string();
      ASSERT_TRUE(ph == "M" || ph == "X" || ph == "i");
      if (ph == "M") continue;
      EXPECT_GE(e->get("ts")->as_number(), 0.0);
      if (ph == "X") {
        EXPECT_GE(e->get("dur")->as_number(), 0.0);
      }
      if (e->get("name")->as_string() == "shard.step") ++shard_steps;
    }
    // Each process hosted one shard for `steps` steps, and each step span
    // carries its (shard, step) correlation key.
    EXPECT_EQ(shard_steps, spec.steps);
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------ engine counters

/// The batch engine bumps step.conflicts, step.stage2_spills, step.waves,
/// step.stage1_scanned and step.home_pages_released once per batch by that
/// batch's OpReport fields, so after N
/// batches each counter is the sum of the N reports (and 0 when telemetry
/// is compiled out).
TEST(ObsCountersTest, EngineWorkCountersEqualSummedOpReports) {
  ObsEnabledScope obs;
  core::NowParams params;
  params.max_size = 1 << 12;
  params.walk_mode = core::WalkMode::kSampleExact;
  params.k = 10;
  params.tau = 0.10;
  Metrics metrics;
  core::NowSystem system{params, metrics, 23};
  system.initialize(1200, 120, core::InitTopology::kModeledSparse);
  Rng victims{23 ^ 5};
  std::uint64_t conflicts = 0;
  std::uint64_t spills = 0;
  std::uint64_t waves = 0;
  std::uint64_t scanned = 0;
  std::uint64_t released = 0;
  for (int batch = 0; batch < 12; ++batch) {
    // Leave-heavy batches conflict; the odd join bursts spill. Batch 6
    // retires every node of the second node_home page, which stage 1 then
    // releases (and later joins re-allocate).
    std::size_t joins = batch % 3 == 2 ? 120 : 4;
    std::vector<NodeId> leaves;
    if (batch == 6) {
      joins = 0;
      for (const NodeId node : system.state().live_nodes()) {
        if (node.value() >= 1024) leaves.push_back(node);
      }
    } else {
      leaves = system.state().sample_distinct_nodes(victims, 24);
    }
    const auto [joined, report] =
        system.step_parallel_mixed(joins, 0, leaves, 4);
    conflicts += report.conflicts;
    spills += report.stage2_spills;
    waves += report.wave_count;
    scanned += report.stage1_scanned;
    released += report.home_pages_released;
  }
  ASSERT_GT(conflicts, 0u);
  ASSERT_GT(spills, 0u);
  ASSERT_GT(waves, 0u);
  ASSERT_GT(scanned, 0u);
  ASSERT_GT(released, 0u);
  auto& reg = Registry::instance();
  const std::uint64_t scale = kCompiledIn ? 1 : 0;
  EXPECT_EQ(reg.counter_value(reg.counter("step.conflicts")),
            scale * conflicts);
  EXPECT_EQ(reg.counter_value(reg.counter("step.stage2_spills")),
            scale * spills);
  EXPECT_EQ(reg.counter_value(reg.counter("step.waves")), scale * waves);
  EXPECT_EQ(reg.counter_value(reg.counter("step.stage1_scanned")),
            scale * scanned);
  EXPECT_EQ(reg.counter_value(reg.counter("step.home_pages_released")),
            scale * released);
}

// ---------------------------------------------------------- determinism

/// The whole point of the telemetry layer's determinism contract: the run
/// digest is bit-identical with telemetry on, off, or compiled out. The
/// pinned constant is shared by the NOW_OBS=ON and NOW_OBS=OFF builds of
/// this test, so a telemetry hook that perturbs protocol state fails the
/// build matrix, not just an equality check within one configuration.
TEST(ObsDeterminismTest, RunDigestIdenticalWithTelemetryOnOffCompiledOut) {
  sim::ShardSpec spec;
  spec.num_shards = 3;
  spec.steps = 6;
  spec.batch_ops = 2;
  spec.n0 = 30;
  spec.seed = 41;

  set_enabled(false);
  const sim::ShardRunResult off = sim::run_single_process(spec);

  sim::ShardRunResult on;
  {
    ObsEnabledScope obs;
    on = sim::run_single_process(spec);
    if (kCompiledIn) {
      // Prove telemetry actually recorded something, so the digest
      // equality below is not vacuous.
      EXPECT_GT(Registry::instance().counter_value(
                    Registry::instance().counter("net.send.shard_digest")),
                0u);
    }
  }

  EXPECT_EQ(on.run_digest, off.run_digest);
  EXPECT_EQ(on.step_digests, off.step_digests);
  EXPECT_EQ(on.engine_rounds, off.engine_rounds);

  // Pinned across build configurations (see the comment above).
  EXPECT_EQ(off.run_digest, 0x71f19f5bc1f50134ull);
}

}  // namespace
}  // namespace now::obs
