// Trace format v2 (DESIGN.md §10): embedded checkpoints + footer index +
// seekable replay. Covers the footer round trip, seek-restore-continue
// bit-identity against the full replay (across shard counts), v1 backward
// compatibility (reader AND writer), and the malformed-footer rejection paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/snapshot.hpp"
#include "sim/trace.hpp"

namespace now::sim {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Batched adversarial scenario exercising every frame type.
ScenarioConfig batched_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.params.max_size = 1 << 12;
  config.params.walk_mode = core::WalkMode::kSampleExact;
  config.params.k = 10;
  config.params.tau = 0.10;
  config.n0 = 800;
  config.topology = core::InitTopology::kModeledSparse;
  config.steps = 40;
  config.sample_every = 5;
  config.seed = seed;
  config.batch_ops = 6;
  config.shards = 4;
  config.batch_byz_fraction = 0.10;
  config.batch_placement = BatchPlacement::kTargeted;
  config.batch_leave_quota = 2;
  return config;
}

ScenarioResult record_trace(const ScenarioConfig& base,
                            const std::string& path) {
  ScenarioConfig config = base;
  config.trace_path = path;
  Metrics metrics;
  adversary::RandomChurnAdversary adversary{
      config.params.tau, adversary::ChurnSchedule::hold(config.n0)};
  return run_scenario(config, adversary, metrics);
}

// --- raw-file surgery helpers (craft malformed-but-checksummed files) ---

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t read_u64_le(const std::vector<std::uint8_t>& buf,
                          std::size_t off) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf[off + i]) << (8 * i);
  }
  return v;
}

void write_u64_le(std::vector<std::uint8_t>& buf, std::size_t off,
                  std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// File layout: magic(8) + version(4) + payload + fnv1a64(payload)(8).
constexpr std::size_t kFilePrefix = 12;

/// Applies `edit` to the payload and re-stamps a VALID checksum, so the
/// mutated file passes framing and fails only at the targeted validation.
void corrupt_payload(const std::string& path,
                     const std::function<void(std::vector<std::uint8_t>&,
                                              std::size_t)>& edit) {
  std::vector<std::uint8_t> file = read_file_bytes(path);
  ASSERT_GT(file.size(), kFilePrefix + 8);
  const std::size_t payload_size = file.size() - kFilePrefix - 8;
  std::vector<std::uint8_t> payload(file.begin() + kFilePrefix,
                                    file.begin() + kFilePrefix +
                                        static_cast<std::ptrdiff_t>(
                                            payload_size));
  edit(payload, payload_size);
  std::copy(payload.begin(), payload.end(), file.begin() + kFilePrefix);
  write_u64_le(file, kFilePrefix + payload_size,
               core::fnv1a64(payload.data(), payload.size()));
  write_file_bytes(path, file);
}

TEST(TraceSeekTest, RecorderEmbedsCheckpointsAtRequestedCadence) {
  const std::string path = temp_path("seek_cadence.trace");
  ScenarioConfig config = batched_config(101);
  config.trace_checkpoint_every = 10;
  (void)record_trace(config, path);

  const TraceInfo info = trace_info(path);
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.steps, config.steps);
  EXPECT_EQ(info.tau, config.params.tau);

  // Checkpoints at 10, 20, 30 — never at the final step (the end summary
  // already covers it).
  const auto checkpoints = trace_checkpoints(path);
  ASSERT_EQ(checkpoints.size(), 3u);
  EXPECT_EQ(checkpoints[0].step, 10u);
  EXPECT_EQ(checkpoints[1].step, 20u);
  EXPECT_EQ(checkpoints[2].step, 30u);
  EXPECT_EQ(info.checkpoint_count, 3u);

  // The full replay byte-verifies each embedded snapshot.
  const TraceReplayResult replay = replay_trace(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.checkpoints_checked, 3u);
  std::remove(path.c_str());
}

TEST(TraceSeekTest, AutoCadenceTargetsAboutEightCheckpoints) {
  const std::string path = temp_path("seek_auto.trace");
  (void)record_trace(batched_config(103), path);  // steps=40, cadence 8
  const auto checkpoints = trace_checkpoints(path);
  ASSERT_EQ(checkpoints.size(), 4u);  // 8, 16, 24, 32
  EXPECT_EQ(checkpoints.front().step, 8u);
  EXPECT_EQ(checkpoints.back().step, 32u);
  std::remove(path.c_str());
}

TEST(TraceSeekTest, SeekRestoreContinueMatchesFullReplay) {
  const std::string path = temp_path("seek_continue.trace");
  ScenarioConfig config = batched_config(107);
  config.trace_checkpoint_every = 10;
  (void)record_trace(config, path);

  const TraceReplayResult full = replay_trace(path);
  ASSERT_TRUE(full.ok) << full.error;

  const auto checkpoints = trace_checkpoints(path);
  ASSERT_EQ(checkpoints.size(), 3u);
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    ReplayOptions opts;
    opts.start_checkpoint = i;
    const TraceReplayResult seek = replay_trace(path, opts);
    ASSERT_TRUE(seek.ok) << "seek from checkpoint " << i << ": "
                         << seek.error;
    EXPECT_EQ(seek.start_step, checkpoints[i].step);
    // Later embedded checkpoints are still byte-verified.
    EXPECT_EQ(seek.checkpoints_checked, checkpoints.size() - 1 - i);
    // The whole-run aggregates come out identical to the full replay —
    // the seeded partials plus the replayed tail.
    EXPECT_EQ(seek.result.peak_byz_fraction, full.result.peak_byz_fraction);
    EXPECT_EQ(seek.result.ever_compromised, full.result.ever_compromised);
    EXPECT_EQ(seek.result.total_splits, full.result.total_splits);
    EXPECT_EQ(seek.result.total_merges, full.result.total_merges);
    EXPECT_EQ(seek.result.final_nodes, full.result.final_nodes);
    EXPECT_EQ(seek.result.final_clusters, full.result.final_clusters);
    EXPECT_EQ(seek.result.final_byzantine, full.result.final_byzantine);
    // The replayed tail samples are bit-identical to the full replay's.
    ASSERT_LE(seek.result.samples.size(), full.result.samples.size());
    const std::size_t skip =
        full.result.samples.size() - seek.result.samples.size();
    for (std::size_t j = 0; j < seek.result.samples.size(); ++j) {
      EXPECT_EQ(seek.result.samples[j], full.result.samples[skip + j])
          << "checkpoint " << i << " tail sample " << j;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceSeekTest, SeekIsBitIdenticalAcrossShards) {
  const std::string path = temp_path("seek_equiv.trace");
  ScenarioConfig config = batched_config(109);
  config.trace_checkpoint_every = 10;
  (void)record_trace(config, path);

  const TraceReplayResult full = replay_trace(path);
  ASSERT_TRUE(full.ok) << full.error;

  const std::size_t shard_axis[] = {1, 4, 8};
  for (const std::size_t shards : shard_axis) {
    ReplayOptions opts;
    opts.start_checkpoint = 1;  // mid-trace restore
    opts.shards_override = shards;
    const TraceReplayResult seek = replay_trace(path, opts);
    ASSERT_TRUE(seek.ok) << "shards=" << shards << ": " << seek.error;
    // Replay compares every sample and later checkpoint bit-exactly, so
    // ok already proves equivalence; the finals double-check it.
    EXPECT_EQ(seek.result.final_nodes, full.result.final_nodes);
    EXPECT_EQ(seek.result.final_byzantine, full.result.final_byzantine);
    EXPECT_EQ(seek.result.peak_byz_fraction, full.result.peak_byz_fraction);
  }
  std::remove(path.c_str());
}

TEST(TraceSeekTest, V1WriterStaysReadableAndUnseekable) {
  const std::string path = temp_path("seek_v1.trace");
  ScenarioConfig config = batched_config(113);
  config.trace_format = 1;  // legacy writer
  const ScenarioResult recorded = record_trace(config, path);

  const TraceInfo info = trace_info(path);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.checkpoint_count, 0u);
  EXPECT_TRUE(trace_checkpoints(path).empty());

  const TraceReplayResult replay = replay_trace(path);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.checkpoints_checked, 0u);
  EXPECT_EQ(replay.result.final_nodes, recorded.final_nodes);

  // Seeking a v1 trace is a hard error, not a silent full replay.
  ReplayOptions opts;
  opts.start_checkpoint = 0;
  EXPECT_THROW((void)replay_trace(path, opts), core::SnapshotError);
  std::remove(path.c_str());
}

TEST(TraceSeekTest, V1AndV2RecordTheSameTrajectory) {
  // The format bump cannot change what is recorded: the same scenario
  // written through both writers replays to identical outcomes.
  const std::string v1 = temp_path("seek_pair_v1.trace");
  const std::string v2 = temp_path("seek_pair_v2.trace");
  ScenarioConfig config = batched_config(127);
  config.trace_format = 1;
  (void)record_trace(config, v1);
  config.trace_format = 0;
  (void)record_trace(config, v2);

  const TraceReplayResult a = replay_trace(v1);
  const TraceReplayResult b = replay_trace(v2);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_EQ(a.result.samples.size(), b.result.samples.size());
  for (std::size_t i = 0; i < a.result.samples.size(); ++i) {
    EXPECT_EQ(a.result.samples[i], b.result.samples[i]);
  }
  EXPECT_EQ(a.result.final_nodes, b.result.final_nodes);
  EXPECT_EQ(a.result.total_splits, b.result.total_splits);
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

TEST(TraceSeekTest, MalformedFootersAreRejectedNotMisparsed) {
  const std::string path = temp_path("seek_malformed.trace");
  ScenarioConfig config = batched_config(131);
  config.trace_checkpoint_every = 10;
  (void)record_trace(config, path);
  const std::vector<std::uint8_t> pristine = read_file_bytes(path);

  // Footer offset pointing past the end of the payload.
  corrupt_payload(path, [](std::vector<std::uint8_t>& payload,
                           std::size_t size) {
    write_u64_le(payload, size - 8, size + 1000);
  });
  EXPECT_THROW((void)trace_checkpoints(path), core::SnapshotError);
  EXPECT_THROW((void)replay_trace(path), core::SnapshotError);

  // Footer offset landing mid-stream (magic tripwire).
  write_file_bytes(path, pristine);
  corrupt_payload(path, [](std::vector<std::uint8_t>& payload,
                           std::size_t size) {
    write_u64_le(payload, size - 8, 4);
  });
  EXPECT_THROW((void)trace_checkpoints(path), core::SnapshotError);

  // A checkpoint index entry pointing past the event stream ("offset past
  // EOF" flavor): entry 0's offset field lives at footer + 4 (magic) + 8
  // (count) + 8 (step).
  write_file_bytes(path, pristine);
  corrupt_payload(path, [](std::vector<std::uint8_t>& payload,
                           std::size_t size) {
    const std::uint64_t footer = read_u64_le(payload, size - 8);
    write_u64_le(payload, static_cast<std::size_t>(footer) + 4 + 8 + 8,
                 footer + 1);
  });
  EXPECT_THROW((void)trace_checkpoints(path), core::SnapshotError);

  // Plain truncation (footer cut off) dies at the checksum gate.
  std::vector<std::uint8_t> truncated = pristine;
  truncated.resize(truncated.size() - 20);
  write_file_bytes(path, truncated);
  EXPECT_THROW((void)replay_trace(path), core::SnapshotError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace now::sim
