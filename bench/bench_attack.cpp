// ATT — Section 3.3's motivation for shuffling: "the adversary chooses a
// specific cluster and keeps adding and removing the Byzantine nodes until
// they fall into that cluster". With exchange enabled the attack is
// neutralized; without it the victim cluster falls.
//
// Experiment: identical join-leave attack against NOW and against the
// no-shuffle baseline; also the forced-leave (DoS) attack. Report
// time-to-compromise (or survival) and the victim cluster's peak Byzantine
// fraction.
// Record & replay (DESIGN.md §8): --record=DIR writes one scenario trace
// per attack row into DIR while running normally; --replay=DIR re-drives
// every row from its trace instead of from the adversary code, verifies
// the recorded invariant samples bit-exactly, and reports the SAME table
// and verdict — exiting 1 if any trace diverged. The pair proves the whole
// attack matrix is a deterministic, portable artifact.
#include "bench_common.hpp"

#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "adversary/adversary.hpp"
#include "baseline/no_shuffle.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"

namespace now {
namespace {

struct AttackOutcome {
  bool fell = false;
  std::size_t fall_step = 0;
  double peak = 0.0;
};

/// Trace mode shared by every attack row. In replay mode `diverged`
/// records whether any trace failed verification.
struct TraceMode {
  std::string dir;
  bool record = false;
  bool replay = false;
  bool diverged = false;

  [[nodiscard]] std::string path(const std::string& label) const {
    return dir + "/attack_" + label + ".trace";
  }
};

AttackOutcome outcome_from(const sim::ScenarioResult& result) {
  return AttackOutcome{result.ever_compromised,
                       result.first_compromise_step,
                       result.peak_byz_fraction};
}

/// Replays one row's trace, verifying samples; an unreadable/missing
/// trace or a divergence marks the run failed (exit 1) instead of
/// aborting, so a partial --record directory is reported row by row.
AttackOutcome replay_row(TraceMode& mode, const std::string& label) {
  try {
    const auto replay = sim::replay_trace(mode.path(label));
    if (!replay.ok) {
      std::cerr << "REPLAY DIVERGED (" << label << "): " << replay.error
                << "\n";
      mode.diverged = true;
    }
    return outcome_from(replay.result);
  } catch (const core::SnapshotError& e) {
    std::cerr << "REPLAY UNREADABLE (" << label << "): " << e.what()
              << "\n";
    mode.diverged = true;
    return AttackOutcome{};
  }
}

AttackOutcome run_attack(bool shuffle, const std::string& kind,
                         std::size_t steps, std::uint64_t seed,
                         TraceMode& mode, const std::string& label) {
  sim::ScenarioConfig config;
  config.params.max_size = 1 << 12;
  config.params.tau = 0.15;
  // k scaled to the slack as Lemma 1 requires (see bench_thm3_longrun):
  // the shuffled system's survival is a whp statement in k, while the
  // no-shuffle capture is *systematic* — it happens at any k.
  config.params.k = 10;
  config.params.walk_mode = core::WalkMode::kSampleExact;
  config.params.shuffle_enabled = shuffle;
  config.n0 = 900;
  config.steps = steps;
  config.sample_every = 5;
  config.seed = seed;
  if (mode.replay) return replay_row(mode, label);
  if (mode.record) config.trace_path = mode.path(label);

  Metrics metrics;
  std::unique_ptr<adversary::Adversary> adv;
  if (kind == "join-leave") {
    adv = std::make_unique<adversary::JoinLeaveAdversary>(
        config.params.tau, adversary::ChurnSchedule::hold(400),
        /*background_churn=*/0.1);
  } else {
    adv = std::make_unique<adversary::ForcedLeaveAdversary>(
        config.params.tau);
  }
  return outcome_from(sim::run_scenario(config, *adv, metrics));
}

/// The batched adversary (DESIGN.md §7): every time step is a batch of
/// joins + leaves through the sharded engine, the adversary corrupts a tau
/// fraction of each step's joiners and places them with the targeted
/// join-leave policy (its misplaced nodes churn until they land in the
/// most-corrupted cluster). With `leave_quota > 0` it additionally forces
/// that many victims per step out of the worst/smallest clusters — the
/// batched forced-leave DoS. The same attacks, the same separation — but
/// under footnote *'s "several parallel operations per time step" regime
/// instead of one operation at a time.
AttackOutcome run_batched_attack(bool shuffle, std::size_t shards,
                                 std::size_t steps, std::size_t leave_quota,
                                 std::uint64_t seed, TraceMode& mode,
                                 const std::string& label) {
  sim::ScenarioConfig config;
  config.params.max_size = 1 << 12;
  config.params.tau = 0.15;
  config.params.k = 10;
  config.params.walk_mode = core::WalkMode::kSampleExact;
  config.params.shuffle_enabled = shuffle;
  config.n0 = 900;
  config.steps = steps;
  config.sample_every = 5;
  config.seed = seed;
  config.batch_ops = 8;
  config.shards = shards;
  config.batch_byz_fraction = config.params.tau;
  config.batch_placement = sim::BatchPlacement::kTargeted;
  config.batch_leave_quota = leave_quota;
  if (mode.replay) return replay_row(mode, label);
  if (mode.record) config.trace_path = mode.path(label);

  Metrics metrics;
  // Supplies the adversary's tau (the corruption budget); the per-step
  // moves come from the batched placement policy, not from step().
  adversary::RandomChurnAdversary adv{config.params.tau,
                                      adversary::ChurnSchedule::hold(900)};
  return outcome_from(sim::run_scenario(config, adv, metrics));
}

int run(std::size_t shards, TraceMode mode) {
  if (mode.record) std::filesystem::create_directories(mode.dir);
  bench::print_header(
      "ATT (join-leave & forced-leave attacks: NOW vs no-shuffle)",
      "shuffling defeats the targeted attacks; without exchange the victim "
      "cluster is captured");

  const std::size_t steps = 1500;
  sim::Table table({"system", "attack", "steps", "captured", "fall_step",
                    "peak_pC"});
  bench::JsonEmitter json("attack");
  bool separation = true;

  for (const std::string kind : {"join-leave", "forced-leave"}) {
    for (const bool shuffle : {true, false}) {
      const std::string file_label =
          kind + (shuffle ? "_now" : "_noshuffle");
      const auto outcome = run_attack(shuffle, kind, steps,
                                      shuffle ? 17 : 31, mode, file_label);
      table.add_row({shuffle ? "NOW (shuffling)" : "no-shuffle baseline",
                     kind, sim::Table::fmt(std::uint64_t{steps}),
                     outcome.fell ? "YES" : "no",
                     outcome.fell
                         ? sim::Table::fmt(std::uint64_t{outcome.fall_step})
                         : "-",
                     sim::Table::fmt(outcome.peak, 3)});
      const std::string label =
          kind + (shuffle ? "[now]" : "[no-shuffle]");
      json.add_scalar("peak_pC[" + label + "]", steps, outcome.peak);
      json.add_scalar("captured[" + label + "]", steps,
                      outcome.fell ? 1.0 : 0.0);
      if (kind == "join-leave") {
        if (shuffle && outcome.fell) separation = false;
        if (!shuffle && !outcome.fell) separation = false;
      }
    }
  }

  // Batched-adversary axis: the same join-leave separation must survive the
  // parallel-operations regime (batch of 8 + 8 per step, sharded engine);
  // the forced-leave DoS quota (every leave slot adversarially forced at
  // the worst/smallest clusters, on top of the corrupted joiners) is the
  // leave-heavy worst case the batch commit's resolve is exercised under.
  const std::size_t batched_steps = 400;
  for (const std::size_t quota : {std::size_t{0}, std::size_t{8}}) {
    const std::string attack =
        quota == 0 ? "batched join-leave" : "batched forced-leave";
    const std::string key =
        quota == 0 ? "batched-join-leave" : "batched-forced-leave";
    for (const bool shuffle : {true, false}) {
      const std::string file_label =
          key + (shuffle ? "_now" : "_noshuffle");
      const auto outcome =
          run_batched_attack(shuffle, shards, batched_steps, quota,
                             shuffle ? 19 : 37, mode, file_label);
      table.add_row(
          {shuffle ? "NOW (shuffling)" : "no-shuffle baseline", attack,
           sim::Table::fmt(std::uint64_t{batched_steps}),
           outcome.fell ? "YES" : "no",
           outcome.fell ? sim::Table::fmt(std::uint64_t{outcome.fall_step})
                        : "-",
           sim::Table::fmt(outcome.peak, 3)});
      const std::string label = key + (shuffle ? "[now]" : "[no-shuffle]");
      json.add_scalar("peak_pC[" + label + "]", batched_steps, outcome.peak);
      json.add_scalar("captured[" + label + "]", batched_steps,
                      outcome.fell ? 1.0 : 0.0);
      // The separation verdict requires NOW to survive every batched
      // attack; the no-shuffle capture is required for the join-leave
      // flavor (the forced-leave DoS degrades the baseline more slowly,
      // so its capture inside the horizon is reported but not gated).
      if (shuffle && outcome.fell) separation = false;
      if (!shuffle && quota == 0 && !outcome.fell) separation = false;
    }
  }

  table.print(std::cout);
  bench::record_verdict(
      json, separation,
      "the same join-leave attack that captures a cluster without shuffling "
      "is fully absorbed by NOW's exchange — sequentially and under batched "
      "parallel churn, forced-leave DoS quotas included — the experiment "
      "behind Section 3.3's design argument");
  if (mode.record) {
    std::cout << "recorded traces into " << mode.dir
              << "; verify with --replay=" << mode.dir << "\n";
  }
  if (mode.replay) {
    std::cout << (mode.diverged
                      ? "REPLAY: at least one trace DIVERGED\n"
                      : "REPLAY: every trace reproduced its recorded "
                        "invariant samples exactly\n");
  }
  return mode.diverged ? 1 : 0;
}

}  // namespace
}  // namespace now

int main(int argc, char** argv) {
  // --shards=K runs the batched-adversary axis through the sharded engine
  // with K shards (results are shard-count independent; K only changes
  // wall-clock). --record=DIR / --replay=DIR drive the trace subsystem
  // (see the header comment).
  std::size_t shards = 4;
  now::TraceMode mode;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kPrefix = "--shards=";
    if (arg.starts_with(kPrefix)) {
      shards = static_cast<std::size_t>(
          std::max(1L, std::atol(arg.substr(kPrefix.size()).data())));
    } else if (arg.starts_with("--record=")) {
      mode.dir = std::string(arg.substr(9));
      mode.record = true;
    } else if (arg.starts_with("--replay=")) {
      mode.dir = std::string(arg.substr(9));
      mode.replay = true;
    }
  }
  return now::run(shards, mode);
}
