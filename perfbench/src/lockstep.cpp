// lockstep: the multi-process shard runtime under message faults and a
// crash. The benchmark process is the hub: sim::run_hub over a SocketHub
// wrapped in a seeded FaultyTransport (drop 0.02, delay 0.02), with three
// `now_shard worker` processes (default ShardSpec params, n0 = 200 per
// shard, 2 ops per step, checkpoints every 25 steps). Worker 1 is killed
// mid-run with --crash-at and respawned from its checkpoint, as
// `now_shard compare` does. The run digest must equal the in-process
// run_single_process reference of the same spec.
//
// The benchmark sits between run_hub and the fault decorator as one more
// net::Transport: it forwards every call, stamps the time at which the
// coordinator's GO watermark (the merged-step count it broadcasts) moves,
// and, in traced repetitions, times each call and sizes each message with
// the wire codec.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/faulty_transport.hpp"
#include "net/socket_transport.hpp"
#include "net/wire.hpp"
#include "obs/obs.hpp"
#include "sim/shard_runtime.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr std::size_t kShards = 3;
// 1000 step intervals per repetition: each one has its own p99 with ten
// samples beyond it, and the reported p99 is their median.
constexpr std::size_t kStepsPerRep = 1001;
constexpr std::size_t kCrashShard = 1;
// Ten steps past a checkpoint: the respawn restores step 500 and replays
// ten steps before the barrier can move again.
constexpr std::size_t kCrashAt = 510;
// Repetitions run until --seconds is used up, never fewer than three (set-up
// samples, and both halves of the traced run's A/B). Every repetition runs
// the same spec, so the budget only decides how many are averaged, and a
// slow machine does fewer instead of overrunning.
constexpr std::size_t kMinReps = 3;

now::sim::ShardSpec lockstep_spec(std::uint64_t seed,
                                  const std::string& ckpt_dir) {
  now::sim::ShardSpec spec;
  spec.num_shards = kShards;
  spec.steps = kStepsPerRep;
  spec.batch_ops = 2;
  spec.n0 = 200;
  spec.seed = seed;
  spec.checkpoint_every = 25;
  spec.checkpoint_dir = ckpt_dir;
  return spec;
}

now::net::FaultPlan fault_plan() {
  now::net::FaultPlan plan;
  plan.drop = 0.02;
  plan.delay = 0.02;
  return plan;
}

/// What the hub's transport did, summed over a repetition.
struct HubCounters {
  std::uint64_t send_ns = 0, poll_ns = 0, end_round_ns = 0;
  std::uint64_t messages = 0, bytes = 0;
};

/// Forwarding transport: watches the GO watermark; when timing, measures
/// every call into the wrapped transport.
class ProbeTransport final : public now::net::Transport {
 public:
  ProbeTransport(now::net::Transport& inner, std::size_t steps, bool timing,
                 Tracer& tracer)
      : inner_(inner), steps_(steps), timing_(timing), tracer_(tracer) {}

  void open_endpoint(now::NodeId id) override { inner_.open_endpoint(id); }
  bool close_endpoint(now::NodeId id) override {
    return inner_.close_endpoint(id);
  }
  [[nodiscard]] bool is_live(now::NodeId id) const override {
    return inner_.is_live(id);
  }
  void send(now::net::Message msg) override {
    if (msg.tag == now::net::Tag::kShardGo &&
        now::net::word_count(msg.payload) == 1) {
      stamp_merged(static_cast<std::size_t>(now::net::word(msg.payload, 0)));
    } else if (msg.tag == now::net::Tag::kShardBye) {
      stamp_merged(steps_);
    }
    if (!timing_) {
      inner_.send(std::move(msg));
      return;
    }
    ++counters.messages;
    counters.bytes += now::net::encode_frame(msg).size();
    const std::uint64_t start = now_ns();
    inner_.send(std::move(msg));
    counters.send_ns += now_ns() - start;
  }
  void end_round(std::size_t round) override {
    if (!timing_) {
      inner_.end_round(round);
      return;
    }
    const std::uint64_t start = now_ns();
    inner_.end_round(round);
    const std::uint64_t end = now_ns();
    counters.end_round_ns += end - start;
    tracer_.add("net.hub.end_round", start, end, tracer_.current(),
                merge_ns.size());
  }
  void poll(now::NodeId id, std::vector<now::net::Message>& out) override {
    const std::uint64_t start = timing_ ? now_ns() : 0;
    inner_.poll(id, out);
    if (!timing_) return;
    counters.poll_ns += now_ns() - start;
    counters.messages += out.size();
    for (const auto& m : out) {
      counters.bytes += now::net::encode_frame(m).size();
    }
  }
  [[nodiscard]] std::size_t join_round() const override {
    return inner_.join_round();
  }

  /// merge_ns[s] = when step s + 1 was first reported merged.
  std::vector<std::uint64_t> merge_ns;
  HubCounters counters;

 private:
  void stamp_merged(std::size_t merged) {
    const std::uint64_t t = now_ns();
    while (merge_ns.size() < std::min(merged, steps_)) merge_ns.push_back(t);
  }

  now::net::Transport& inner_;
  std::size_t steps_;
  bool timing_;
  Tracer& tracer_;
};

/// Starts `now_shard worker` for one shard (exec, so no fork-after-threads
/// hazard). Workers print nothing to stdout and are reaped before the
/// result line is printed.
pid_t spawn_worker(const Options& options, const now::sim::ShardSpec& spec,
                   std::uint16_t port, std::uint64_t fault_seed,
                   std::size_t shard, bool crash) {
  const now::net::FaultPlan faults = fault_plan();
  std::vector<std::string> args = {
      options.now_shard,
      "worker",
      "--port=" + std::to_string(port),
      "--shard=" + std::to_string(shard),
      "--shards=" + std::to_string(spec.num_shards),
      "--steps=" + std::to_string(spec.steps),
      "--ops=" + std::to_string(spec.batch_ops),
      "--n0=" + std::to_string(spec.n0),
      "--seed=" + std::to_string(spec.seed),
      "--byz=" + std::to_string(spec.byz_fraction),
      "--drop=" + std::to_string(faults.drop),
      "--delay=" + std::to_string(faults.delay),
      "--fault-seed=" + std::to_string(fault_seed),
      "--ckpt-dir=" + spec.checkpoint_dir,
      "--ckpt-every=" + std::to_string(spec.checkpoint_every),
  };
  if (crash) args.push_back("--crash-at=" + std::to_string(kCrashAt));
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + options.now_shard + ": " +
                             std::strerror(rc));
  }
  return pid;
}

struct RepResult {
  now::sim::ShardRunResult run;
  std::uint64_t start_ns = 0;
  std::vector<std::uint64_t> merge_ns;
  std::size_t respawns = 0;
  double recovery_ms = 0;
  /// CPU time of the hub and every worker process, set-up included.
  double cpu_s = 0;
  HubCounters counters;
};

/// Waits for a worker and adds the CPU time it used to `cpu_s`.
int reap(pid_t pid, double& cpu_s) {
  int status = 0;
  rusage usage{};
  ::wait4(pid, &status, 0, &usage);
  cpu_s += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) /
               1e6;
  return status;
}

RepResult run_rep(const Options& options, const now::sim::ShardSpec& spec,
                  std::uint64_t fault_seed, bool timing, Tracer& tracer,
                  Report& report) {
  std::filesystem::remove_all(spec.checkpoint_dir);
  std::filesystem::create_directories(spec.checkpoint_dir);
  RepResult rep;
  const double cpu_start = process_cpu_s();
  rep.start_ns = now_ns();
  auto hub = now::net::SocketHub::listen(spec.num_shards);
  std::map<std::size_t, pid_t> pids;
  std::vector<int> crash_statuses;
  std::vector<int> exit_statuses;
  // Kills and reaps any worker still running when run_hub throws.
  struct Reaper {
    std::map<std::size_t, pid_t>& pids;
    ~Reaper() {
      for (auto& [shard, pid] : pids) {
        if (pid <= 0) continue;
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } reaper{pids};
  for (std::size_t s = 0; s < spec.num_shards; ++s) {
    pids[s] = spawn_worker(options, spec, hub->port(), fault_seed, s,
                           s == kCrashShard);
  }
  hub->accept_initial();
  now::net::FaultyTransport faulty(*hub, fault_plan(), fault_seed);
  ProbeTransport probe(faulty, spec.steps, timing, tracer);

  std::uint64_t crash_seen_ns = 0;
  const auto between_rounds = [&](bool finished) {
    for (const std::uint64_t dead : hub->drain_dead_processes()) {
      const auto shard = static_cast<std::size_t>(dead);
      const int status = reap(pids[shard], rep.cpu_s);
      pids[shard] = -1;
      if (finished) {
        exit_statuses.push_back(status);
        continue;
      }
      crash_statuses.push_back(status);
      crash_seen_ns = now_ns();
      ++rep.respawns;
      pids[shard] = spawn_worker(options, spec, hub->port(), fault_seed,
                                 shard, /*crash=*/false);
    }
  };
  rep.run = now::sim::run_hub(spec, probe, *hub, between_rounds);
  for (auto& [shard, pid] : pids) {
    if (pid <= 0) continue;
    exit_statuses.push_back(reap(pid, rep.cpu_s));
    pid = -1;
  }
  rep.cpu_s += process_cpu_s() - cpu_start;

  const auto exited_with = [](int status, int code) {
    return WIFEXITED(status) && WEXITSTATUS(status) == code;
  };
  report.attempt(crash_statuses.size() == 1 &&
                     exited_with(crash_statuses.front(),
                                 now::sim::ShardWorkerActor::kCrashExitCode),
                 "exactly the one deliberate crash");
  report.attempt(
      exit_statuses.size() == spec.num_shards &&
          std::all_of(exit_statuses.begin(), exit_statuses.end(),
                      [&](int s) { return exited_with(s, 0); }),
      "every other worker exited 0");
  rep.merge_ns = probe.merge_ns;
  if (crash_seen_ns != 0) {
    const auto next = std::upper_bound(rep.merge_ns.begin(),
                                       rep.merge_ns.end(), crash_seen_ns);
    if (next != rep.merge_ns.end()) {
      rep.recovery_ms = ms_between(crash_seen_ns, *next);
      tracer.add("sim.shard.recovery", crash_seen_ns, *next,
                 tracer.current(),
                 static_cast<std::uint64_t>(next - rep.merge_ns.begin()) + 1);
    }
  }
  rep.counters = probe.counters;
  return rep;
}

}  // namespace

void run_lockstep(const Options& options, Tracer& tracer, Report& report) {
  if (options.now_shard.empty() || ::access(options.now_shard.c_str(), X_OK)) {
    report.attempt(false, "now_shard binary not executable: '" +
                              options.now_shard + "'");
    return;
  }
  const std::string ckpt_dir = options.workdir + "/lockstep_ckpt";
  const now::sim::ShardSpec spec = lockstep_spec(options.seed, ckpt_dir);
  const std::uint64_t start = now_ns();

  // In-process reference of the same spec (fault free, no checkpoints).
  now::sim::ShardSpec reference_spec = spec;
  reference_spec.checkpoint_every = 0;
  reference_spec.checkpoint_dir.clear();
  const std::uint64_t ref_start = now_ns();
  now::sim::ShardRunResult reference;
  {
    Tracer::Scope span(tracer, "sim.shard.inproc");
    reference = now::sim::run_single_process(reference_spec);
  }
  const double inproc_s = s_between(ref_start, now_ns());
  report.line("in-process reference: " + std::to_string(inproc_s) + " s");

  EndToEnd e2e;
  EndToEnd traced;
  EndToEnd untraced;
  LayerTable layers;
  double rounds = 0;
  double respawns = 0;
  HubCounters hub;
  std::vector<double> recovery_ms;
  std::size_t reps = 0;
  std::size_t traced_reps = 0;
  for (std::size_t r = 0;
       r < kMinReps || s_between(start, now_ns()) < options.seconds; ++r) {
    const bool timing = options.trace && r % 2 == 1;
    // A fresh fault stream per repetition, so the run averages many fault
    // patterns; the digest does not depend on it (one reference serves).
    const std::uint64_t fault_seed =
        options.seed ^ (0xFA17ULL + 0x9E37'79B9'7F4A'7C15ULL * (r + 1));
    if (timing) now::obs::set_enabled(true);
    RepResult rep;
    {
      Tracer::Scope span(tracer, timing ? "sim.shard.rep.traced"
                                        : "sim.shard.rep",
                         r);
      rep = run_rep(options, spec, fault_seed, timing, tracer, report);
    }
    now::obs::set_enabled(false);
    const bool same = rep.run.run_digest == reference.run_digest;
    report.attempt(same, "rep " + std::to_string(r) +
                             ": multi-process digest equals the in-process "
                             "reference");
    report.attempt(rep.run.steps_completed == spec.steps &&
                       rep.merge_ns.size() == spec.steps,
                   "rep " + std::to_string(r) + ": every step merged");
    report.attempted_ok(spec.steps);
    if (rep.merge_ns.size() != spec.steps) continue;
    EndToEnd& into = !options.trace ? e2e : timing ? traced : untraced;
    into.setup_s.push_back(s_between(rep.start_ns, rep.merge_ns.front()));
    EndToEnd::Segment& segment = into.segments.emplace_back();
    for (std::size_t i = 1; i < rep.merge_ns.size(); ++i) {
      segment.step_ms.push_back(
          ms_between(rep.merge_ns[i - 1], rep.merge_ns[i]));
    }
    segment.stepping_s =
        s_between(rep.merge_ns.front(), rep.merge_ns.back());
    segment.cpu_s = rep.cpu_s;
    recovery_ms.push_back(rep.recovery_ms);
    rounds += static_cast<double>(rep.run.engine_rounds);
    respawns += static_cast<double>(rep.respawns);
    ++reps;
    if (!timing) continue;
    ++traced_reps;
    hub.send_ns += rep.counters.send_ns;
    hub.poll_ns += rep.counters.poll_ns;
    hub.end_round_ns += rep.counters.end_round_ns;
    hub.messages += rep.counters.messages;
    hub.bytes += rep.counters.bytes;
  }
  std::filesystem::remove_all(ckpt_dir);

  if (!options.trace) {
    report_end_to_end(e2e, report);
    return;
  }
  const double all_steps =
      static_cast<double>(reps) * static_cast<double>(spec.steps);
  const double traced_steps =
      static_cast<double>(traced_reps) * static_cast<double>(spec.steps);
  const auto per_step = [&](std::uint64_t total) {
    return static_cast<double>(total) / traced_steps;
  };
  layers.set("net.hub.end_round_us", per_step(hub.end_round_ns) / 1e3);
  layers.set("net.hub.poll_us", per_step(hub.poll_ns) / 1e3);
  layers.set("net.hub.send_us", per_step(hub.send_ns) / 1e3);
  layers.set("net.hub.msgs_per_step", per_step(hub.messages));
  layers.set("net.hub.bytes_per_step", per_step(hub.bytes));
  layers.set("sim.shard.rounds_per_step", rounds / all_steps);
  layers.set("sim.shard.recovery_ms", median(recovery_ms));
  layers.set("sim.shard.respawns", respawns / static_cast<double>(reps));
  layers.set("sim.shard.inproc_s", inproc_s);
  report_overhead(untraced.pooled_steps_per_s(), traced.pooled_steps_per_s(),
                  layers, report);

  // Checkpoint save/restore of one shard at the crash step: what the
  // respawned worker pays before it can replay.
  {
    Tracer::Scope span(tracer, "probe");
    now::sim::ShardSim sim(spec, kCrashShard);
    while (sim.completed() < kCrashAt) sim.run_step();
    std::filesystem::create_directories(ckpt_dir);
    std::uint64_t t0 = now_ns();
    {
      Tracer::Scope save(tracer, "core.snapshot.save");
      sim.save_checkpoint(ckpt_dir);
    }
    layers.set("core.snapshot.save_ms", ms_between(t0, now_ns()));
    t0 = now_ns();
    std::unique_ptr<now::sim::ShardSim> restored;
    {
      Tracer::Scope load(tracer, "core.snapshot.load");
      restored = now::sim::ShardSim::load_checkpoint(spec, kCrashShard,
                                                     ckpt_dir);
    }
    layers.set("core.snapshot.load_ms", ms_between(t0, now_ns()));
    layers.set("core.snapshot.bytes",
               static_cast<double>(file_bytes(
                   ckpt_dir + "/shard_" + std::to_string(kCrashShard) +
                   ".ckpt")));
    report.attempt(restored->digest() == sim.digest() &&
                       restored->completed() == sim.completed(),
                   "checkpoint restores the shard's digest chain");
    std::filesystem::remove_all(ckpt_dir);
  }

  report.line(
      "core.batch.*, core.init.*, core.plan_cache.*, core.invariants.*, "
      "core.state.*, cluster.slab.*, sim.scenario.*, sim.trace.* read 0: the "
      "engine runs inside the worker processes");
  layers.emit(report);
}

}  // namespace perfbench
