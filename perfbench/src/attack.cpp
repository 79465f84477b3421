// attack: the batched join-leave + forced-leave attack through the scenario
// runner. One sim::run_scenario call, n0 = 3e4, 512 ops per step on 4
// shards, kTargeted placement with batch_byz_fraction = tau, a forced-leave
// quota of ops / 4, invariant sampling and a v2 trace with embedded
// checkpoints; the run ends with replay_trace on that file as its check.
//
// The steps run inside run_scenario, so their wall times come from the
// program's own per-step span ("step.batch", one per time step): the span
// ring (obs::SpanRecorder) is on in both modes, the metrics registry only
// in the traced run. A time step is the interval between two consecutive
// step.batch starts; set-up is run_scenario's entry to the first one. The
// steps' CPU time is the measured call's minus that of a one-step call of
// the same configuration.
#include <algorithm>
#include <bit>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "adversary/adversary.hpp"
#include "common/metrics.hpp"
#include "core/now.hpp"
#include "core/plan_cache.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 30'000;
constexpr std::size_t kOps = 512;
constexpr std::size_t kShards = 4;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kSampleEvery = 25;
// Fixed work sized from --seconds: on a 4-vCPU x86 VM a step costs ~17 ms
// to record and about as much again to replay, so this many steps fill a
// second. p99 needs 1000 step intervals, which sets the floor below.
constexpr double kStepsPerSecond = 30.0;
constexpr std::size_t kMinSteps = 1001;
// The traced run's side probe: an attack-shaped deployment for the layers
// run_scenario does not expose (snapshot, plan cache, invariants, state
// footprint).
constexpr std::size_t kProbeSteps = 10;
constexpr std::size_t kProbeReps = 3;

now::sim::ScenarioConfig attack_config(std::uint64_t seed, std::size_t steps,
                                       const std::string& trace_path) {
  now::sim::ScenarioConfig config;
  config.params.max_size = std::bit_ceil(std::uint64_t{2} * kNodes);
  config.params.walk_mode = now::core::WalkMode::kSampleExact;
  config.n0 = kNodes;
  config.topology = now::core::InitTopology::kModeledSparse;
  config.steps = steps;
  config.sample_every = kSampleEvery;
  config.seed = seed;
  config.batch_ops = kOps;
  config.shards = kShards;
  config.batch_byz_fraction = config.params.tau;
  config.batch_placement = now::sim::BatchPlacement::kTargeted;
  config.batch_leave_quota = kOps / 4;
  config.trace_path = trace_path;
  return config;
}

/// One run_scenario call with its timing read off the program's span ring.
struct ScenarioRun {
  now::sim::ScenarioResult result;
  now::Metrics metrics;
  std::uint64_t entry_ns = 0;
  std::uint64_t exit_ns = 0;
  double cpu_s = 0;  // CPU time of the whole run_scenario call
  std::vector<now::obs::SpanRecorder::Event> events;
  std::vector<std::uint64_t> step_starts;  // step.batch starts, in order
};

void run_one(const now::sim::ScenarioConfig& config, ScenarioRun& run) {
  now::adversary::RandomChurnAdversary adversary{
      config.params.tau, now::adversary::ChurnSchedule::hold(config.n0)};
  auto& ring = now::obs::SpanRecorder::instance();
  ring.reset();
  const double cpu_start = process_cpu_s();
  run.entry_ns = now_ns();
  run.result = now::sim::run_scenario(config, adversary, run.metrics);
  run.exit_ns = now_ns();
  run.cpu_s = process_cpu_s() - cpu_start;
  run.events = ring.snapshot();
  const std::uint32_t batch = now::obs::span_name_id("step.batch");
  for (const auto& e : run.events) {
    if (e.is_span && e.name == batch) run.step_starts.push_back(e.ts_ns);
  }
  std::sort(run.step_starts.begin(), run.step_starts.end());
}

/// Layers run_scenario keeps to itself, measured on a deployment of the
/// same shape the benchmark builds and steps directly.
void probe_layers(const now::sim::ScenarioConfig& config,
                  const Options& options, double step_p50_ms, Tracer& tracer,
                  LayerTable& layers, Report& report) {
  Tracer::Scope probe_span(tracer, "probe");
  now::Metrics metrics;
  now::core::NowSystem system{config.params, metrics, config.seed};
  const auto byz = static_cast<std::size_t>(config.params.tau *
                                            static_cast<double>(kNodes));
  const std::uint64_t init_start = now_ns();
  now::core::InitReport init;
  {
    Tracer::Scope span(tracer, "core.init");
    init = system.initialize(kNodes, byz, config.topology);
  }
  layers.set("core.init.s", s_between(init_start, now_ns()));
  layers.set("core.init.messages", static_cast<double>(init.total.messages));
  layers.set("cluster.slab.compactions_init",
             static_cast<double>(
                 system.state().member_slab().compaction_count()));
  now::Rng victim_rng{config.seed ^ 0xA77AC4ULL};
  for (std::size_t t = 1; t <= kProbeSteps; ++t) {
    Tracer::Scope span(tracer, "core.batch.step", t);
    const auto victims =
        system.state().sample_distinct_nodes(victim_rng, kOps);
    (void)system.step_parallel_mixed(
        kOps, static_cast<std::size_t>(config.batch_byz_fraction * kOps),
        victims, kShards);
  }
  layers.set("core.state.bytes_per_node",
             static_cast<double>(system.footprint_bytes()) /
                 static_cast<double>(system.num_nodes()));

  std::vector<double> build_ms;
  std::vector<double> check_ms;
  for (std::size_t rep = 0; rep < kProbeReps; ++rep) {
    now::core::PlanCache cache;
    {
      Tracer::Scope span(tracer, "core.plan_cache.build");
      const std::uint64_t b = now_ns();
      cache.build(system.state(), config.params);
      build_ms.push_back(ms_between(b, now_ns()));
    }
    Tracer::Scope span(tracer, "core.invariants.check");
    const std::uint64_t c = now_ns();
    (void)system.check();
    check_ms.push_back(ms_between(c, now_ns()));
  }
  layers.set("core.plan_cache.build_ms", median(build_ms));
  layers.set("core.plan_cache.build_share", median(build_ms) / step_p50_ms);
  layers.set("core.invariants.check_ms", median(check_ms));

  // Snapshot round trip: save, load into a fresh system, save again and
  // require byte-identical files.
  const std::string path = options.workdir + "/attack_probe.snap";
  const std::string again = options.workdir + "/attack_probe_again.snap";
  std::uint64_t t0 = now_ns();
  {
    Tracer::Scope span(tracer, "core.snapshot.save");
    system.save(path);
  }
  layers.set("core.snapshot.save_ms", ms_between(t0, now_ns()));
  now::Metrics restored_metrics;
  now::core::NowSystem restored{config.params, restored_metrics, config.seed};
  t0 = now_ns();
  {
    Tracer::Scope span(tracer, "core.snapshot.load");
    restored.load(path);
  }
  layers.set("core.snapshot.load_ms", ms_between(t0, now_ns()));
  layers.set("core.snapshot.bytes", static_cast<double>(file_bytes(path)));
  restored.save(again);
  report.attempt(file_bytes(path) > 0 && file_bytes(path) == file_bytes(again),
                 "snapshot save/load/save round trip is byte-stable");
  std::filesystem::remove(path);
  std::filesystem::remove(again);
}

}  // namespace

void run_attack(const Options& options, Tracer& tracer, Report& report) {
  const std::size_t steps = std::max(
      kMinSteps, static_cast<std::size_t>(options.seconds * kStepsPerSecond));
  const std::string trace_path = options.workdir + "/attack.trace";
  LayerTable layers;
  EndToEnd e2e;

  now::obs::SpanRecorder::set_enabled(true);
  // --- set-up repetitions: the same scenario cut at one step.
  std::uint64_t compactions_after_step1 = 0;
  std::vector<double> one_step_cpu_s;
  for (std::size_t rep = 1; rep < kSetupReps; ++rep) {
    ScenarioRun short_run;
    run_one(attack_config(options.seed, 1, trace_path), short_run);
    report.attempt(short_run.step_starts.size() == 1,
                   "one-step scenario ran one step");
    if (!short_run.step_starts.empty()) {
      e2e.setup_s.push_back(
          s_between(short_run.entry_ns, short_run.step_starts.front()));
    }
    compactions_after_step1 = short_run.result.total_compactions;
    one_step_cpu_s.push_back(short_run.cpu_s);
  }

  // --- the measured scenario.
  const auto config = attack_config(options.seed, steps, trace_path);
  if (options.trace) now::obs::set_enabled(true);
  ScenarioRun run;
  const std::size_t scenario_span = tracer.open("sim.scenario.run");
  run_one(config, run);
  tracer.close(scenario_span);
  if (options.trace) now::obs::set_enabled(false);
  now::obs::SpanRecorder::set_enabled(false);
  const auto& starts = run.step_starts;
  report.attempt(starts.size() == steps,
                 "every scenario step left its step.batch span (" +
                     std::to_string(starts.size()) + " of " +
                     std::to_string(steps) + ")");
  report.attempted_ok(steps);
  if (starts.size() < 2) return;
  e2e.setup_s.push_back(s_between(run.entry_ns, starts.front()));
  EndToEnd::Segment& stepping = e2e.segment();
  for (std::size_t i = 1; i < starts.size(); ++i) {
    stepping.step_ms.push_back(ms_between(starts[i - 1], starts[i]));
  }
  stepping.stepping_s = s_between(starts.front(), starts.back());
  // The one-step scenarios pay the same set-up and step 1, so the
  // difference is the CPU time of steps 2..n, as the intervals above.
  stepping.cpu_s = run.cpu_s - median(one_step_cpu_s);

  const auto& result = run.result;
  report.attempt(result.final_nodes == kNodes, "population held at n0");
  report.attempt(result.max_step_forced_leaves <= config.batch_leave_quota,
                 "forced leaves stayed within the quota");

  // --- correctness: replay the recorded trace.
  const std::uint64_t replay_start = now_ns();
  now::sim::TraceReplayResult replay;
  {
    Tracer::Scope span(tracer, "sim.trace.replay");
    replay = now::sim::replay_trace(trace_path);
  }
  const double replay_s = s_between(replay_start, now_ns());
  const std::size_t embedded = now::sim::trace_checkpoints(trace_path).size();
  report.attempt(replay.ok, replay.ok ? "trace replays"
                                      : "replay diverged: " + replay.error);
  report.attempt(replay.steps_replayed == steps, "replay covered every step");
  report.attempt(embedded > 0 && replay.checkpoints_checked == embedded,
                 "every embedded checkpoint byte-verified (" +
                     std::to_string(replay.checkpoints_checked) + " of " +
                     std::to_string(embedded) + ")");
  const std::uint64_t trace_bytes = file_bytes(trace_path);
  std::filesystem::remove(trace_path);

  if (!options.trace) {
    report_end_to_end(e2e, report);
    return;
  }

  // --- per-layer: engine phases from the program's own spans. Each phase
  // span carries its batch id, which parents it under that step's span.
  const auto id = [](const char* name) {
    return now::obs::span_name_id(name);
  };
  const std::uint32_t batch = id("step.batch");
  const std::map<std::uint32_t, std::string> phases = {
      {id("step.plan"), "core.batch.plan"},
      {id("step.commit"), "core.batch.commit"},
      {id("step.resolve"), "core.batch.resolve"},
      {id("step.stage1"), "core.batch.stage1"},
      {id("step.stage2"), "core.batch.stage2"}};
  std::map<std::string, double> sum_ms;
  std::map<std::uint64_t, std::size_t> span_of_batch;
  for (const auto& e : run.events) {
    if (!e.is_span || e.name != batch) continue;
    sum_ms["core.batch.step"] += static_cast<double>(e.dur_ns) / 1e6;
    tracer.add("core.batch.step", e.ts_ns, e.ts_ns + e.dur_ns,
               scenario_span, e.arg0);
    span_of_batch[e.arg0] = tracer.last();
  }
  for (const auto& e : run.events) {
    const auto phase = phases.find(e.name);
    if (!e.is_span || phase == phases.end()) continue;
    sum_ms[phase->second] += static_cast<double>(e.dur_ns) / 1e6;
    const auto parent = span_of_batch.find(e.arg0);
    tracer.add(phase->second, e.ts_ns, e.ts_ns + e.dur_ns,
               parent == span_of_batch.end() ? scenario_span : parent->second,
               e.arg0);
  }
  const double step_ms = sum_ms["core.batch.step"];
  const double n = static_cast<double>(steps);
  const double unattributed =
      step_ms - sum_ms["core.batch.plan"] - sum_ms["core.batch.commit"];
  for (const char* phase :
       {"core.batch.step", "core.batch.plan", "core.batch.resolve",
        "core.batch.stage1", "core.batch.stage2"}) {
    layers.set(std::string(phase) + "_ms", sum_ms[phase] / n);
  }
  report_closure(unattributed, step_ms, n, layers, report);
  layers.set("core.batch.resolve_replays",
             static_cast<double>(result.total_resolve_replays) / n);
  layers.set("core.batch.stage2_spills",
             static_cast<double>(result.total_stage2_spills) / n);
  layers.set("core.batch.splits", static_cast<double>(result.total_splits) / n);
  layers.set("core.batch.merges", static_cast<double>(result.total_merges) / n);
  layers.set("core.batch.messages",
             static_cast<double>(
                 run.metrics.operation_total(run.metrics.find("batch"))
                     .messages) /
                 n);
  layers.set("cluster.slab.compactions_per_kstep",
             1000.0 *
                 static_cast<double>(result.total_compactions -
                                     compactions_after_step1) /
                 (n - 1.0));
  layers.set("sim.scenario.run_s", s_between(run.entry_ns, run.exit_ns));
  layers.set("sim.scenario.forced_leaves",
             static_cast<double>(result.total_forced_leaves) / n);
  layers.set("sim.trace.bytes", static_cast<double>(trace_bytes));
  layers.set("sim.trace.replay_s", replay_s);
  layers.set("sim.trace.checkpoints",
             static_cast<double>(replay.checkpoints_checked));
  layers.set("trace.steps_per_s", e2e.pooled_steps_per_s());

  probe_layers(config, options, median(stepping.step_ms), tracer, layers,
               report);

  report.line(
      "core.batch.waves and core.batch.conflicts read 0: run_scenario does "
      "not expose OpReport::wave_count or ::conflicts (churn measures both)");
  report.line(
      "trace.overhead reads 0: the steps run inside one run_scenario call, "
      "so traced and untraced steps cannot interleave; compare "
      "trace.steps_per_s with the untraced run's steps_per_s");
  report.line(
      "core.snapshot.*, core.plan_cache.*, core.invariants.check_ms, "
      "core.state.bytes_per_node, core.init.*: measured on a side deployment "
      "of the same shape (init + 10 attack-sized steps)");
  report.line("core.invariants.check_ms is per check; the scenario ran " +
              std::to_string(result.samples.size()) + " of them");
  layers.emit(report);
}

}  // namespace perfbench
