// churn: the small-batch steady state. n = 1e5 nodes, 15% Byzantine,
// kModeledSparse init, kSampleExact walks; every time step is one
// step_parallel_mixed call with 32 honest joins and 32 uniform leaves on 4
// shards, victims drawn by the benchmark through sample_distinct_nodes.
#include <algorithm>
#include <bit>
#include <memory>
#include <string>

#include "common/metrics.hpp"
#include "core/now.hpp"
#include "core/plan_cache.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 100'000;
constexpr std::size_t kByzantine = kNodes * 15 / 100;
constexpr std::size_t kOps = 32;
constexpr std::size_t kShards = 4;
constexpr std::size_t kSetupReps = 3;
// Untraced, stepping runs for --seconds and at least the steps p99 needs.
// Traced, the steps are fixed work sized from --seconds (about this many
// per second of budget), so the core.batch.* counts repeat exactly.
constexpr double kTracedStepsPerSecond = 60.0;
constexpr std::size_t kMinSteps = 1000;
// The traced run alternates untraced and traced blocks of this many steps,
// so the tracing overhead is an interleaved A/B inside one process.
constexpr std::size_t kBlock = 50;
constexpr std::size_t kPlanCacheEvery = 100;

struct Deployment {
  now::Metrics metrics;
  std::unique_ptr<now::core::NowSystem> system;
};

now::core::NowParams churn_params() {
  now::core::NowParams params;
  params.max_size = std::bit_ceil(std::uint64_t{2} * kNodes);
  params.walk_mode = now::core::WalkMode::kSampleExact;
  return params;
}

/// Per-layer sums over the traced steps.
struct BatchSums {
  std::size_t steps = 0;
  double step_ms = 0, plan_ms = 0, resolve_ms = 0, stage1_ms = 0,
         stage2_ms = 0, unattributed_ms = 0;
  double replays = 0, waves = 0, conflicts = 0, spills = 0, splits = 0,
         merges = 0, messages = 0;
  double wall_s = 0;
};

}  // namespace

void run_churn(const Options& options, Tracer& tracer, Report& report) {
  const now::core::NowParams params = churn_params();
  const std::uint64_t seed = options.seed;
  LayerTable layers;
  EndToEnd e2e;

  // --- set-up, several times; the last deployment is the one stepped.
  std::unique_ptr<Deployment> dep;
  std::vector<double> init_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    const std::uint64_t start = now_ns();
    dep = std::make_unique<Deployment>();
    dep->system =
        std::make_unique<now::core::NowSystem>(params, dep->metrics, seed);
    now::core::InitReport init;
    const std::uint64_t init_start = now_ns();
    {
      Tracer::Scope span(tracer, "core.init");
      init = dep->system->initialize(kNodes, kByzantine,
                                     now::core::InitTopology::kModeledSparse);
    }
    const std::uint64_t end = now_ns();
    e2e.setup_s.push_back(s_between(start, end));
    init_s.push_back(s_between(init_start, end));
    layers.set("core.init.messages",
               static_cast<double>(init.total.messages));
    layers.set("cluster.slab.compactions_init",
               static_cast<double>(
                   dep->system->state().member_slab().compaction_count()));
    report.attempt(dep->system->num_nodes() == kNodes,
                   "initialize placed every node");
  }
  layers.set("core.init.s", median(init_s));

  // --- stepping.
  now::core::NowSystem& system = *dep->system;
  now::Rng victim_rng{seed ^ 0xC4A2'11D5'0B5E'77E1ULL};
  const std::size_t traced_steps = std::max(
      kMinSteps,
      static_cast<std::size_t>(options.seconds * kTracedStepsPerSecond));
  const std::uint64_t compactions_before =
      system.state().member_slab().compaction_count();
  BatchSums traced;
  double untraced_s = 0;
  std::size_t untraced_steps = 0;
  std::vector<double> plan_cache_ms;
  std::vector<double> traced_step_ms;

  std::size_t steps = 0;
  const std::uint64_t stepping_start = now_ns();
  for (std::size_t t = 1;; ++t) {
    if (options.trace ? t > traced_steps
                      : t > kMinSteps && s_between(stepping_start, now_ns()) >=
                                             options.seconds) {
      break;
    }
    steps = t;
    const bool traced_block = options.trace && ((t - 1) / kBlock) % 2 == 1;
    if (options.trace && (t - 1) % kBlock == 0) {
      now::obs::set_enabled(traced_block);
    }
    const std::vector<now::NodeId> victims =
        system.state().sample_distinct_nodes(victim_rng, kOps);
    const double cpu_start = process_cpu_s();
    const std::uint64_t start = now_ns();
    const std::size_t span =
        traced_block ? tracer.open("core.batch.step", t) : Tracer::kNoParent;
    std::pair<std::vector<now::NodeId>, now::core::OpReport> result;
    try {
      result = system.step_parallel_mixed(kOps, 0, victims, kShards);
    } catch (const std::exception& e) {
      tracer.close(span);
      report.attempt(false, "step " + std::to_string(t) + " threw: " +
                                std::string(e.what()));
      break;
    }
    const std::uint64_t end = now_ns();
    const double cpu_end = process_cpu_s();
    tracer.close(span);
    const auto& op = result.second;
    // Drain the cost sink as a long-running caller would: it keeps one
    // sample per operation (~1000 exchanges a step), which would otherwise
    // make peak RSS track the run length instead of the deployment.
    dep->metrics.reset();
    report.attempt(result.first.size() == kOps &&
                       system.num_nodes() == kNodes,
                   "step " + std::to_string(t) + " kept the population");
    const double step_ms = ms_between(start, end);
    if (!options.trace) {
      e2e.segment().step_ms.push_back(step_ms);
      e2e.segment().stepping_s += s_between(start, end);
      e2e.segment().cpu_s += cpu_end - cpu_start;
    } else if (!traced_block) {
      untraced_s += s_between(start, end);
      ++untraced_steps;
    } else {
      // Phase spans laid out back to back from the OpReport durations (the
      // engine measures them; their exact start times stay inside it).
      const double plan = static_cast<double>(op.plan_ns) / 1e6;
      const double commit = static_cast<double>(op.commit_ns) / 1e6;
      std::uint64_t cursor = start;
      for (const auto& [name, ns] :
           {std::pair<const char*, std::uint64_t>{"core.batch.plan",
                                                  op.plan_ns},
            {"core.batch.resolve", op.resolve_ns},
            {"core.batch.stage1", op.stage1_ns},
            {"core.batch.stage2", op.stage2_ns}}) {
        tracer.add(name, cursor, cursor + ns, span, t);
        cursor += ns;
      }
      ++traced.steps;
      traced.wall_s += s_between(start, end);
      traced_step_ms.push_back(step_ms);
      traced.step_ms += step_ms;
      traced.plan_ms += plan;
      traced.resolve_ms += static_cast<double>(op.resolve_ns) / 1e6;
      traced.stage1_ms += static_cast<double>(op.stage1_ns) / 1e6;
      traced.stage2_ms += static_cast<double>(op.stage2_ns) / 1e6;
      traced.unattributed_ms += step_ms - plan - commit;
      traced.replays += static_cast<double>(op.resolve_replays);
      traced.waves += static_cast<double>(op.wave_count);
      traced.conflicts += static_cast<double>(op.conflicts);
      traced.spills += static_cast<double>(op.stage2_spills);
      traced.splits += static_cast<double>(op.splits);
      traced.merges += static_cast<double>(op.merges);
      traced.messages += static_cast<double>(op.cost.messages);
    }
    if (options.trace && t % kPlanCacheEvery == 0) {
      // Full PlanCache construction on the live state: what the engine's
      // incremental maintenance saves per step.
      now::core::PlanCache cache;
      Tracer::Scope probe(tracer, "core.plan_cache.build", t);
      const std::uint64_t b = now_ns();
      cache.build(system.state(), params);
      plan_cache_ms.push_back(ms_between(b, now_ns()));
    }
  }
  now::obs::set_enabled(false);

  // --- correctness gates.
  const std::uint64_t check_start = now_ns();
  now::core::InvariantReport inv;
  {
    Tracer::Scope span(tracer, "core.invariants.check");
    inv = system.check();
  }
  const double check_ms = ms_between(check_start, now_ns());
  report_invariants(inv, report);
  report.attempt(system.num_nodes() == kNodes,
                 "population back to n after the run");

  if (!options.trace) {
    report_end_to_end(e2e, report);
    return;
  }
  const double n = static_cast<double>(std::max<std::size_t>(traced.steps, 1));
  layers.set("core.batch.step_ms", traced.step_ms / n);
  layers.set("core.batch.plan_ms", traced.plan_ms / n);
  layers.set("core.batch.resolve_ms", traced.resolve_ms / n);
  layers.set("core.batch.stage1_ms", traced.stage1_ms / n);
  layers.set("core.batch.stage2_ms", traced.stage2_ms / n);
  report_closure(traced.unattributed_ms, traced.step_ms, n, layers, report);
  layers.set("core.batch.resolve_replays", traced.replays / n);
  layers.set("core.batch.waves", traced.waves / n);
  layers.set("core.batch.conflicts", traced.conflicts / n);
  layers.set("core.batch.stage2_spills", traced.spills / n);
  layers.set("core.batch.splits", traced.splits / n);
  layers.set("core.batch.merges", traced.merges / n);
  layers.set("core.batch.messages", traced.messages / n);
  layers.set("cluster.slab.compactions_per_kstep",
             1000.0 *
                 static_cast<double>(
                     system.state().member_slab().compaction_count() -
                     compactions_before) /
                 static_cast<double>(steps));
  layers.set("core.state.bytes_per_node",
             static_cast<double>(system.footprint_bytes()) /
                 static_cast<double>(system.num_nodes()));
  const double build_ms = median(plan_cache_ms);
  layers.set("core.plan_cache.build_ms", build_ms);
  layers.set("core.plan_cache.build_share",
             build_ms / median(traced_step_ms));
  layers.set("core.invariants.check_ms", check_ms);
  report_overhead(static_cast<double>(untraced_steps) / untraced_s,
                  static_cast<double>(traced.steps) / traced.wall_s, layers,
                  report);
  report.line("not called on churn (read 0): sim.*, net.*, core.snapshot.*");
  layers.emit(report);
}

}  // namespace perfbench
