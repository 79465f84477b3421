// Seeded scenario corpus + coverage-guided fleet (DESIGN.md §8, §10):
// randomized adversarial scenarios, each recorded as a replayable trace,
// with failing ones shrunk to minimal reproducers.
//
// The generator randomizes the ScenarioConfig axes — initialization
// topology, population, batch size, shard count, the batched adversary's
// corruption fraction and placement policy, the forced-leave DoS quota,
// and (since trace v2) the engine's behavior axes: merge policy, threshold
// mode and walk mode — always within the model's adversary
// budget (tau <= 1/3 - eps; corrupted joiners bounded by tau * n). Every
// generated scenario is run once with trace recording (sim/trace.hpp); a
// scenario that violates the gated guarantees (a compromised cluster, a
// disconnected overlay, a breached corruption budget) is then SHRUNK —
// steps, batch size and population are greedily halved while the SAME
// failure kind persists — and the minimal reproducer's trace is recorded
// in its place.
//
// COVERAGE. A run's coverage signature is its configuration cell (the tuple of
// discrete config axes) crossed with the observed-behavior bits the run
// actually exercised: did a split fire, a merge fire, a slab compaction
// trigger, a stage-1 commit spill to stage 2, the adversary's corruption budget
// saturate. run_coverage_fleet spends a step budget exploring: instead of
// re-rolling configs blindly it walks the enumerated config cells that no run
// has hit yet, mutating a parent config toward each unexplored cell — many
// short targeted runs instead of a few long random ones, which is why the fleet
// reaches a multiple of random sampling's distinct cells under the same budget
// (asserted in tests/sim/corpus_coverage_test.cpp).
//
// bench/corpus/ holds the checked-in corpus (traces + MANIFEST.tsv); the
// CI `corpus` job replays every trace there — v1 and v2 — and fails on
// any invariant-sample drift, so a behavioral change that alters any
// recorded trajectory is caught exactly like a bench-fidelity regression.
// The nightly fleet promotes new minimal reproducers into bench/corpus/
// (scripts/gen_corpus.py --promote). scripts/gen_corpus.py +
// tools/now_trace.cpp drive generation/regeneration.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/scenario.hpp"

namespace now::sim {

struct CorpusAxes {
  std::uint64_t master_seed = 20260726;
  std::size_t count = 6;
  std::size_t min_steps = 40;
  std::size_t max_steps = 120;
};

/// Which gated guarantee a failing scenario violated. Shrinking preserves
/// the kind: a reproducer minimized from a compromise must still
/// demonstrate a compromise, not merely any failure.
enum class FailureKind : std::uint8_t {
  kNone = 0,
  /// A cluster reached the 1/3 Byzantine threshold at a sampled step.
  kCompromise,
  /// The overlay was disconnected at a sampled step.
  kDisconnect,
  /// Final Byzantine population exceeded the tau * n + 1 budget.
  kBudgetBreach,
};

[[nodiscard]] const char* failure_kind_name(FailureKind kind);

/// Classifies a run outcome against the gated guarantees; `tau` is the
/// adversary budget the config ran under. Checks in severity order
/// (compromise > disconnect > budget breach) so the kind is deterministic
/// when several hold.
[[nodiscard]] FailureKind classify_failure(double tau,
                                           const ScenarioResult& result);

/// True when the outcome violates any gated guarantee.
[[nodiscard]] bool scenario_failed(const ScenarioConfig& config,
                                   const ScenarioResult& result);

// ---------------------------------------------------------------- coverage

/// The discrete configuration cell of a scenario: every axis the
/// randomizer draws from, quantized. Two configs in the same cell explore
/// the same engine paths by construction choice; behavior bits record
/// which paths a run ACTUALLY took.
struct CoverageCell {
  std::uint8_t topology = 0;        // 0 sparse-random, 1 modeled-sparse
  std::uint8_t placement = 0;       // 0 uniform, 1 targeted
  std::uint8_t merge_policy = 0;    // 0 dissolve, 1 absorb
  std::uint8_t threshold_mode = 0;  // 0 static-N, 1 dynamic-current-n
  std::uint8_t walk_mode = 0;       // 0 simulate, 1 sample-exact
  std::uint8_t quota_bucket = 0;    // 0 none, 1 partial, 2 full

  friend bool operator==(const CoverageCell&, const CoverageCell&) = default;
};

/// Observed-behavior bits (CoverageSignature::behavior).
enum CoverageBehavior : std::uint8_t {
  kBehaviorSplit = 1 << 0,
  kBehaviorMerge = 1 << 1,
  kBehaviorCompaction = 1 << 2,
  kBehaviorStage2Spill = 1 << 3,
  kBehaviorBudgetSaturated = 1 << 4,
};

/// A run's coverage signature: config cell x behavior bits.
struct CoverageSignature {
  CoverageCell cell;
  std::uint8_t behavior = 0;

  /// Dense integer key of the config cell alone (< kNumConfigCells).
  [[nodiscard]] std::uint32_t cell_key() const;
  /// Dense integer key of the full signature (cell_key * 64 + behavior).
  [[nodiscard]] std::uint32_t key() const;

  friend bool operator==(const CoverageSignature&,
                         const CoverageSignature&) = default;
};

/// Total enumerable config cells: 2 * 2 * 2 * 2 * 2 * 3.
inline constexpr std::uint32_t kNumConfigCells = 96;

/// The config cell a ScenarioConfig falls in (pure function of config).
[[nodiscard]] CoverageCell cell_of(const ScenarioConfig& config);

/// The cell with dense key `key` (inverse of CoverageSignature::cell_key).
[[nodiscard]] CoverageCell cell_from_key(std::uint32_t key);

/// Deterministic signature extraction from a finished run.
[[nodiscard]] CoverageSignature signature_of(const ScenarioConfig& config,
                                             const ScenarioResult& result);

/// Rewrites `parent`'s discrete axes to land exactly in `target` —
/// the fleet's mutation operator. Continuous knobs (seed, corruption
/// fraction, population) stay inherited from the parent; the quota bucket
/// is realized against the parent's batch_ops. A config mutated toward a
/// cell satisfies cell_of(mutated) == target, so reaching a named
/// unexplored cell takes exactly one mutation.
[[nodiscard]] ScenarioConfig mutate_toward_cell(const ScenarioConfig& parent,
                                                const CoverageCell& target);

// ------------------------------------------------------------------ corpus

struct CorpusCase {
  std::string name;
  /// Trace file name, relative to the generation out_dir.
  std::string trace_file;
  ScenarioConfig config;
  ScenarioResult result;
  /// The scenario violated a gated guarantee; config/result describe the
  /// SHRUNK minimal reproducer.
  bool failing = false;
  FailureKind failure = FailureKind::kNone;
  /// Number of accepted shrink reductions (0 for passing scenarios).
  std::size_t shrink_rounds = 0;
  CoverageSignature signature;
};

/// One deterministic randomized scenario drawn from the axes. Randomizes
/// every coverage axis, including merge policy, threshold mode and walk
/// mode (kSimulate walks are capped to small populations — they flood real
/// messages).
[[nodiscard]] ScenarioConfig random_scenario_config(Rng& rng,
                                                    const CorpusAxes& axes);

/// Runs `config` under the batched adversary driver, recording the trace
/// to `trace_path` (empty = no recording).
ScenarioResult run_corpus_scenario(ScenarioConfig config,
                                   const std::string& trace_path);

/// Greedy minimization of a failing config: halve steps, halve batch_ops,
/// then shrink n0, keeping each reduction only while the run still fails
/// with the SAME FailureKind as `failing` did. Returns the minimal
/// reproducer; `rounds_out` (optional) receives the number of accepted
/// reductions.
[[nodiscard]] ScenarioConfig shrink_failing_config(
    const ScenarioConfig& failing, std::size_t* rounds_out = nullptr);

/// Generates `axes.count` scenarios into `out_dir` (created if missing),
/// one trace file each, shrinking failing ones, plus a MANIFEST.tsv
/// describing every case. Deterministic in axes.master_seed. The discrete
/// behavior axes are STRATIFIED across the cases (case i takes merge
/// policy i % 2, threshold mode (i / 2) % 2, walk mode (i / 4) % 2, ...)
/// so a default-sized corpus covers each axis value at least once; case 0
/// is recorded in the legacy v1 trace format so backward-compat replay
/// coverage is itself a regenerable artifact.
std::vector<CorpusCase> generate_corpus(const CorpusAxes& axes,
                                        const std::string& out_dir);

/// Serializes the generation manifest (one TSV row per case:
/// name, trace file, trace format, failure kind, shrink rounds, signature
/// key, config cell key, steps, n0, seed) to out_dir/MANIFEST.tsv.
void write_corpus_manifest(const std::vector<CorpusCase>& cases,
                           const std::string& out_dir);

// ------------------------------------------------------------------- fleet

struct FleetOptions {
  std::uint64_t seed = 20260808;
  /// Total simulated steps the fleet may spend across all runs — the
  /// budget axis the coverage comparison holds fixed.
  std::size_t step_budget = 480;
  /// Horizon of each targeted run. Short: one run per hypothesis cell.
  std::size_t steps_per_run = 24;
  CorpusAxes axes;
  /// Shrink failing runs into minimal reproducers (costs extra runs
  /// outside the step budget; off for the in-test smoke).
  bool shrink_failures = false;
};

struct FleetRun {
  ScenarioConfig config;
  CoverageSignature signature;
  FailureKind failure = FailureKind::kNone;
  std::size_t steps = 0;
};

struct FleetResult {
  std::vector<FleetRun> runs;
  /// Distinct full signatures (config cell x behavior) observed.
  std::size_t distinct_signatures = 0;
  /// Distinct config cells observed.
  std::size_t distinct_cells = 0;
  std::size_t steps_spent = 0;
  /// Failing runs, shrunk to minimal reproducers when
  /// FleetOptions::shrink_failures is set (name/trace_file left empty —
  /// promotion assigns them).
  std::vector<CorpusCase> failures;
};

/// Coverage-guided exploration: seeds a parent from the axes, then walks
/// the unexplored config cells in deterministic order, mutating the
/// parent toward each and running a short scenario, until the step budget
/// is exhausted. Every run's signature is recorded; failing runs become
/// reproducer candidates.
[[nodiscard]] FleetResult run_coverage_fleet(const FleetOptions& options);

/// Writes the fleet's coverage report as JSON (schema in EXPERIMENTS.md):
/// totals, distinct cell/signature counts, per-run rows and the failure
/// list. Used by `now_trace fleet` and the nightly coverage artifact.
void write_coverage_report(const FleetResult& result, std::ostream& os);

}  // namespace now::sim
