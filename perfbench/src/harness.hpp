// Shared plumbing of the repo benchmark: options, the benchmark's own span
// recorder, sample statistics, and the result report whose last line is the
// machine-readable JSON object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/invariants.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The repo's now_shard binary (lockstep workers are exec'd from it).
  std::string now_shard;
  /// Scratch directory for trace, snapshot and checkpoint files.
  std::string workdir;
};

/// Nanoseconds on the program's own obs clock (obs::SpanRecorder::now_ns),
/// so the benchmark's spans and the program's step spans share a timeline.
[[nodiscard]] std::uint64_t now_ns();
[[nodiscard]] inline double ms_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}
[[nodiscard]] inline double s_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// The benchmark's span recorder: name, start, end, parent and step id of
/// each call into a layer, kept in memory and written once at exit as
/// Chrome trace_event JSON (loads in Perfetto). Disabled, it records
/// nothing and every call is a branch.
class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open one; returns its index
  /// (kNoParent when disabled, which close() ignores).
  std::size_t open(std::string_view name, std::uint64_t step = 0);
  void close(std::size_t index);
  /// Records a finished span (times measured elsewhere, e.g. imported from
  /// the program's own span ring or laid out from OpReport phase times).
  void add(std::string_view name, std::uint64_t start_ns,
           std::uint64_t end_ns, std::size_t parent, std::uint64_t step);
  /// Index of the innermost open span (kNoParent when none).
  [[nodiscard]] std::size_t current() const;
  /// Index of the most recently recorded span (kNoParent when none).
  [[nodiscard]] std::size_t last() const {
    return spans_.empty() ? kNoParent : spans_.size() - 1;
  }

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span.
  [[nodiscard]] bool write_chrome_json(const std::string& path,
                                       std::string_view process) const;

  /// RAII form of open/close.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t step = 0)
        : tracer_(tracer), index_(tracer.open(name, step)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::size_t parent = kNoParent;
    std::uint64_t step = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it, from the
/// ladder 99 / 98 / 95 / 90 / 50 (p99 needs >= 1000 samples). The ladder
/// stops at p99 so step_p99_ms means the same on every workload.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> values);

/// CPU time this process has used so far, all threads, seconds.
[[nodiscard]] double process_cpu_s();

/// Largest ru_maxrss over this process and its waited-for children, MiB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] std::uint64_t file_bytes(const std::string& path);

/// Collects gates and metrics, prints the human table and the final JSON
/// line {"correct","attempted","failed","metrics"}.
class Report {
 public:
  /// One attempted unit of work (a step or a check); `ok` false counts it
  /// as failed and prints `what`.
  void attempt(bool ok, std::string_view what);
  /// `count` attempted steps that all succeeded.
  void attempted_ok(std::size_t count) { attempted_ += count; }

  void metric(std::string name, double value, std::string unit);
  /// A metric printed in the human table but left out of the JSON line.
  void info(std::string name, double value, std::string unit);
  void line(const std::string& text);

  [[nodiscard]] bool correct() const { return failed_ == 0; }
  [[nodiscard]] double error_rate() const;

  /// Prints everything; the JSON object is the last line of stdout.
  void print(std::string_view workload, bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    bool in_json;
  };
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
};

/// Gates NowSystem::check(): every structural invariant (sizes, overlay
/// degree and connectivity, bookkeeping) must hold. Clusters at or above
/// the compromise line are printed, not failed: at the default k = 3 the
/// honest-majority bound is not whp (a fresh n = 1e5 init already has
/// several such clusters for every seed), so they are an outcome of the
/// parameters, not of the code under test.
void report_invariants(const now::core::InvariantReport& invariants,
                       Report& report);

/// End-to-end metrics every workload reports, from its setup samples and
/// its stepping segments: setup_s, cpu_ms_per_step and peak_rss_mb
/// (BENCHMARK.json end_to_end, in the JSON line) and the wall-clock
/// steps_per_s, step_p50_ms and step_p99_ms (human table only).
struct EndToEnd {
  /// An unbroken stretch of stepping: per-step wall times and the wall
  /// time they span.
  struct Segment {
    std::vector<double> step_ms;
    double stepping_s = 0.0;
    /// CPU time the deployment (this process and its worker processes)
    /// spent on the segment's steps.
    double cpu_s = 0.0;
  };
  std::vector<double> setup_s;
  /// One per repetition. cpu_ms_per_step, steps_per_s and step_p99_ms are
  /// medians of the per-segment values, step_p50_ms is the median of all
  /// steps.
  std::vector<Segment> segments;

  Segment& segment() {
    if (segments.empty()) segments.emplace_back();
    return segments.back();
  }
  /// All segments' steps over all their wall time.
  [[nodiscard]] double pooled_steps_per_s() const;
};
void report_end_to_end(const EndToEnd& e2e, Report& report);

/// Names every per-layer metric (BENCHMARK.json per_layer) in order. A
/// workload that does not call a layer reports its metrics as 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metrics();

/// Per-layer values keyed by name; unset ones print as 0.
class LayerTable {
 public:
  void set(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Sets core.batch.unattributed_ms and core.batch.closure from totals over
/// `steps` engine steps and prints the closure against the ROADMAP's 5%.
void report_closure(double unattributed_ms, double step_ms, double steps,
                    LayerTable& layers, Report& report);

/// Sets trace.steps_per_s and trace.overhead (untraced / traced - 1) from
/// interleaved untraced and traced stepping in one run.
void report_overhead(double untraced_steps_per_s, double traced_steps_per_s,
                     LayerTable& layers, Report& report);

/// The workloads. Each records its gates and metrics into `report`; with
/// options.trace the per-layer metrics, else the end-to-end ones.
void run_churn(const Options& options, Tracer& tracer, Report& report);
void run_attack(const Options& options, Tracer& tracer, Report& report);
void run_lockstep(const Options& options, Tracer& tracer, Report& report);

}  // namespace perfbench
