#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/span.hpp"

namespace perfbench {

std::uint64_t now_ns() { return now::obs::SpanRecorder::now_ns(); }

// ------------------------------------------------------------------ Tracer

std::size_t Tracer::open(std::string_view name, std::uint64_t step) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{std::string(name), now_ns(), 0, current(), step});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  if (index == kNoParent) return;
  spans_[index].end_ns = now_ns();
  // Scopes close innermost first; tolerate an out-of-order close anyway.
  const auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void Tracer::add(std::string_view name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::size_t parent,
                 std::uint64_t step) {
  if (!enabled_) return;
  spans_.push_back(Span{std::string(name), start_ns, end_ns, parent, step});
}

std::size_t Tracer::current() const {
  return open_.empty() ? kNoParent : open_.back();
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::string_view process) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
      << "\"args\":{\"name\":\"perfbench " << process << "\"}}";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t end = std::max(s.end_ns, s.start_ns);
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.name.substr(0, s.name.find('.')) << "\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(end - s.start_ns) / 1e3);
    out << buf << ",\"args\":{\"id\":" << i << ",\"step\":" << s.step;
    if (s.parent != kNoParent) out << ",\"parent\":" << s.parent;
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// -------------------------------------------------------------- statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      values.begin(), values.begin() + static_cast<long>(mid));
  return (lower + upper) / 2.0;
}

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (const double p : {99.0, 98.0, 95.0, 90.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0 || p == 50.0) {
      // Nearest-rank percentile.
      const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
      t.percentile = p;
      t.value = values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
      return t;
    }
  }
  return t;
}

double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

// ------------------------------------------------------------------ Report

void Report::attempt(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    lines_.push_back("FAILED: " + std::string(what));
  }
}

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), true});
}

void Report::info(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), false});
}

void Report::line(const std::string& text) { lines_.push_back(text); }

double Report::error_rate() const {
  return attempted_ == 0 ? 1.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

void Report::print(std::string_view workload, bool trace) const {
  std::ostringstream human;
  human << "perfbench " << workload << (trace ? " (traced)" : "") << "\n";
  for (const std::string& l : lines_) human << "  " << l << "\n";
  char buf[160];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof buf, "  %-34s %16.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    human << buf;
  }
  std::snprintf(buf, sizeof buf,
                "  %-34s %16.6f fraction (%zu failed of %zu attempted)\n",
                "error_rate", error_rate(), failed_, attempted_);
  human << buf << "  verdict: " << (correct() ? "CORRECT" : "INCORRECT")
        << "\n";
  std::cout << human.str();

  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  const char* separator = "";
  for (const Metric& m : metrics_) {
    if (!m.in_json) continue;
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json << separator << "\"" << m.name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << m.unit << "\"}";
    separator = ", ";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void report_invariants(const now::core::InvariantReport& invariants,
                       Report& report) {
  const std::size_t structural =
      invariants.violations.size() - invariants.compromised_clusters;
  std::string first;
  for (const std::string& v : invariants.violations) {
    if (v.find(" compromised: ") == std::string::npos) {
      first = v;
      break;
    }
  }
  report.attempt(structural == 0,
                 "structural invariants violated (" +
                     std::to_string(structural) + "), first: " + first);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "invariants: %zu clusters, sizes %zu..%zu, worst Byzantine "
                "fraction %.4f, %zu compromised (not gated)",
                invariants.num_clusters, invariants.min_cluster_size,
                invariants.max_cluster_size, invariants.worst_byz_fraction,
                invariants.compromised_clusters);
  report.line(buf);
}

double EndToEnd::pooled_steps_per_s() const {
  double steps = 0.0;
  double seconds = 0.0;
  for (const Segment& s : segments) {
    steps += static_cast<double>(s.step_ms.size());
    seconds += s.stepping_s;
  }
  return seconds > 0.0 ? steps / seconds : 0.0;
}

void report_end_to_end(const EndToEnd& e2e, Report& report) {
  std::vector<double> all_ms;
  std::vector<double> rates;
  std::vector<double> tails;
  std::vector<double> cpu_ms;
  Tail t;
  for (const EndToEnd::Segment& s : e2e.segments) {
    all_ms.insert(all_ms.end(), s.step_ms.begin(), s.step_ms.end());
    const auto steps = static_cast<double>(s.step_ms.size());
    if (s.stepping_s > 0.0) rates.push_back(steps / s.stepping_s);
    if (steps > 0.0) cpu_ms.push_back(1e3 * s.cpu_s / steps);
    t = tail(s.step_ms);
    tails.push_back(t.value);
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "setup samples: %zu; step samples: %zu in %zu segment(s); "
                "step_p99_ms is the p%g of each segment (%zu steps, >= 10 "
                "beyond it), median over segments",
                e2e.setup_s.size(), all_ms.size(), e2e.segments.size(),
                t.percentile, t.samples);
  report.line(buf);
  std::string setups = "setup samples (s):";
  for (const double s : e2e.setup_s) {
    std::snprintf(buf, sizeof buf, " %.4f", s);
    setups += buf;
  }
  report.line(setups);
  if (cpu_ms.size() > 1) {
    std::string per_segment = "cpu_ms_per_step per segment:";
    for (const double ms : cpu_ms) {
      std::snprintf(buf, sizeof buf, " %.3f", ms);
      per_segment += buf;
    }
    report.line(per_segment);
  }
  report.metric("setup_s", median(e2e.setup_s), "s");
  report.metric("cpu_ms_per_step", median(cpu_ms), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  // Wall-clock step figures: printed, not bounded. On a shared few-core VM
  // their spread between runs of the same code is the host's scheduling
  // (see ledger.json "wall_clock_metrics").
  report.info("steps_per_s", median(rates), "steps/s");
  report.info("step_p50_ms", median(all_ms), "ms");
  report.info("step_p99_ms", median(tails), "ms");
}

// ------------------------------------------------------------- layer table

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.init.s", "s"},
      {"core.init.messages", "count"},
      {"cluster.slab.compactions_init", "count"},
      {"core.batch.step_ms", "ms"},
      {"core.batch.plan_ms", "ms"},
      {"core.batch.resolve_ms", "ms"},
      {"core.batch.stage1_ms", "ms"},
      {"core.batch.stage2_ms", "ms"},
      {"core.batch.unattributed_ms", "ms"},
      {"core.batch.closure", "fraction"},
      {"core.batch.resolve_replays", "count"},
      {"core.batch.waves", "count"},
      {"core.batch.conflicts", "count"},
      {"core.batch.stage2_spills", "count"},
      {"core.batch.splits", "count"},
      {"core.batch.merges", "count"},
      {"core.batch.messages", "count"},
      {"cluster.slab.compactions_per_kstep", "count"},
      {"core.state.bytes_per_node", "bytes"},
      {"core.plan_cache.build_ms", "ms"},
      {"core.plan_cache.build_share", "fraction"},
      {"core.invariants.check_ms", "ms"},
      {"sim.scenario.run_s", "s"},
      {"sim.scenario.forced_leaves", "count"},
      {"core.snapshot.save_ms", "ms"},
      {"core.snapshot.load_ms", "ms"},
      {"core.snapshot.bytes", "bytes"},
      {"sim.trace.bytes", "bytes"},
      {"sim.trace.replay_s", "s"},
      {"sim.trace.checkpoints", "count"},
      {"net.hub.end_round_us", "us"},
      {"net.hub.poll_us", "us"},
      {"net.hub.send_us", "us"},
      {"net.hub.msgs_per_step", "count"},
      {"net.hub.bytes_per_step", "bytes"},
      {"sim.shard.rounds_per_step", "count"},
      {"sim.shard.recovery_ms", "ms"},
      {"sim.shard.respawns", "count"},
      {"sim.shard.inproc_s", "s"},
      {"trace.steps_per_s", "steps/s"},
      {"trace.overhead", "fraction"},
  };
  return kMetrics;
}

void LayerTable::set(const std::string& name, double value) {
  for (auto& [key, v] : values_) {
    if (key == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void LayerTable::emit(Report& report) const {
  for (const auto& [name, unit] : per_layer_metrics()) {
    double value = 0.0;
    for (const auto& [key, v] : values_) {
      if (key == name) value = v;
    }
    report.metric(name, value, unit);
  }
  for (const auto& [key, v] : values_) {
    const auto& table = per_layer_metrics();
    if (std::none_of(table.begin(), table.end(),
                     [&](const auto& m) { return m.first == key; })) {
      throw std::logic_error("per-layer metric not in the table: " + key);
    }
  }
}

void report_closure(double unattributed_ms, double step_ms, double steps,
                    LayerTable& layers, Report& report) {
  layers.set("core.batch.unattributed_ms", unattributed_ms / steps);
  layers.set("core.batch.closure", unattributed_ms / step_ms);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "closure: unattributed %.4f ms of %.4f ms per engine step = "
                "%.2f%% (ROADMAP target < 5%%)",
                unattributed_ms / steps, step_ms / steps,
                100.0 * unattributed_ms / step_ms);
  report.line(buf);
}

void report_overhead(double untraced_steps_per_s, double traced_steps_per_s,
                     LayerTable& layers, Report& report) {
  layers.set("trace.steps_per_s", traced_steps_per_s);
  layers.set("trace.overhead",
             untraced_steps_per_s / traced_steps_per_s - 1.0);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tracing overhead: untraced %.2f vs traced %.2f steps/s, "
                "interleaved in one run",
                untraced_steps_per_s, traced_steps_per_s);
  report.line(buf);
}

}  // namespace perfbench
