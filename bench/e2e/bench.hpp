// Shared pieces of the end-to-end benchmark program (bench_e2e).
//
// Every workload is a closed loop with one caller: bench_e2e times the
// public calls it makes (run_placement for the simulated workloads;
// build_flat, submit_fast/submit_batch and Sed::execute for the serving
// workloads) with its own steady_clock, and checks the outputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gsbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 4.0;  ///< timed work per run (the loop stops after it)
  bool trace = false;    ///< per-layer run instead of the end-to-end run
  double scale = 1.0;    ///< shrinks platforms, task counts and episodes
};

/// What one run measured and checked.  Metrics the workload does not
/// exercise stay unset; main() reports them as 0.
struct Outcome {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;  ///< requests (serve) or tasks (sim) timed
  std::uint64_t failed = 0;     ///< unplaced requests, lost or unfinished tasks
  std::uint64_t samples = 0;    ///< latency samples behind the slices
  std::vector<std::string> failures;  ///< failed correctness checks
  std::map<std::string, std::string> fingerprints;
  std::string telemetry;  ///< what instrumentation was on, for the record

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

[[nodiscard]] Outcome run_serve(const Options& options);
[[nodiscard]] Outcome run_sim(const Options& options);

/// Exact nearest-rank quantile: always an observed sample.
[[nodiscard]] inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // ceil(q * n), with slack for q * n landing a rounding error above an integer.
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

[[nodiscard]] inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Summarises the closed-loop samples of a run slice by slice as they
/// arrive, so the benchmark's own memory does not grow with the run.  The first
/// `seconds` of timed work are cut into kSlices equal slices; a sample
/// ending later (the overrun of the last call or episode) is left out.
///
/// Each slice gives a rate and exact latency quantiles, and the value at
/// the better quartile over the slices (the third best of ten) is
/// reported.  Host interference comes in bursts of a second or more that
/// slow the whole process and only ever add time, so the reported value
/// moves only when more than seven of ten slices are disturbed.
class Slices {
 public:
  static constexpr std::size_t kSlices = 10;

  explicit Slices(double seconds) : width_(seconds / kSlices) {}

  /// `end_s`: timed seconds elapsed when the sample ended.
  void add(double end_s, double latency_us, double tasks) {
    if (end_s > width_ * kSlices) return;
    const auto index = std::min(kSlices - 1, static_cast<std::size_t>(end_s / width_));
    if (index != index_ && !latency_.empty()) close();
    index_ = index;
    latency_.push_back(latency_us);
    tasks_ += tasks;
    last_end_ = end_s;
    ++samples_;
  }

  /// Sets tasks_per_s, latency_p50_us and latency_p90_us.
  void report(std::map<std::string, double>& metrics) {
    if (!latency_.empty()) close();
    metrics["tasks_per_s"] = quantile(rates_, 0.75);
    metrics["latency_p50_us"] = quantile(p50_, 0.25);
    metrics["latency_p90_us"] = quantile(p90_, 0.25);
  }

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

 private:
  void close() {
    rates_.push_back(ratio(tasks_, last_end_ - closed_end_));
    p50_.push_back(quantile(latency_, 0.5));
    p90_.push_back(quantile(latency_, 0.9));
    closed_end_ = last_end_;
    latency_.clear();
    tasks_ = 0.0;
  }

  double width_;
  std::size_t index_ = 0;
  std::vector<double> latency_;  ///< the open slice's samples
  double tasks_ = 0.0, last_end_ = 0.0, closed_end_ = 0.0;
  std::vector<double> rates_, p50_, p90_;
  std::uint64_t samples_ = 0;
};

[[nodiscard]] inline std::string hex(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) out[static_cast<std::size_t>(i)] = digits[value & 15];
  return out;
}

}  // namespace gsbench
