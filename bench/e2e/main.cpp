// bench_e2e: runs one benchmark workload and prints its record.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scale F] [--git-rev REV]
//
// Prints one "record" JSON line (every metric with its unit, host and
// build metadata, request counts, checks and fingerprints), then, as the
// last line, the summary {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Exits 1 when a correctness check fails, 2 on a usage error.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using gsbench::Options;
using gsbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, reported by every workload with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"tasks_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"peak_rss_mb", "MB"},
};

// Measured and printed in the record only: under host interference the
// tail moves far more than the median, too much to hold a bound.
constexpr MetricDef kRecordOnly[] = {
    {"latency_p90_us", "us"},
};

// The per-layer metrics, reported by every workload with --trace 1; a
// layer the workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"green.rank_us", "us"},
    {"green.rank_share", "share"},
    {"diet.collect_us", "us"},
    {"diet.batch_scan_us", "us"},
    {"diet.execute_us", "us"},
    {"bench.phase_coverage", "share"},
    {"diet.rounds", "count"},
    {"diet.estimations_per_round", "count"},
    {"diet.estimation_cache_hit_ratio", "share"},
    {"diet.unplaced_ratio", "share"},
    {"diet.retries", "count"},
    {"des.events", "count"},
    {"des.ns_per_event", "ns"},
    {"chaos.crashes", "count"},
    {"chaos.stalls", "count"},
    {"diet.gate_misses", "count"},
    {"diet.hedges", "count"},
    {"diet.hedge_rescue_ratio", "share"},
    {"diet.quarantined_skips", "count"},
    {"diet.gate_p99_wait_s", "sim_s"},
    {"green.provisioner_checks", "count"},
    {"green.boots", "count"},
    {"green.shutdowns", "count"},
    {"green.mean_candidates", "count"},
    {"migrate.committed", "count"},
    {"migrate.abort_ratio", "share"},
    {"sla.reject_ratio", "share"},
    {"sla.violations", "count"},
    {"sla.revenue", "credits"},
    {"sim.energy_kwh", "kWh"},
    {"sim.makespan_s", "sim_s"},
    {"telemetry.trace_overhead", "share"},
};

struct WorkloadDef {
  const char* name;
  Outcome (*run)(const Options&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"paper-table2", gsbench::run_sim},     {"storm-gray", gsbench::run_sim},
    {"provision-sla", gsbench::run_sim},    {"serve-10k", gsbench::run_serve},
    {"serve-10k-shards4", gsbench::run_serve}, {"serve-10k-batch32", gsbench::run_serve},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--scale F] [--git-rev REV]\n"
               "workloads:",
               why);
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double.  JSON has no NaN or
/// infinity; such a metric fails its check and prints as 0.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

std::string metrics_json(const std::vector<MetricDef>& defs, const Outcome& outcome) {
  std::string out = "{";
  for (const MetricDef& def : defs) {
    const auto it = outcome.metrics.find(def.name);
    const double value = it != outcome.metrics.end() ? it->second : 0.0;
    if (out.size() > 1) out += ", ";
    out += json_string(def.name) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(def.unit) + "}";
  }
  return out + "}";
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--scale") {
      options.scale = std::strtod(value.c_str(), &end);
      if (!(options.scale > 0.0 && options.scale <= 1.0)) {
        return usage("--scale must be in (0, 1]");
      }
    } else if (flag == "--git-rev") {
      git_rev = value;
    } else {
      return usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') return usage("malformed number");
  }
  const WorkloadDef* workload = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown or missing --workload");

  Outcome outcome;
  try {
    outcome = workload->run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s failed: %s\n", workload->name, e.what());
    return 1;
  }
  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  outcome.metrics["peak_rss_mb"] = static_cast<double>(usage_self.ru_maxrss) / 1024.0;
  for (const auto& [name, value] : outcome.metrics) {
    outcome.check(std::isfinite(value), "metric " + name + " is not finite");
  }

  const std::vector<MetricDef> end_to_end(std::begin(kEndToEnd), std::end(kEndToEnd));
  const std::vector<MetricDef> per_layer(std::begin(kPerLayer), std::end(kPerLayer));
  const std::vector<MetricDef>& reported = options.trace ? per_layer : end_to_end;
  const bool correct = outcome.failures.empty();

  std::string failures = "[";
  for (const std::string& f : outcome.failures) {
    failures += (failures.size() > 1 ? ", " : "") + json_string(f);
  }
  failures += "]";
  std::string fingerprints = "{";
  for (const auto& [name, value] : outcome.fingerprints) {
    fingerprints +=
        (fingerprints.size() > 1 ? ", " : "") + json_string(name) + ": " + json_string(value);
  }
  fingerprints += "}";

  std::vector<MetricDef> all = end_to_end;
  all.insert(all.end(), std::begin(kRecordOnly), std::end(kRecordOnly));
  if (options.trace) all.insert(all.end(), per_layer.begin(), per_layer.end());
  std::printf(
      "{\"record\": \"bench_e2e\", \"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"seconds\": %s, \"scale\": %s, "
      "\"host\": {\"nproc\": %zu, \"hardware_concurrency\": %u}, "
      "\"build\": {\"type\": %s, \"compiler\": %s, \"git_rev\": %s}, \"telemetry\": %s, "
      "\"requests\": {\"sent\": %llu, \"succeeded\": %llu, \"failed\": %llu}, "
      "\"latency_samples\": %llu, \"checks\": {\"passed\": %s, \"failures\": %s}, "
      "\"fingerprints\": %s, \"metrics\": %s}\n",
      json_string(workload->name).c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, json_number(options.seconds).c_str(),
      json_number(options.scale).c_str(), nproc(), std::thread::hardware_concurrency(),
      json_string(GS_BENCH_BUILD_TYPE).c_str(), json_string(compiler()).c_str(),
      json_string(git_rev).c_str(), json_string(outcome.telemetry).c_str(),
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.attempted - outcome.failed),
      static_cast<unsigned long long>(outcome.failed),
      static_cast<unsigned long long>(outcome.samples), correct ? "true" : "false",
      failures.c_str(), fingerprints.c_str(), metrics_json(all, outcome).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics_json(reported, outcome).c_str());
  for (const std::string& f : outcome.failures) {
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", f.c_str());
  }
  return correct ? 0 : 1;
}
