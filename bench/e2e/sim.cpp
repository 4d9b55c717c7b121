// Simulated workloads: serial metrics::run_placement calls, one per
// config, in a closed loop until the time budget is spent.  The config
// list is built from the seed during set-up and cycled; each config is an
// independent, deterministic experiment.
//
// Set-up is building the list and validating every config through the
// saved-experiment path (XML out, parse back, XML out again must agree).
// Each run's own set-up sits inside run_placement and so inside the
// per-call latency.
//
// The traced run executes every config twice, untraced then with
// Telemetry on (counters only; a small trace ring that may overflow), and
// requires identical result fingerprints.  Per-layer counts are means
// over the first `prefix` configs, so they repeat exactly for a seed.
#include <bit>
#include <cmath>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "chaos/scenario.hpp"
#include "common/units.hpp"
#include "diet/client.hpp"
#include "metrics/config_io.hpp"
#include "metrics/experiment.hpp"
#include "metrics/throughput.hpp"
#include "telemetry/telemetry.hpp"

namespace gsbench {
namespace {

using namespace greensched;
using metrics::PlacementConfig;
using metrics::PlacementResult;

struct SimWorkload {
  std::size_t configs = 0;  ///< length of the cycled config list
  std::size_t prefix = 0;   ///< configs behind the fingerprint and layer counts
};

std::size_t scaled(double n, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::llround(n * scale)));
}

/// The paper's Table I platform and Section IV-A load (1040 tasks, burst
/// 50 then 2/s), cycling POWER, PERFORMANCE, GREENPERF and RANDOM.
PlacementConfig paper_table2(std::size_t i, std::uint64_t seed, double) {
  static const char* const kPolicies[] = {"POWER", "PERFORMANCE", "GREENPERF", "RANDOM"};
  PlacementConfig config;
  config.policy = kPolicies[i % 4];
  config.seed = seed + i / 4;
  return config;
}

/// Crash storm plus gray failures (stalls, flaps, limping SEDs) against
/// hardened retry, a 0.5 s estimation deadline and hedging.
PlacementConfig storm_gray(std::size_t i, std::uint64_t seed, double scale) {
  PlacementConfig config;
  config.clusters = metrics::scaled_clusters(scaled(80, scale, 40));
  config.policy = "GREENPERF";
  config.seed = seed + i;
  config.task_count_override = scaled(800, scale, 400);
  config.chaos = chaos::ChaosScenario::parse(
      "storm,stall_mtbf=600,stall=30,flap_mtbf=4000,flap_down=60,limp_fraction=0.3,"
      "limp_latency=60");
  config.retry = diet::RetryPolicy::hardened();
  config.estimation_deadline_seconds = 0.5;
  config.hedge = true;
  return config;
}

/// Adaptive provisioning: SLA tiers under revenue-rand admission, the
/// consolidate strategy and live migration draining idle nodes.  Default
/// retry: hardened retry abandons requests queued while the provisioner
/// holds the pool small.
PlacementConfig provision_sla(std::size_t i, std::uint64_t seed, double scale) {
  PlacementConfig config;
  config.clusters = metrics::scaled_clusters(scaled(32, scale, 3));
  config.policy = "POWER";
  config.seed = seed + i;
  config.workload.requests_per_core = 2.0;
  config.workload.task.work = common::Flops(6e12);
  config.workload.burst_size = scaled(36, scale, 5);
  config.workload.continuous_rate = 1.0;
  config.sla_workload = "sla:gold=0.2,silver=0.3,bronze=0.3,deadline=200000";
  config.sla_policy = "revenue-rand";
  config.provisioner = "consolidate:delay=60,trigger=0.5";
  config.migration = "drain:state=256,bw=1000,overhead=1,inflight=4,gain=2";
  return config;
}

using ConfigFn = PlacementConfig (*)(std::size_t, std::uint64_t, double);

/// Every outcome a behaviour-preserving change must keep bit-identical.
std::uint64_t result_fingerprint(const PlacementResult& r) {
  std::vector<std::string> parts{
      hex(std::bit_cast<std::uint64_t>(r.energy.value())),
      hex(std::bit_cast<std::uint64_t>(r.makespan.value())),
      std::to_string(r.tasks_completed) + "/" + std::to_string(r.tasks_rejected) + "/" +
          std::to_string(r.tasks_lost) + "/" + std::to_string(r.tasks_unfinished),
      r.candidate_series, r.admission_sequence, r.migration_sequence};
  for (const auto& [server, count] : r.tasks_per_server) {
    parts.push_back(server + "=" + std::to_string(count));
  }
  return metrics::fingerprint_names(parts);
}

/// Runs one config, timing the call.  A throw is a failed check.
struct Call {
  PlacementResult result;
  double seconds = 0.0;
  bool ok = false;
};

Call timed_call(const PlacementConfig& config, bool traced, Outcome& out) {
  Call call;
  if (traced) {
    telemetry::Telemetry::enable({.trace_capacity_per_thread = 4096});
    telemetry::Telemetry::reset();
  }
  const Clock::time_point begin = Clock::now();
  try {
    call.result = metrics::run_placement(config);
    call.ok = true;
  } catch (const std::exception& e) {
    out.check(false, "run_placement(seed " + std::to_string(config.seed) + ", " + config.policy +
                         ") threw: " + e.what());
  }
  call.seconds = seconds_since(begin);
  if (traced) telemetry::Telemetry::disable();
  return call;
}

void check_result(const PlacementResult& r, Outcome& out) {
  const std::string id = "seed " + std::to_string(r.seed) + " " + r.policy;
  const std::size_t accounted = r.tasks_completed + r.tasks_rejected + r.tasks_lost;
  out.check(accounted <= r.tasks && accounted + r.tasks_unfinished == r.tasks,
            id + ": completed + rejected + lost + unfinished != tasks");
  out.check(r.elected_while_quarantined == 0, id + ": a quarantined SED was elected");
}

/// Per-layer sums over the traced prefix configs.
struct LayerSums {
  double n = 0;
  std::uint64_t events = 0, retries = 0, crashes = 0, stalls = 0, misses = 0, hedges = 0,
                rescues = 0, skips = 0, checks = 0, boots = 0, shutdowns = 0, committed = 0,
                migrations = 0, aborted = 0, rejected = 0, tasks = 0, violations = 0;
  double wait_p99 = 0, candidates = 0, revenue = 0, energy_j = 0, makespan = 0;
  std::uint64_t rounds = 0, unplaced = 0, estimations = 0, hits = 0, misses_cache = 0;

  void add(const PlacementResult& r) {
    n += 1;
    events += r.sim_events;
    retries += r.retries;
    crashes += r.crashes;
    stalls += r.stalls;
    misses += r.deadline_misses;
    hedges += r.hedges;
    rescues += r.hedge_rescues;
    skips += r.quarantined_skips;
    wait_p99 += r.p99_election_wait_seconds;
    checks += r.provisioner_checks;
    boots += r.boots_ordered;
    shutdowns += r.shutdowns_ordered;
    candidates += r.mean_candidates;
    committed += r.migrations_committed;
    migrations += r.migrations_started;
    aborted += r.migrations_aborted;
    rejected += r.tasks_rejected;
    tasks += r.tasks;
    violations += r.sla_violations;
    revenue += r.revenue_total;
    energy_j += r.energy.value();
    makespan += r.makespan.value();
    const telemetry::MetricsSnapshot snap = telemetry::Telemetry::metrics().snapshot();
    const auto counter = [&snap](const char* name) -> std::uint64_t {
      const telemetry::CounterValue* c = snap.find_counter(name);
      return c != nullptr ? c->value : 0;
    };
    rounds += counter("diet.elections");
    unplaced += counter("diet.elections_unplaced");
    estimations += counter("diet.estimations");
    hits += counter("diet.estimation_cache_hits");
    misses_cache += counter("diet.estimation_cache_misses");
  }
};

}  // namespace

Outcome run_sim(const Options& options) {
  ConfigFn make = nullptr;
  SimWorkload shape;
  if (options.workload == "paper-table2") {
    make = paper_table2;
    shape = {2000, 4};
  } else if (options.workload == "storm-gray") {
    make = storm_gray;
    shape = {2000, 2};
  } else {
    make = provision_sla;
    shape = {2000, 2};
  }
  Outcome out;
  out.telemetry = options.trace
                      ? "on for the second call of each config (counters; 4096-event trace ring)"
                      : "off";

  // Set-up: build the list and validate each config.  It runs once before
  // the timed loop and again after every tenth of the timed work, so the
  // samples span the run like the latency slices do.
  std::vector<PlacementConfig> configs;
  std::vector<double> setups;
  const auto set_up = [&](std::vector<PlacementConfig>& list) {
    const Clock::time_point begin = Clock::now();
    list.clear();
    list.reserve(shape.configs);
    bool stable = true;
    for (std::size_t i = 0; i < shape.configs; ++i) {
      list.push_back(make(i, options.seed, options.scale));
      const std::string xml = metrics::config_to_string(list.back());
      stable = stable && metrics::config_to_string(metrics::config_from_string(xml)) == xml;
    }
    setups.push_back(seconds_since(begin));
    out.check(stable, "a config does not survive its XML round trip");
  };
  set_up(configs);

  Slices slices(options.seconds);
  std::vector<std::string> prefix_fingerprints;
  double timed = 0.0, untraced_wall = 0.0, traced_wall = 0.0;
  std::uint64_t untraced_events = 0;
  LayerSums layers;
  double next_set_up = options.seconds / 10;
  for (std::size_t i = 0;; ++i) {
    const PlacementConfig& config = configs[i % configs.size()];
    const Call call = timed_call(config, false, out);
    timed += call.seconds;
    slices.add(timed, call.seconds * 1e6, call.ok ? static_cast<double>(call.result.tasks) : 0.0);
    if (call.ok) {
      check_result(call.result, out);
      out.attempted += call.result.tasks;
      out.failed += call.result.tasks_lost + call.result.tasks_unfinished;
    }
    const std::string fingerprint = call.ok ? hex(result_fingerprint(call.result)) : "-";
    if (i < shape.prefix) prefix_fingerprints.push_back(fingerprint);

    // Traced twin: every config in a traced run, config 0 otherwise.
    if (options.trace || i == 0) {
      const Call twin = timed_call(config, true, out);
      const std::string twin_fingerprint = twin.ok ? hex(result_fingerprint(twin.result)) : "-";
      out.check(twin_fingerprint == fingerprint,
                "config " + std::to_string(i) + ": traced result " + twin_fingerprint +
                    " differs from untraced " + fingerprint);
      if (options.trace) {
        untraced_wall += call.seconds;
        traced_wall += twin.seconds;
        untraced_events += call.ok ? call.result.sim_events : 0;
        if (i < shape.prefix && twin.ok) layers.add(twin.result);
      }
    }
    if (timed + traced_wall >= options.seconds && i + 1 >= shape.prefix) break;
    if (timed + traced_wall >= next_set_up) {
      std::vector<PlacementConfig> scratch;
      set_up(scratch);
      next_set_up += options.seconds / 10;
    }
  }
  out.fingerprints["results"] = hex(metrics::fingerprint_names(prefix_fingerprints));
  slices.report(out.metrics);
  out.samples = slices.samples();

  auto& m = out.metrics;
  m["setup_s"] = quantile(setups, 0.5);
  if (options.trace) {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double n = layers.n;
    m["des.events"] = ratio(d(layers.events), n);
    m["des.ns_per_event"] = ratio(untraced_wall * 1e9, d(untraced_events));
    m["diet.rounds"] = ratio(d(layers.rounds), n);
    m["diet.estimations_per_round"] = ratio(d(layers.estimations), d(layers.rounds));
    m["diet.estimation_cache_hit_ratio"] =
        ratio(d(layers.hits), d(layers.hits + layers.misses_cache));
    m["diet.unplaced_ratio"] = ratio(d(layers.unplaced), d(layers.rounds));
    m["diet.retries"] = ratio(d(layers.retries), n);
    m["chaos.crashes"] = ratio(d(layers.crashes), n);
    m["chaos.stalls"] = ratio(d(layers.stalls), n);
    m["diet.gate_misses"] = ratio(d(layers.misses), n);
    m["diet.hedges"] = ratio(d(layers.hedges), n);
    m["diet.hedge_rescue_ratio"] = ratio(d(layers.rescues), d(layers.hedges));
    m["diet.quarantined_skips"] = ratio(d(layers.skips), n);
    m["diet.gate_p99_wait_s"] = ratio(layers.wait_p99, n);
    m["green.provisioner_checks"] = ratio(d(layers.checks), n);
    m["green.boots"] = ratio(d(layers.boots), n);
    m["green.shutdowns"] = ratio(d(layers.shutdowns), n);
    m["green.mean_candidates"] = ratio(layers.candidates, n);
    m["migrate.committed"] = ratio(d(layers.committed), n);
    m["migrate.abort_ratio"] = ratio(d(layers.aborted), d(layers.migrations));
    m["sla.reject_ratio"] = ratio(d(layers.rejected), d(layers.tasks));
    m["sla.violations"] = ratio(d(layers.violations), n);
    m["sla.revenue"] = ratio(layers.revenue, n);
    m["sim.energy_kwh"] = ratio(layers.energy_j / 3.6e6, n);
    m["sim.makespan_s"] = ratio(layers.makespan, n);
    m["telemetry.trace_overhead"] = ratio(traced_wall, untraced_wall) - 1.0;
  }
  return out;
}

}  // namespace gsbench
