// Serving workloads: one master over a flat tree of 10k SEDs, GREENPERF
// ranking, a closed loop of identical requests (preference 0.5).  Every
// elected task starts executing and the simulated clock never advances,
// so occupancy only grows within an episode.
//
// A run is a series of episodes.  Each episode builds a fresh platform
// and hierarchy from the seed (that build plus 8 warm-up requests is the
// timed set-up), then drives a fixed number of requests, so every episode
// elects the same sequence and per-request cost does not drift with run
// length.  The traced run alternates untraced and traced episodes; traced
// ones install TimedRanking around GREENPERF.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/platform.hpp"
#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "diet/hierarchy.hpp"
#include "green/policies.hpp"
#include "metrics/experiment.hpp"
#include "metrics/throughput.hpp"
#include "workload/task.hpp"

namespace gsbench {
namespace {

using namespace greensched;

struct ServeShape {
  std::size_t seds = 10000;
  std::size_t episode = 1000;  ///< timed requests per episode
  std::size_t shards = 1;
  std::size_t batch = 1;  ///< 1 = submit_fast, else submit_batch of this size
};

constexpr std::size_t kWarmupRequests = 8;
constexpr int kSetupsPerEpisode = 5;
/// Requests of the serial reference run every sequence is checked against.
constexpr std::size_t kReferencePrefix = 256;

/// Forwards to the real policy and times each master-level aggregate.
/// Shard workers get the inner policy's clones, so they run untouched;
/// estimate() is forwarded untimed.
class TimedRanking final : public diet::PluginScheduler {
 public:
  explicit TimedRanking(const diet::PluginScheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::unique_ptr<PluginScheduler> clone_for_shard() const override {
    return inner_.clone_for_shard();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void estimate(diet::EstimationVector& est, const diet::Request& request) const override {
    inner_.estimate(est, request);
  }
  void aggregate(std::vector<diet::Candidate>& candidates,
                 const diet::Request& request) const override {
    const Clock::time_point begin = Clock::now();
    inner_.aggregate(candidates, request);
    last_seconds_ = seconds_since(begin);
  }
  /// Seconds the most recent aggregate took (election thread only).
  [[nodiscard]] double last_seconds() const noexcept { return last_seconds_; }

 private:
  const diet::PluginScheduler& inner_;
  mutable double last_seconds_ = 0.0;
};

/// One episode's platform and hierarchy.  Member order matters: the
/// hierarchy (whose master joins the shard workers) is destroyed before
/// the policies the workers use, and after the platform it points into.
class ServeStack {
 public:
  ServeStack(std::uint64_t seed, const ServeShape& shape, bool traced)
      : rng_(seed), hierarchy_(sim_, rng_), task_(workload::paper_cpu_bound_task()) {
    for (const metrics::ClusterSetup& setup : metrics::scaled_clusters(shape.seds)) {
      platform_.add_cluster(setup.name, setup.spec, setup.options, rng_);
    }
    master_ = &hierarchy_.build_flat(platform_, {task_.service}, {});
    policy_ = green::make_policy("GREENPERF");
    if (traced) timed_ = std::make_unique<TimedRanking>(*policy_);
    master_->set_plugin(timed_ ? timed_.get() : policy_.get());
    master_->configure_serving({shape.shards});
  }

  [[nodiscard]] diet::Request next_request() {
    diet::Request request;
    request.id = hierarchy_.next_request_id();
    request.task.spec = task_;
    request.task.user_preference = 0.5;
    request.user_preference = 0.5;
    return request;
  }

  [[nodiscard]] diet::MasterAgent& master() { return *master_; }
  [[nodiscard]] const TimedRanking* timed() const { return timed_.get(); }
  [[nodiscard]] const diet::Hierarchy& hierarchy() const { return hierarchy_; }

 private:
  des::Simulator sim_;
  common::Rng rng_;
  cluster::Platform platform_;
  std::unique_ptr<diet::PluginScheduler> policy_;
  std::unique_ptr<TimedRanking> timed_;
  diet::Hierarchy hierarchy_;
  workload::TaskSpec task_;
  diet::MasterAgent* master_ = nullptr;
};

/// What a stretch of requests produced.  The layer vectors fill only
/// when the stack is traced.
struct Requests {
  double wall = 0.0;  ///< the loop's own wall time
  std::vector<std::string> elected;  ///< server per request, "-" = unplaced
  std::size_t placed = 0;
  std::vector<double> rank_us, collect_us, scan_us;
  double rank_seconds = 0.0, collect_seconds = 0.0, scan_seconds = 0.0;
  double execute_seconds = 0.0;
  std::size_t executes = 0;
};

void execute(const diet::SchedulingDecision& decision, const diet::Request& request,
             bool traced, Requests& out) {
  if (decision.elected == nullptr) {
    out.elected.emplace_back("-");
    return;
  }
  ++out.placed;
  out.elected.push_back(decision.elected->name());
  const Clock::time_point begin = traced ? Clock::now() : Clock::time_point{};
  (void)decision.elected->execute(request.task, request.id, {});
  if (traced) {
    out.execute_seconds += seconds_since(begin);
    ++out.executes;
  }
}

void record_layers(Requests& out, double rank, double collect, double scan) {
  out.rank_us.push_back(rank * 1e6);
  out.collect_us.push_back(collect * 1e6);
  out.rank_seconds += rank;
  out.collect_seconds += collect;
  out.scan_seconds += scan;
}

/// Drives `count` requests through the stack's master: one submit_fast
/// per request, or submit_batch rounds of `shape.batch`.  Each request's
/// latency goes to `slices` (if any), stamped `offset` + its end.
Requests drive(ServeStack& stack, const ServeShape& shape, std::size_t count,
               Slices* slices = nullptr, double offset = 0.0) {
  Requests out;
  out.elected.reserve(count);
  const TimedRanking* timed = stack.timed();
  diet::MasterAgent& master = stack.master();
  std::vector<diet::Request> batch;
  const Clock::time_point loop_begin = Clock::now();
  std::size_t sent = 0;
  while (sent < count) {
    if (shape.batch == 1) {
      const diet::Request request = stack.next_request();
      const Clock::time_point begin = Clock::now();
      const diet::SchedulingDecision& decision = master.submit_fast(request);
      const Clock::time_point done = Clock::now();
      const double latency = std::chrono::duration<double>(done - begin).count();
      if (slices != nullptr) {
        slices->add(offset + std::chrono::duration<double>(done - loop_begin).count(),
                    latency * 1e6, 1.0);
      }
      if (timed != nullptr) {
        record_layers(out, timed->last_seconds(), latency - timed->last_seconds(), 0.0);
      }
      execute(decision, request, timed != nullptr, out);
      ++sent;
      continue;
    }
    batch.clear();
    const std::size_t size = std::min(shape.batch, count - sent);
    for (std::size_t i = 0; i < size; ++i) batch.push_back(stack.next_request());
    Clock::time_point first{}, last{};
    const Clock::time_point begin = Clock::now();
    (void)master.submit_batch(batch, [&](std::size_t i, const diet::SchedulingDecision& decision) {
      last = Clock::now();
      if (i == 0) first = last;
      if (slices != nullptr) {
        slices->add(offset + std::chrono::duration<double>(last - loop_begin).count(),
                    std::chrono::duration<double>(last - begin).count() * 1e6, 1.0);
      }
      execute(decision, batch[i], timed != nullptr, out);
    });
    if (timed != nullptr) {
      const double rank = timed->last_seconds();
      const double scan = std::chrono::duration<double>(last - first).count();
      record_layers(out, rank, std::chrono::duration<double>(first - begin).count() - rank, scan);
      out.scan_us.push_back(scan * 1e6);
    }
    sent += size;
  }
  out.wall = seconds_since(loop_begin);
  return out;
}

/// Estimation work the SEDs did, summed over the tree.
struct Estimations {
  std::uint64_t hits = 0, misses = 0;
};

Estimations estimations(const diet::Hierarchy& hierarchy) {
  Estimations out;
  for (const auto& sed : hierarchy.seds()) {
    out.hits += sed->estimation_cache_hits();
    out.misses += sed->estimation_cache_misses();
  }
  return out;
}

ServeShape shape_for(const Options& options) {
  ServeShape shape;
  const auto scaled = [&](double n) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(n * options.scale));
  };
  shape.seds = std::max<std::size_t>(3, scaled(10000));
  shape.episode = scaled(1000);
  if (options.workload == "serve-10k-shards4") shape.shards = 4;
  if (options.workload == "serve-10k-batch32") {
    shape.batch = 32;
    shape.episode = scaled(32768);
  }
  return shape;
}

}  // namespace

Outcome run_serve(const Options& options) {
  const ServeShape shape = shape_for(options);
  Outcome out;
  out.telemetry = options.trace ? "off; timed ranking wrapper on odd episodes" : "off";

  std::vector<double> setups;
  Slices slices(options.seconds);
  std::vector<std::string> first_sequence;
  std::string first_fingerprint;
  double timed_wall = 0.0, wall[2] = {0.0, 0.0};  // wall[traced]
  Requests traced;  // layer samples pooled over traced episodes
  Estimations traced_estimations;
  std::uint64_t traced_rounds = 0;
  std::size_t episodes = 0;

  for (;;) {
    const bool traced_episode = options.trace && episodes % 2 == 1;
    // A set-up takes milliseconds, so each episode sets up five times and
    // keeps the last: a steady median needs many samples, spread over the
    // run.  The previous stack is torn down outside the timing.
    std::unique_ptr<ServeStack> stack;
    Requests warmup;
    for (int i = 0; i < kSetupsPerEpisode; ++i) {
      stack.reset();
      const Clock::time_point setup_begin = Clock::now();
      stack = std::make_unique<ServeStack>(options.seed, shape, traced_episode);
      warmup = drive(*stack, shape, kWarmupRequests);
      setups.push_back(seconds_since(setup_begin));
    }

    Requests episode = drive(*stack, shape, shape.episode, &slices, timed_wall);
    std::vector<std::string> sequence = std::move(warmup.elected);
    sequence.insert(sequence.end(), episode.elected.begin(), episode.elected.end());
    const std::string fingerprint = hex(metrics::fingerprint_names(sequence));
    if (episodes == 0) {
      first_fingerprint = fingerprint;
      first_sequence = std::move(sequence);
    }
    out.check(fingerprint == first_fingerprint,
              "episode " + std::to_string(episodes) + " elected sequence " + fingerprint +
                  " differs from episode 0's " + first_fingerprint);

    timed_wall += episode.wall;
    wall[traced_episode] += episode.wall;
    out.attempted += shape.episode;
    out.failed += shape.episode - episode.placed;
    if (traced_episode) {
      const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(traced.rank_us, episode.rank_us);
      append(traced.collect_us, episode.collect_us);
      append(traced.scan_us, episode.scan_us);
      traced.rank_seconds += episode.rank_seconds;
      traced.collect_seconds += episode.collect_seconds;
      traced.scan_seconds += episode.scan_seconds;
      traced.execute_seconds += episode.execute_seconds;
      traced.executes += episode.executes;
      const Estimations e = estimations(stack->hierarchy());
      traced_estimations.hits += e.hits;
      traced_estimations.misses += e.misses;
      traced_rounds += stack->master().submissions();
    }
    ++episodes;
    // At least three episodes; a traced run ends on a traced episode so
    // both kinds are paired.
    if (timed_wall >= options.seconds && episodes >= 3 && (!options.trace || episodes % 2 == 0))
      break;
  }

  // Reference: a fresh serial, unwrapped stack must elect the same prefix.
  // This pins sharded == serial, traced == untraced and run-to-run
  // determinism, whichever this run is.
  {
    ServeShape serial = shape;
    serial.shards = 1;
    ServeStack stack(options.seed, serial, false);
    std::vector<std::string> reference = drive(stack, serial, kWarmupRequests).elected;
    const std::size_t prefix = std::min(kReferencePrefix, shape.episode);
    const std::vector<std::string> rest = drive(stack, serial, prefix).elected;
    reference.insert(reference.end(), rest.begin(), rest.end());
    const auto length = static_cast<std::ptrdiff_t>(reference.size());
    const std::vector<std::string> mine(first_sequence.begin(), first_sequence.begin() + length);
    out.check(mine == reference, "elected prefix differs from the serial untraced reference");
    out.fingerprints["reference_prefix"] = hex(metrics::fingerprint_names(reference));
  }
  out.fingerprints["elected"] = first_fingerprint;
  slices.report(out.metrics);
  out.samples = slices.samples();

  auto& m = out.metrics;
  m["setup_s"] = quantile(setups, 0.5);
  if (options.trace) {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double traced_wall = wall[1];
    const double estimated = d(traced_estimations.hits + traced_estimations.misses);
    m["green.rank_us"] = quantile(traced.rank_us, 0.5);
    m["green.rank_share"] = ratio(traced.rank_seconds, traced_wall);
    m["diet.collect_us"] = quantile(traced.collect_us, 0.5);
    m["diet.batch_scan_us"] = quantile(traced.scan_us, 0.5);
    m["diet.execute_us"] = ratio(traced.execute_seconds * 1e6, d(traced.executes));
    m["bench.phase_coverage"] =
        ratio(traced.rank_seconds + traced.collect_seconds + traced.scan_seconds, traced_wall);
    m["diet.rounds"] = ratio(d(traced_rounds), d(episodes / 2));
    m["diet.estimations_per_round"] = ratio(estimated, d(traced_rounds));
    m["diet.estimation_cache_hit_ratio"] = ratio(d(traced_estimations.hits), estimated);
    m["diet.unplaced_ratio"] = ratio(d(out.failed), d(out.attempted));
    // Episodes come in untraced/traced pairs of equal length.
    m["telemetry.trace_overhead"] = ratio(wall[1], wall[0]) - 1.0;
  }
  return out;
}

}  // namespace gsbench
