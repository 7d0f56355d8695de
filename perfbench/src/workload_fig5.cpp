// sim-fig5: the paper's §5 propagation experiment (Figure 5). Each instance
// draws a 50-node Barabási–Albert topology, uniform random demands, a writer
// and a write instant from one seed; the three Figure 5 algorithms run on
// that same instance (common random numbers). Per-trial construction and the
// small-network event path share the time; the replication layer carries a
// single update.
//
// The untraced run calls the program's own trial function
// (run_propagation_trial). The traced run performs the same steps through
// the layers' public functions, one span each, and must reproduce the
// untraced per-trial results exactly (results_digest).
#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "checks.hpp"
#include "demand/demand_model.hpp"
#include "experiment/propagation.hpp"
#include "topology/generators.hpp"

namespace perfbench {
namespace {

using namespace fastcons;

constexpr std::size_t kNodes = 50;
constexpr std::size_t kBaEdgesPerNode = 2;
constexpr LatencyRange kLatency{0.01, 0.05};
constexpr double kDemandLo = 0.0;
constexpr double kDemandHi = 100.0;
/// Instances per round; a round runs each on all three algorithms, and runs
/// repeat the same round (at least twice) until --seconds is used up.
constexpr std::size_t kInstancesPerRound = 100;
constexpr const char* kAlgorithms[] = {"weak", "demand-order", "fast"};
constexpr std::size_t kWeak = 0;
constexpr std::size_t kFast = 2;

PropagationExperiment make_experiment(std::size_t algorithm) {
  PropagationExperiment exp;
  exp.topology = [](Rng& rng) {
    return make_barabasi_albert(kNodes, kBaEdgesPerNode, kLatency, rng);
  };
  exp.demand = [](const Graph& g, Rng& rng) {
    return std::make_shared<StaticDemand>(
        make_uniform_random_demand(g.size(), kDemandLo, kDemandHi, rng));
  };
  ProtocolConfig cfg = algorithm == kWeak   ? ProtocolConfig::weak()
                       : algorithm == kFast ? ProtocolConfig::fast()
                                            : ProtocolConfig::demand_order_only();
  // Static demands with primed tables: adverts would be pure overhead (the
  // paper's model, and the fig5 scenario's setting).
  cfg.advert_period = 0.0;
  exp.sim.protocol = cfg;
  return exp;
}

/// Marks the ceil(fraction * n) highest-demand nodes (demand desc, id asc).
void high_demand_mask(const std::vector<double>& demands, double fraction,
                      std::vector<NodeId>& order, std::vector<bool>& mask) {
  const std::size_t n = demands.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (demands[a] != demands[b]) return demands[a] > demands[b];
    return a < b;
  });
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(fraction * static_cast<double>(n))));
  mask.assign(n, false);
  for (std::size_t i = 0; i < std::min(k, n); ++i) mask[order[i]] = true;
}

/// The steps of run_propagation_trial, each call into a layer in its own
/// span under one trial span.
const PropagationTrial& traced_trial(const PropagationExperiment& config,
                                     Rng& rng, PropagationContext& ctx,
                                     Tracer& tracer, std::uint64_t op) {
  PropagationTrial& trial = ctx.trial;
  trial.sessions_all.clear();
  trial.sessions_high.clear();
  trial.time_to_full = 0.0;
  trial.traffic = TrafficCounters{};
  trial.converged = false;
  trial.censored_samples = 0;
  trial.consistent = false;
  Scope root(tracer, "experiment.trial", op);

  Graph graph;
  {
    Scope s(tracer, "topology.build", op, root.id());
    graph = config.topology(rng);
  }
  std::shared_ptr<const DemandModel> demand;
  {
    Scope s(tracer, "demand.build", op, root.id());
    demand = config.demand(graph, rng);
  }
  SimConfig sim_config = config.sim;
  sim_config.seed = rng.next_u64();
  SimNetwork* net_ptr = nullptr;
  NodeId writer = 0;
  SimTime write_at = 0.0;
  UpdateId id;
  {
    Scope s(tracer, "sim_runtime.acquire", op, root.id());
    net_ptr = &ctx.pool.acquire(std::move(graph), demand, sim_config);
    writer = static_cast<NodeId>(rng.index(net_ptr->size()));
    write_at = rng.uniform(0.5, 1.5);
    id = net_ptr->schedule_write(writer, "key", "value", write_at);
  }
  SimNetwork& net = *net_ptr;
  {
    Scope s(tracer, "sim_runtime.run", op, root.id());
    trial.converged =
        net.run_until_update_everywhere(id, write_at + config.deadline);
    trial.consistent = trial.converged;
  }
  Scope s(tracer, "experiment.collect", op, root.id());
  const SimTime period = config.sim.protocol.session_period;
  ctx.demands.resize(net.size());
  for (NodeId node = 0; node < net.size(); ++node) {
    ctx.demands[node] = demand->demand_at(node, write_at);
  }
  high_demand_mask(ctx.demands, config.high_demand_fraction, ctx.order,
                   ctx.high);
  double last = 0.0;
  for (NodeId node = 0; node < net.size(); ++node) {
    if (node == writer) continue;
    const auto at = net.first_delivery(node, id);
    double sessions;
    if (at.has_value()) {
      sessions = (*at - write_at) / period;
    } else {
      sessions = config.deadline / period;
      ++trial.censored_samples;
    }
    last = std::max(last, sessions);
    trial.sessions_all.push_back(sessions);
    if (ctx.high[node]) trial.sessions_high.push_back(sessions);
  }
  trial.time_to_full = last;
  trial.traffic.merge(net.total_traffic());
  trial.faults = net.fault_stats();
  trial.pushes_suppressed_unhealthy =
      net.total_stats().pushes_suppressed_unhealthy;
  return trial;
}

/// FNV-1a over the trial's observable results.
void digest_trial(std::uint64_t& h, const PropagationTrial& t) {
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const double v : t.sessions_all) mix(std::bit_cast<std::uint64_t>(v));
  for (const double v : t.sessions_high) mix(std::bit_cast<std::uint64_t>(v));
  mix(std::bit_cast<std::uint64_t>(t.time_to_full));
  mix(t.traffic.total_messages());
  mix(t.traffic.total_bytes());
  mix(t.converged ? 1 : 0);
  mix(t.censored_samples);
}

/// The write's origin, issue time and first-delivery time at every node,
/// read back from the pooled network the trial ran on.
void check_trial(Result& result, SimNetwork& net, const PropagationTrial& t) {
  if (!t.converged || t.censored_samples != 0) {
    result.require("trial did not reach every replica (" +
                   std::to_string(t.censored_samples) + " censored samples)");
    return;
  }
  const std::vector<Update> retained = net.engine(0).log().all_retained();
  if (retained.size() != 1) {
    result.require("replica 0 holds " + std::to_string(retained.size()) +
                   " updates after a one-write trial");
    return;
  }
  const Update& write = retained.front();
  std::vector<std::optional<double>> first(net.size());
  for (NodeId n = 0; n < net.size(); ++n) first[n] = net.first_delivery(n, write.id);
  result.require(
      check_propagation(net.graph(), write.id.origin, write.created_at, first));
}

}  // namespace

Result run_fig5(const Args& args) {
  Result result;
  Tracer tracer(args.trace);
  std::vector<PropagationExperiment> experiments;
  for (std::size_t a = 0; a < std::size(kAlgorithms); ++a) {
    experiments.push_back(make_experiment(a));
  }

  // One pooled context per algorithm. Round 0 runs cold: it builds every
  // pooled network and touches every trial once, and its end marks the
  // set-up time. Later rounds repeat the same trials; a trial's time is its
  // fastest repetition after round 0, which keeps host noise (a slow
  // second, a descheduled vCPU) out of the figures.
  std::vector<PropagationContext> contexts(std::size(kAlgorithms));
  double setup_s = 0.0;
  const std::size_t trials_per_round = kInstancesPerRound * experiments.size();
  std::vector<double> best_ms(trials_per_round, 1e300);
  double best_round_s = 1e300;
  double best_round_cpu_s = 1e300;
  std::vector<double> ttf_sum(experiments.size(), 0.0);
  std::uint64_t round0_digest = 0;
  TrafficCounters round0_traffic;
  std::uint64_t round0_events = 0;
  std::uint64_t round0_duplicates = 0;
  std::uint64_t round0_applied = 0;
  std::uint64_t round0_sessions = 0;
  std::uint64_t events_traced = 0;

  std::int64_t deadline = 0;
  for (std::uint64_t round = 0; round < 3 || now_ns() < deadline; ++round) {
    std::uint64_t digest = 1469598103934665603ull;
    std::int64_t round_ns = 0;
    std::int64_t round_cpu_ns = 0;
    for (std::size_t i = 0; i < kInstancesPerRound; ++i) {
      const std::uint64_t instance_seed = mix_seed(args.seed, i);
      for (std::size_t a = 0; a < experiments.size(); ++a) {
        const std::size_t index = i * experiments.size() + a;
        const std::uint64_t op = round * trials_per_round + index;
        Rng rng(instance_seed);
        ++result.attempted;
        const std::int64_t c0 = thread_cpu_ns();
        const std::int64_t t0 = now_ns();
        const PropagationTrial& trial =
            tracer.enabled()
                ? traced_trial(experiments[a], rng, contexts[a], tracer, op)
                : run_propagation_trial(experiments[a], rng, contexts[a]);
        const std::int64_t t1 = now_ns();
        round_cpu_ns += thread_cpu_ns() - c0;
        round_ns += t1 - t0;
        if (round > 0) {
          best_ms[index] = std::min(best_ms[index], static_cast<double>(t1 - t0) / 1e6);
        }

        SimNetwork& net = *contexts[a].pool.get();
        digest_trial(digest, trial);
        if (tracer.enabled()) events_traced += net.events_executed();
        if (round == 0) {
          check_trial(result, net, trial);
          ttf_sum[a] += trial.time_to_full;
          round0_traffic.merge(trial.traffic);
          round0_events += net.events_executed();
          const EngineStats stats = net.total_stats();
          round0_duplicates += stats.duplicate_updates;
          round0_applied += stats.updates_applied;
          round0_sessions += stats.sessions_completed;
        }
      }
    }
    if (round == 0) {
      round0_digest = digest;
      setup_s = static_cast<double>(now_ns() - process_start_ns()) / 1e9;
      deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    } else {
      best_round_s = std::min(best_round_s, static_cast<double>(round_ns) / 1e9);
      best_round_cpu_s =
          std::min(best_round_cpu_s, static_cast<double>(round_cpu_ns) / 1e9);
    }
    if (digest != round0_digest) {
      result.require("round " + std::to_string(round) +
                     " results differ from round 0 on the same trials");
    }
  }
  result.require(check_fast_beats_weak(ttf_sum[kFast] / kInstancesPerRound,
                                       ttf_sum[kWeak] / kInstancesPerRound));

  const auto trials = static_cast<double>(trials_per_round);
  result.e2e("trials_per_s", trials / best_round_s, "trials/s");
  result.e2e("trial_p50_ms", quantile(best_ms, 0.5), "ms");
  result.e2e("cpu_us_per_trial", best_round_cpu_s * 1e6 / trials, "us");
  result.e2e("setup_s", setup_s, "s");
  result.results_digest = std::to_string(round0_digest);

  if (tracer.enabled()) {
    result.layer("topology.build_us", tracer.quantile_us("topology.build", 0.5), "us");
    result.layer("demand.build_us", tracer.quantile_us("demand.build", 0.5), "us");
    result.layer("sim_runtime.acquire_us", tracer.quantile_us("sim_runtime.acquire", 0.5), "us");
    result.layer("sim_runtime.run_us", tracer.quantile_us("sim_runtime.run", 0.5), "us");
    result.layer("experiment.collect_us", tracer.quantile_us("experiment.collect", 0.5), "us");
    result.layer("sim.events_per_s",
                 static_cast<double>(events_traced) /
                     (tracer.total_us("sim_runtime.run") / 1e6),
                 "1/s");
  }
  result.layer("sim.events_per_op", static_cast<double>(round0_events) / trials,
               "count");
  report_traffic(result, round0_traffic, trials);
  result.layer("core.duplicates_per_op",
               static_cast<double>(round0_duplicates) / trials, "count");
  result.layer("core.duplicate_ratio",
               static_cast<double>(round0_duplicates) /
                   static_cast<double>(round0_duplicates + round0_applied),
               "ratio");
  result.layer("core.session_payload_bytes_per_delivery",
               static_cast<double>(round0_traffic.bytes(TrafficClass::session_payload)) /
                   static_cast<double>(round0_applied),
               "B");
  result.layer("replication.deliveries", static_cast<double>(round0_applied),
               "count");
  result.layer("core.sessions_per_op",
               static_cast<double>(round0_sessions) / trials, "count");
  result.layer("bench.spans", static_cast<double>(tracer.size()), "count");
  if (tracer.enabled()) {
    tracer.dump(args.workdir + "/spans-sim-fig5.csv");
  }
  return result;
}

}  // namespace perfbench
