// sim-stream: the abstract's client workload (run_workload) on a
// Barabási–Albert network of about a thousand replicas. A dense Poisson
// write stream from random origins over a few dozen keys, client reads at
// demand rate, then a drain until every replica is consistent. Summaries
// span hundreds of origins, write logs take out-of-order ids and sessions
// push large batches, so the replication layer (WriteLog, SummaryVector) and
// a large pending-event set carry the time here, unlike sim-fig5.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <span>

#include "bench.hpp"
#include "checks.hpp"
#include "demand/demand_model.hpp"
#include "experiment/workload.hpp"
#include "net/wire.hpp"
#include "topology/generators.hpp"

namespace perfbench {
namespace {

using namespace fastcons;

constexpr std::size_t kNodes = 1000;
constexpr std::size_t kBaEdgesPerNode = 2;
constexpr LatencyRange kLatency{0.01, 0.05};
/// Demand is the client read rate per session period.
constexpr double kDemandLo = 0.0;
constexpr double kDemandHi = 4.0;
constexpr std::size_t kKeys = 32;
constexpr SimTime kWriteInterval = 0.005;
constexpr SimTime kDuration = 1.0;
constexpr SimTime kWarmup = 0.2;
/// Distinct instances per round; runs repeat the same round (at least
/// twice) until --seconds is used up.
constexpr std::size_t kInstancesPerRound = 4;
/// Drain horizon after the stream; reaching it is a failed round.
constexpr SimTime kDrainDeadline = 200.0;

struct Instance {
  Graph graph;
  std::shared_ptr<const DemandModel> demand;
  SimConfig sim;
  WorkloadConfig workload;
};

Instance make_instance(std::uint64_t seed, Tracer& tracer, std::uint64_t op,
                       std::int64_t parent) {
  Rng rng(seed);
  Instance in;
  {
    Scope s(tracer, "topology.build", op, parent);
    in.graph = make_barabasi_albert(kNodes, kBaEdgesPerNode, kLatency, rng);
  }
  {
    Scope s(tracer, "demand.build", op, parent);
    in.demand = std::make_shared<StaticDemand>(
        make_uniform_random_demand(kNodes, kDemandLo, kDemandHi, rng));
  }
  in.sim.protocol = ProtocolConfig::fast();
  in.sim.protocol.advert_period = 0.0;  // static demands, primed tables
  in.sim.seed = rng.next_u64();
  in.workload.keys = kKeys;
  in.workload.write_interval = kWriteInterval;
  in.workload.duration = kDuration;
  in.workload.warmup = kWarmup;
  in.workload.seed = rng.next_u64();
  return in;
}

/// Nanoseconds per call of `fn`, the median of 7 batches sized to ~2 ms.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::size_t batch = 1;
  for (;;) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (now_ns() - t0 > 2'000'000 || batch >= (1u << 20)) break;
    batch *= 2;
  }
  std::vector<double> per;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    per.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(batch));
  }
  return quantile(per, 0.5);
}

/// Times the replication and codec calls on this round's own data: two
/// neighbouring replicas' summaries at the end of the stream (before the
/// drain makes them equal), and one replica's final log.
void time_layers_on_round_data(Result& result, const SummaryVector& mine,
                               const SummaryVector& theirs,
                               const std::vector<Update>& missing,
                               const std::vector<Update>& final_log,
                               std::uint64_t seed) {
  std::vector<Update> shuffled = final_log;
  Rng rng(seed);
  rng.shuffle(shuffled);
  std::vector<double> apply_ns;
  for (int rep = 0; rep < 5; ++rep) {
    WriteLog log;
    const std::int64_t t0 = now_ns();
    for (const Update& u : shuffled) log.apply(u);
    apply_ns.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(shuffled.size()));
  }
  result.layer("replication.log_apply_ns", quantile(apply_ns, 0.5), "ns");

  std::uint64_t sink = 0;
  result.layer("replication.merge_ns", ns_per_call([&] {
                 SummaryVector joined = mine;
                 joined.merge(theirs);
                 sink += joined.watermarks().size();
               }),
               "ns");
  result.layer("replication.missing_from_ns", ns_per_call([&] {
                 sink += mine.missing_from(theirs).size();
               }),
               "ns");

  const Message push = SessionPush{1, mine, missing};
  const std::vector<std::uint8_t> frame = encode_frame(0, push);
  result.layer("net.encode_push_ns", ns_per_call([&] {
                 sink += encode_frame(0, push).size();
               }),
               "ns");
  const std::span<const std::uint8_t> body(frame.data() + 4, frame.size() - 4);
  result.layer("net.decode_push_ns", ns_per_call([&] {
                 sink += decode_body(body).sender;
               }),
               "ns");
  result.layer("net.push_frame_bytes", static_cast<double>(frame.size()), "B");
  // Keeps the timed calls observable.
  if (sink == 42) result.layer("bench.sink", 0.0, "count");
}

void check_round(Result& result, SimNetwork& net, const WorkloadResult& wr,
                 bool drained) {
  if (!drained) {
    result.require("network not consistent by the drain deadline");
    return;
  }
  std::vector<SummaryVector> summaries;
  summaries.reserve(net.size());
  for (NodeId n = 0; n < net.size(); ++n) summaries.push_back(net.engine(n).summary());
  result.require(check_summaries(summaries, wr.writes));

  const std::vector<Update> retained = net.engine(0).log().all_retained();
  if (retained.size() != wr.writes) {
    result.require("replica 0 retains " + std::to_string(retained.size()) +
                   " of " + std::to_string(wr.writes) + " writes");
  }
  const std::map<std::string, std::string> winners = lww_winners(retained);
  std::vector<std::map<std::string, std::optional<std::string>>> values(net.size());
  for (NodeId n = 0; n < net.size(); ++n) {
    for (const auto& entry : winners) {
      values[n].emplace(entry.first, net.engine(n).read(entry.first));
    }
  }
  result.require(check_values(winners, values));
  result.require(check_fresh_reads(wr.reads, wr.fresh_reads));
}

}  // namespace

Result run_stream(const Args& args) {
  Result result;
  Tracer tracer(args.trace);

  // One pooled network, rewired for every instance. Round 0 runs cold: it
  // builds the network and runs every instance once, and its end marks the
  // set-up time. Later rounds repeat the same instances; an instance's time
  // is its fastest repetition after round 0, which keeps host noise out of
  // the figures.
  SimNetworkPool pool;
  double setup_s = 0.0;
  std::vector<double> best_s(kInstancesPerRound, 1e300);
  std::vector<double> best_cpu_s(kInstancesPerRound, 1e300);
  std::vector<std::uint64_t> deliveries(kInstancesPerRound, 0);
  std::vector<std::uint64_t> digests(kInstancesPerRound, 0);
  std::vector<double> stream_s;
  std::vector<double> drain_s;
  std::uint64_t round0_reads = 0;
  std::uint64_t round0_applied = 0;
  std::uint64_t round0_duplicates = 0;
  std::uint64_t round0_events = 0;
  std::uint64_t round0_sessions = 0;
  TrafficCounters round0_traffic;

  std::int64_t deadline = 0;
  for (std::uint64_t round = 0; round < 3 || now_ns() < deadline; ++round) {
    for (std::size_t i = 0; i < kInstancesPerRound; ++i) {
      const std::uint64_t op = round * kInstancesPerRound + i;
      ++result.attempted;
      Scope root(tracer, "experiment.round", op);
      Instance in = make_instance(mix_seed(args.seed, i), tracer, op, root.id());

      const std::int64_t c0 = thread_cpu_ns();
      const std::int64_t t0 = now_ns();
      WorkloadResult wr;
      {
        Scope s(tracer, "experiment.stream", op, root.id());
        wr = run_workload(std::move(in.graph), in.demand, in.sim, in.workload, pool);
      }
      const std::int64_t t1 = now_ns();
      const std::int64_t c1 = thread_cpu_ns();
      SimNetwork& net = *pool.get();

      // Summaries of two neighbouring replicas at the end of the stream,
      // for the traced run's layer timings.
      const bool sample_layers = tracer.enabled() && op == 0;
      SummaryVector mine;
      SummaryVector theirs;
      std::vector<Update> missing;
      if (sample_layers) {
        const NodeId peer = net.graph().neighbours(0).front().peer;
        mine = net.engine(0).summary();
        theirs = net.engine(peer).summary();
        missing = net.engine(0).log().updates_for(theirs);
      }

      bool drained = false;
      const std::int64_t c2 = thread_cpu_ns();
      const std::int64_t t2 = now_ns();
      {
        Scope s(tracer, "sim_runtime.drain", op, root.id());
        drained = net.run_until_consistent(kDuration + kDrainDeadline);
      }
      const std::int64_t t3 = now_ns();
      const std::int64_t c3 = thread_cpu_ns();
      if (round > 0) {
        best_s[i] = std::min(best_s[i], static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9);
        best_cpu_s[i] =
            std::min(best_cpu_s[i], static_cast<double>((c1 - c0) + (c3 - c2)) / 1e9);
      }
      stream_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      drain_s.push_back(static_cast<double>(t3 - t2) / 1e9);

      const EngineStats stats = net.total_stats();
      const std::uint64_t digest =
          wr.reads * 1000003u + wr.fresh_reads * 7919u + net.events_executed();
      if (round == 0) {
        check_round(result, net, wr, drained);
        deliveries[i] = stats.updates_applied;
        digests[i] = digest;
        round0_reads += wr.reads;
        round0_applied += stats.updates_applied;
        round0_duplicates += stats.duplicate_updates;
        round0_events += net.events_executed();
        round0_sessions += stats.sessions_completed;
        round0_traffic.merge(net.total_traffic());
      } else if (digest != digests[i] || stats.updates_applied != deliveries[i]) {
        result.require("instance " + std::to_string(i) + " round " +
                       std::to_string(round) + " differs from round 0");
      }
      if (sample_layers) {
        time_layers_on_round_data(result, mine, theirs, missing,
                                  net.engine(0).log().all_retained(),
                                  mix_seed(args.seed, i, 1));
      }
    }
    if (round == 0) {
      setup_s = static_cast<double>(now_ns() - process_start_ns()) / 1e9;
      deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    }
  }
  std::uint64_t digest = 0;
  for (const std::uint64_t d : digests) digest = digest * 1099511628211ull + d;
  result.results_digest = std::to_string(digest);

  const double delivered = std::accumulate(deliveries.begin(), deliveries.end(), 0.0);
  const double busy_s = std::accumulate(best_s.begin(), best_s.end(), 0.0);
  const double cpu_s = std::accumulate(best_cpu_s.begin(), best_cpu_s.end(), 0.0);
  // Time per delivery of each instance, so the median does not follow how
  // many writes an instance's Poisson stream happened to draw.
  std::vector<double> per_delivery_ms;
  for (std::size_t i = 0; i < kInstancesPerRound; ++i) {
    per_delivery_ms.push_back(best_s[i] * 1e3 / static_cast<double>(deliveries[i]));
  }
  result.e2e("deliveries_per_s", delivered / busy_s, "deliveries/s");
  result.e2e("delivery_p50_ms", quantile(per_delivery_ms, 0.5), "ms");
  result.e2e("cpu_us_per_delivery", cpu_s * 1e6 / delivered, "us");
  result.e2e("setup_s", setup_s, "s");

  if (tracer.enabled()) {
    result.layer("topology.build_us", tracer.quantile_us("topology.build", 0.5), "us");
    result.layer("demand.build_us", tracer.quantile_us("demand.build", 0.5), "us");
    result.layer("sim.events_per_s", static_cast<double>(round0_events) / busy_s,
                 "1/s");
  }
  result.layer("experiment.stream_s", quantile(stream_s, 0.5), "s");
  result.layer("sim_runtime.drain_s", quantile(drain_s, 0.5), "s");
  result.layer("experiment.read_events", static_cast<double>(round0_reads), "count");
  result.layer("replication.deliveries", static_cast<double>(round0_applied),
               "count");
  const auto per_delivery = static_cast<double>(round0_applied);
  result.layer("sim.events_per_op", static_cast<double>(round0_events) / per_delivery,
               "count");
  report_traffic(result, round0_traffic, per_delivery);
  result.layer("core.duplicates_per_op",
               static_cast<double>(round0_duplicates) / per_delivery, "count");
  result.layer("core.duplicate_ratio",
               static_cast<double>(round0_duplicates) /
                   static_cast<double>(round0_duplicates + round0_applied),
               "ratio");
  result.layer("core.session_payload_bytes_per_delivery",
               static_cast<double>(round0_traffic.bytes(TrafficClass::session_payload)) /
                   per_delivery,
               "B");
  result.layer("core.sessions_per_op",
               static_cast<double>(round0_sessions) / per_delivery, "count");
  result.layer("bench.spans", static_cast<double>(tracer.size()), "count");
  if (tracer.enabled()) tracer.dump(args.workdir + "/spans-sim-stream.csv");
  return result;
}

}  // namespace perfbench
