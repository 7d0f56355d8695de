// live-mesh: three ReplicaServers on a loopback TCP line 0 - 1 - 2 with
// demands rising away from the writer (node 0), so the fast-push gradient
// carries every write to every replica; anti-entropy sessions and demand
// adverts run throughout. Durable mode is on (fsync none, a checkpoint
// interval that fires several times per run, state in a scratch directory
// removed at the end). This is the only workload that exercises net,
// durability and the engine lock under real threads, and it mixes client
// reads with writes on the same lock.
//
// One generator thread (this one) drives three phases:
//   1. paced open loop: writes at a fixed rate well below capacity, each
//      timed from its scheduled instant until every replica's summary()
//      covers it (polled about every kPollInterval), plus Poisson reads at
//      every replica at a rate proportional to its demand;
//   2. capacity: closed-loop bursts, at most kWindow writes outstanding;
//   3. recovery: node 1 is killed, writes continue, node 1 is restarted with
//      RestartMode::recover and caught up.
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "demand/demand_model.hpp"
#include "net/cluster.hpp"
#include "topology/generators.hpp"

namespace perfbench {
namespace {

using namespace fastcons;

constexpr std::size_t kReplicas = 3;
constexpr NodeId kWriter = 0;
constexpr NodeId kVictim = 1;
/// Demands rise away from the writer, so each hop pushes to a neighbour
/// with more demand than itself.
const std::vector<double> kDemands = {1.0, 2.0, 3.0};
constexpr double kSecondsPerUnit = 0.05;
/// Paced write rate, well below the measured capacity (README), and the
/// share of --seconds the paced phase takes. Its replica CPU per write is
/// the lowest over kCpuWindows equal windows of writes.
constexpr double kPacedWritesPerSec = 500.0;
constexpr double kPacedShare = 0.5;
constexpr std::size_t kCpuWindows = 20;
/// Reads per second per unit of demand at each replica.
constexpr double kReadsPerDemand = 100.0;
/// Mean summary poll interval; each gap is drawn uniformly from
/// [0.5, 1.5] x the mean so the poll phase does not alias with the write
/// schedule (a fixed phase makes the measured visibility jump by one whole
/// interval when the true latency crosses a poll instant).
constexpr std::int64_t kPollInterval = 100'000;  // ns
/// Writes outstanding in the capacity phase, and the phase's write count
/// per second of --seconds.
constexpr std::size_t kWindow = 64;
constexpr double kCapacityWritesPerRunSecond = 1000.0;
/// The capacity phase runs this many equal bursts, each from its first
/// write to its last write visible everywhere; the capacity is the median
/// burst rate, so a stall in one burst (a checkpoint, a descheduled
/// thread) does not move it.
constexpr std::size_t kCapacityBursts = 5;
/// Idle gap after each burst, as a share of --seconds: the host this was
/// tuned on slows down for seconds at a time, and bursts spread over a few
/// seconds let the least-CPU burst fall outside such a spell.
constexpr double kBurstGapShare = 0.04;
constexpr std::uint64_t kCheckpointEvery = 2048;
/// Writes issued while the victim is down.
constexpr std::size_t kWritesWhileDown = 50;
constexpr double kConvergeTimeoutS = 30.0;
constexpr double kReadyAdvertRounds = 2.0;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t wait = t - now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

/// Removes the durable state directory when the run ends, however it ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

  std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(path_)) {
      if (e.is_regular_file()) total += e.file_size();
    }
    return total;
  }

 private:
  std::filesystem::path path_;
};

class Generator {
 public:
  Generator(LocalCluster& cluster, Tracer& tracer, std::uint64_t seed,
            Result& result)
      : cluster_(cluster),
        tracer_(tracer),
        value_rng_(mix_seed(seed, 1)),
        read_rng_(mix_seed(seed, 2)),
        poll_rng_(mix_seed(seed, 3)),
        result_(result) {}

  /// Issues the next write at the writer: a new key, or with `overwrite` a
  /// random key already written. Returns the write's sequence number.
  std::uint64_t write(std::int64_t due, bool overwrite = false) {
    const std::uint64_t seq = ++writes_;
    std::string key;
    if (overwrite && !keys_.empty()) {
      key = keys_[value_rng_.index(keys_.size())];
    } else {
      // Keys in random order, as independent clients would write them; the
      // sequence suffix keeps them unique.
      key = random_hex(8) + "-" + std::to_string(seq);
      keys_.push_back(key);
    }
    std::string value = random_hex(16 + value_rng_.index(33));
    values_[key] = value;
    {
      Scope s(tracer_, "net.write_call", seq);
      cluster_.server(kWriter).write(std::move(key), std::move(value));
    }
    pending_.push_back({seq, due});
    ++result_.attempted;
    return seq;
  }

  /// One poll of every replica's summary; retires the pending writes all of
  /// them cover. Returns the number retired.
  std::size_t poll(std::vector<double>* visibility_ms) {
    std::vector<SummaryVector> summaries;
    for (NodeId n = 0; n < kReplicas; ++n) {
      if (!cluster_.alive(n)) continue;
      Scope s(tracer_, "core.summary_call", n);
      summaries.push_back(cluster_.server(n).summary());
      ++poll_calls_;
    }
    const std::int64_t seen = now_ns();
    std::size_t retired = 0;
    while (!pending_.empty()) {
      const UpdateId id{kWriter, pending_.front().seq};
      const bool everywhere =
          std::all_of(summaries.begin(), summaries.end(),
                      [&](const SummaryVector& s) { return s.contains(id); });
      if (!everywhere) break;
      if (visibility_ms != nullptr) {
        visibility_ms->push_back(
            static_cast<double>(seen - pending_.front().due) / 1e6);
      }
      pending_.pop_front();
      ++retired;
    }
    return retired;
  }

  /// Reads a random written key at replica `n`; any value it returns must
  /// be the one written. Reads run only while every key has been written
  /// once (the paced phase), so that value is the only one it may hold.
  void read(NodeId n) {
    if (keys_.empty()) return;
    const std::string& key = keys_[read_rng_.index(keys_.size())];
    const std::int64_t t0 = now_ns();
    std::optional<std::string> got;
    {
      Scope s(tracer_, "net.read_call", n);
      got = cluster_.server(n).read(key);
    }
    read_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (got.has_value() && *got != values_.at(key)) {
      result_.require("replica " + std::to_string(n) + " read '" + *got +
                      "' for " + key);
    }
  }

  /// Polls until nothing is pending or the timeout passes.
  bool drain(double timeout_s) {
    const std::int64_t end = now_ns() + to_ns(timeout_s);
    while (!pending_.empty() && now_ns() < end) {
      poll(nullptr);
      sleep_until_ns(now_ns() + poll_gap());
    }
    return pending_.empty();
  }

  std::size_t pending() const { return pending_.size(); }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t poll_calls() const { return poll_calls_; }
  const std::map<std::string, std::string>& values() const { return values_; }
  std::vector<double>& read_us() { return read_us_; }
  /// Gap to the next Poisson read at a replica with demand `demand`.
  std::int64_t read_gap(double demand) {
    return to_ns(read_rng_.exponential(1.0 / (kReadsPerDemand * demand)));
  }
  std::int64_t poll_gap() {
    return static_cast<std::int64_t>(static_cast<double>(kPollInterval) *
                                     poll_rng_.uniform(0.5, 1.5));
  }

 private:
  std::string random_hex(std::size_t length) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string v(length, '0');
    for (char& c : v) c = kHex[value_rng_.index(16)];
    return v;
  }

  struct Pending {
    std::uint64_t seq;
    std::int64_t due;
  };
  LocalCluster& cluster_;
  Tracer& tracer_;
  // Separate streams, so write values do not depend on how many reads or
  // polls the timing allowed.
  Rng value_rng_;
  Rng read_rng_;
  Rng poll_rng_;
  Result& result_;
  std::uint64_t writes_ = 0;
  std::vector<std::string> keys_;  // distinct keys, in first-write order
  std::map<std::string, std::string> values_;
  std::deque<Pending> pending_;
  std::vector<double> read_us_;
  std::uint64_t poll_calls_ = 0;
};

/// The set-up: topology and demand through their modules, cluster start,
/// and the first write converged everywhere.
struct Mesh {
  ClusterConfig config;
  Graph graph;
};

Mesh make_mesh(std::uint64_t seed, const std::string& dir, Tracer& tracer) {
  Mesh mesh;
  Rng rng(seed);
  {
    Scope s(tracer, "topology.build", 0);
    mesh.graph = make_line(kReplicas, LatencyRange{}, rng);
  }
  {
    Scope s(tracer, "demand.build", 0);
    mesh.config.demands = demand_snapshot(StaticDemand(kDemands), 0.0);
  }
  mesh.config.protocol = ProtocolConfig::fast();
  mesh.config.seconds_per_unit = kSecondsPerUnit;
  mesh.config.seed = rng.next_u64();
  mesh.config.durability_dir = dir;
  mesh.config.fsync = FsyncPolicy::none;
  mesh.config.checkpoint_every = kCheckpointEvery;
  return mesh;
}

/// Waits until every replica's outbound links are connected, then for
/// kReadyAdvertRounds advert periods, so every replica has heard its
/// neighbours' demands and the first write takes the fast-push path. Without
/// this wait the first write is issued before any advert and rides a
/// randomly timed anti-entropy session, which made the set-up time vary
/// from 10 to 70 ms.
bool wait_until_ready(LocalCluster& cluster, double timeout_s) {
  const std::int64_t end = now_ns() + to_ns(timeout_s);
  for (;;) {
    bool connected = true;
    for (NodeId n = 0; n < cluster.size(); ++n) {
      for (const PeerNetStats& peer : cluster.server(n).net_stats().peers) {
        connected = connected && peer.connected;
      }
    }
    if (connected) break;
    if (now_ns() >= end) return false;
    sleep_until_ns(now_ns() + kPollInterval);
  }
  const double advert_s =
      ProtocolConfig::fast().advert_period * kSecondsPerUnit;
  sleep_until_ns(now_ns() + to_ns(kReadyAdvertRounds * advert_s));
  return true;
}

void final_checks(Result& result, LocalCluster& cluster, const Generator& gen) {
  std::vector<std::map<std::string, std::optional<std::string>>> values(kReplicas);
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> digests;
  std::uint64_t codec_errors = 0;
  for (NodeId n = 0; n < kReplicas; ++n) {
    ReplicaServer& server = cluster.server(n);
    for (const auto& entry : gen.values()) {
      values[n].emplace(entry.first, server.read(entry.first));
    }
    counts.push_back(server.summary().total());
    digests.push_back(server.kv_digest());
    codec_errors += server.net_stats().codec_errors;
  }
  result.require(check_values(gen.values(), values));
  result.require(check_update_counts(counts, gen.writes()));
  result.require(check_digests(digests));
  result.require(check_codec_errors(codec_errors));
}

}  // namespace

Result run_live(const Args& args) {
  Result result;
  Tracer tracer(args.trace);
  ScratchDir scratch(std::filesystem::path(args.workdir) /
                     ("live-" + std::to_string(::getpid())));
  Mesh mesh = make_mesh(mix_seed(args.seed, 1), scratch.path().string(), tracer);
  LocalCluster cluster(mesh.graph, mesh.config);
  cluster.start();
  Generator gen(cluster, tracer, mix_seed(args.seed, 2), result);
  if (!wait_until_ready(cluster, kConvergeTimeoutS)) {
    result.require("mesh links never connected");
    return result;
  }
  gen.write(now_ns());
  if (!gen.drain(kConvergeTimeoutS)) {
    result.require("first write never became visible everywhere");
    return result;
  }
  const double setup_s =
      static_cast<double>(now_ns() - process_start_ns()) / 1e9;

  // --- Phase 1: paced open loop.
  const std::int64_t paced_start = now_ns();
  const std::int64_t paced_end = paced_start + to_ns(args.seconds * kPacedShare);
  const std::int64_t write_period = to_ns(1.0 / kPacedWritesPerSec);
  std::vector<double> visibility_ms;
  std::vector<double> late_ms;
  std::int64_t next_write = paced_start;
  std::int64_t next_poll = paced_start;
  std::vector<std::int64_t> next_read(kReplicas);
  for (NodeId n = 0; n < kReplicas; ++n) {
    next_read[n] = paced_start + gen.read_gap(kDemands[n]);
  }
  gen.read_us().clear();
  // The replicas' CPU: the process's minus this (the generator) thread's.
  const auto replica_cpu_ns = [] { return process_cpu_ns() - thread_cpu_ns(); };
  const auto paced_writes = static_cast<std::uint64_t>(
      args.seconds * kPacedShare * kPacedWritesPerSec);
  const std::uint64_t window_writes = std::max<std::uint64_t>(1, paced_writes / kCpuWindows);
  std::vector<double> window_cpu_us;
  std::int64_t window_cpu0 = replica_cpu_ns();
  std::uint64_t in_window = 0;
  while (next_write < paced_end) {
    const std::int64_t now = now_ns();
    if (now >= next_write) {
      gen.write(next_write);
      late_ms.push_back(static_cast<double>(now - next_write) / 1e6);
      next_write += write_period;
      if (++in_window == window_writes) {
        const std::int64_t cpu = replica_cpu_ns();
        window_cpu_us.push_back(static_cast<double>(cpu - window_cpu0) / 1e3 /
                                static_cast<double>(in_window));
        window_cpu0 = cpu;
        in_window = 0;
      }
      continue;
    }
    for (NodeId n = 0; n < kReplicas; ++n) {
      if (now >= next_read[n]) {
        gen.read(n);
        next_read[n] += gen.read_gap(kDemands[n]);
      }
    }
    if (gen.pending() > 0 && now >= next_poll) {
      gen.poll(&visibility_ms);
      next_poll = now_ns() + gen.poll_gap();
    }
    std::int64_t wake = std::min(next_write, *std::min_element(
                                                 next_read.begin(), next_read.end()));
    if (gen.pending() > 0) wake = std::min(wake, next_poll);
    sleep_until_ns(wake);
  }
  while (gen.pending() > 0 && now_ns() < paced_end + to_ns(kConvergeTimeoutS)) {
    gen.poll(&visibility_ms);
    sleep_until_ns(now_ns() + gen.poll_gap());
  }
  std::vector<double> read_us = std::move(gen.read_us());
  if (gen.pending() > 0) result.require("paced writes never became visible");

  // --- Phase 2: capacity, in kCapacityBursts closed-loop bursts with at
  // most kWindow writes outstanding. Writes overwrite keys of phase 1, so
  // the key set, and with it the cost of a write, stays the same through
  // the phase (new keys land mid-way in the replicas' sorted key vectors,
  // whose insert cost grows with the key count; phase 1 already writes
  // every key once). A fixed write count (not a fixed time) keeps the log
  // size and the checkpoint work the same in every run of one length.
  const auto capacity_writes =
      static_cast<std::uint64_t>(args.seconds * kCapacityWritesPerRunSecond);
  std::vector<double> burst_rates;
  std::vector<double> burst_cpu_us;
  for (std::size_t burst = 0; burst < kCapacityBursts; ++burst) {
    const std::uint64_t burst_writes = capacity_writes / kCapacityBursts;
    const std::uint64_t target = gen.writes() + burst_writes;
    const std::int64_t burst_cpu0 = replica_cpu_ns();
    const std::int64_t burst_start = now_ns();
    const std::int64_t burst_deadline = burst_start + to_ns(kConvergeTimeoutS);
    while ((gen.writes() < target || gen.pending() > 0) &&
           now_ns() < burst_deadline) {
      while (gen.pending() < kWindow && gen.writes() < target) {
        gen.write(now_ns(), /*overwrite=*/true);
      }
      sleep_until_ns(now_ns() + gen.poll_gap());
      gen.poll(nullptr);
    }
    burst_rates.push_back(static_cast<double>(burst_writes) /
                          (static_cast<double>(now_ns() - burst_start) / 1e9));
    burst_cpu_us.push_back(static_cast<double>(replica_cpu_ns() - burst_cpu0) / 1e3 /
                           static_cast<double>(burst_writes));
    sleep_until_ns(now_ns() + to_ns(args.seconds * kBurstGapShare));
  }
  if (gen.pending() > 0) result.require("capacity writes never converged");

  // --- Phase 3: kill the middle replica, keep writing, recover it.
  const std::uint64_t visible_before_kill = gen.writes();
  cluster.kill(kVictim);
  for (std::size_t i = 0; i < kWritesWhileDown; ++i) {
    gen.write(now_ns());
    sleep_until_ns(now_ns() + write_period);
  }
  const std::int64_t r0 = now_ns();
  {
    Scope s(tracer, "durability.restart", kVictim);
    cluster.restart(kVictim, RestartMode::recover);
  }
  const std::int64_t r1 = now_ns();
  const RecoveryInfo recovery = cluster.server(kVictim).recovery_info();
  result.require(check_recovered(cluster.server(kVictim).summary(), kWriter,
                                 visible_before_kill));
  const UpdateId last{kWriter, gen.writes()};
  while (!cluster.server(kVictim).summary().contains(last) &&
         now_ns() < r1 + to_ns(kConvergeTimeoutS)) {
    sleep_until_ns(now_ns() + gen.poll_gap());
  }
  const std::int64_t caught_up = now_ns();
  if (!gen.drain(kConvergeTimeoutS)) result.require("writes never converged after recovery");
  final_checks(result, cluster, gen);

  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t applied = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t sessions = 0;
  TrafficCounters traffic;
  for (NodeId n = 0; n < kReplicas; ++n) {
    const NetStats ns = cluster.server(n).net_stats();
    frames += ns.frames_sent;
    bytes += ns.bytes_sent;
    const EngineStats es = cluster.server(n).stats();
    applied += es.updates_applied;
    duplicates += es.duplicate_updates;
    sessions += es.sessions_completed;
    traffic.merge(cluster.server(n).traffic());
  }
  const double run_s = static_cast<double>(now_ns() - paced_start) / 1e9;
  const auto writes = static_cast<double>(gen.writes());
  cluster.stop();
  const std::uint64_t state_bytes = scratch.bytes();

  std::vector<double>& vis = visibility_ms;
  result.e2e("visible_writes_per_s", quantile(burst_rates, 0.5),
             "writes/s");
  result.e2e("visibility_p50_ms", quantile(vis, 0.5), "ms");
  result.e2e("setup_s", setup_s, "s");
  result.e2e("visibility_p99_ms", quantile(vis, 0.99), "ms");
  result.e2e("visibility_samples", static_cast<double>(vis.size()), "count");
  result.e2e("read_p50_us", quantile(read_us, 0.5), "us");
  result.e2e("read_p99_us", quantile(read_us, 0.99), "us");
  result.e2e("read_samples", static_cast<double>(read_us.size()), "count");

  if (tracer.enabled()) {
    result.layer("net.write_call_p50_us", tracer.quantile_us("net.write_call", 0.5), "us");
    result.layer("net.write_call_p99_us", tracer.quantile_us("net.write_call", 0.99), "us");
    result.layer("core.summary_call_p50_us",
                 tracer.quantile_us("core.summary_call", 0.5), "us");
    result.layer("core.summary_call_p99_us",
                 tracer.quantile_us("core.summary_call", 0.99), "us");
    result.layer("topology.build_us", tracer.quantile_us("topology.build", 0.5), "us");
    result.layer("demand.build_us", tracer.quantile_us("demand.build", 0.5), "us");
  }
  result.layer("net.capacity_writes_per_s", quantile(burst_rates, 0.5), "1/s");
  // The least-CPU burst and paced window: host noise only ever adds CPU time.
  result.layer("net.replica_cpu_us_per_write",
               *std::min_element(burst_cpu_us.begin(), burst_cpu_us.end()), "us");
  result.layer("net.replica_cpu_us_per_write_paced",
               *std::min_element(window_cpu_us.begin(), window_cpu_us.end()), "us");
  result.layer("net.visibility_p99_ms", quantile(vis, 0.99), "ms");
  result.layer("net.read_call_p50_us", quantile(read_us, 0.5), "us");
  result.layer("net.read_call_p99_us", quantile(read_us, 0.99), "us");
  result.layer("net.frames_per_write", static_cast<double>(frames) / writes, "count");
  result.layer("net.bytes_per_write", static_cast<double>(bytes) / writes, "B");
  report_traffic(result, traffic, writes);
  result.layer("core.duplicates_per_op", static_cast<double>(duplicates) / writes,
               "count");
  result.layer("core.duplicate_ratio",
               static_cast<double>(duplicates) /
                   static_cast<double>(duplicates + applied),
               "ratio");
  result.layer("core.session_payload_bytes_per_delivery",
               static_cast<double>(traffic.bytes(TrafficClass::session_payload)) /
                   static_cast<double>(applied),
               "B");
  result.layer("core.sessions_per_s", static_cast<double>(sessions) / run_s, "1/s");
  result.layer("replication.deliveries", static_cast<double>(applied), "count");
  result.layer("durability.state_bytes_per_write",
               static_cast<double>(state_bytes) / writes, "B");
  result.layer("durability.restart_ms", static_cast<double>(r1 - r0) / 1e6, "ms");
  result.layer("durability.recover_load_ms", recovery.load_ms, "ms");
  result.layer("durability.restored_updates",
               static_cast<double>(recovery.restored_updates), "count");
  result.layer("net.catchup_ms", static_cast<double>(caught_up - r1) / 1e6, "ms");
  result.layer("bench.late_p99_ms", quantile(late_ms, 0.99), "ms");
  result.layer("bench.poll_calls", static_cast<double>(gen.poll_calls()), "count");
  result.layer("bench.spans", static_cast<double>(tracer.size()), "count");
  if (tracer.enabled()) tracer.dump(args.workdir + "/spans-live-mesh.csv");
  return result;
}

}  // namespace perfbench
