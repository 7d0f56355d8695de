#include "net/soak.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/cluster.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxViolations = 50;

/// Shared transport-fault switchboard behind ClusterConfig::outbound_fault.
/// Runs on every server's loop thread, hence the mutex; the nemesis flips
/// the knobs from the soak thread.
struct FaultState {
  std::mutex mutex;
  Rng rng;
  double drop_probability = 0.0;
  /// Partition side per node; empty = no partition.
  std::vector<std::uint8_t> side;

  explicit FaultState(std::uint64_t seed) : rng(seed) {}

  bool drop(NodeId from, NodeId to) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!side.empty() && side[from] != side[to]) return true;
    return drop_probability > 0.0 &&
           rng.uniform(0.0, 1.0) < drop_probability;
  }
};

/// One issued-but-not-yet-confirmed client write.
struct PendingWrite {
  NodeId origin = 0;
  std::string key;
  std::string value;
};

/// A write observed readable at its origin — from then on it must never be
/// lost (recover-mode restarts included).
struct ConfirmedWrite {
  NodeId origin = 0;
  std::string key;
  std::string value;
};

void add_violation(SoakReport& report, std::string what, bool verbose) {
  if (verbose) std::fprintf(stderr, "soak: VIOLATION %s\n", what.c_str());
  if (report.violations.size() < kMaxViolations) {
    report.violations.push_back(std::move(what));
  } else if (report.violations.size() == kMaxViolations) {
    report.violations.push_back("... further violations suppressed");
  }
}

}  // namespace

SoakReport run_soak(const SoakConfig& config) {
  if (config.nodes < 3) throw ConfigError("soak needs at least 3 nodes");
  if (config.data_dir.empty()) {
    throw ConfigError("soak needs a data_dir (durable restarts are part of "
                      "the invariants)");
  }
  if (config.max_dead + 1 > config.nodes) {
    throw ConfigError("max_dead must leave at least one node alive");
  }

  Rng rng(config.seed);
  const Graph topology =
      make_ring(config.nodes, LatencyRange{0.01, 0.05}, rng);
  auto faults = std::make_shared<FaultState>(config.seed ^ 0xFA17CA05ull);

  ClusterConfig cluster_config;
  cluster_config.protocol = ProtocolConfig::fast();
  cluster_config.protocol.advert_period = 0.25;
  cluster_config.protocol.health.enabled = true;
  cluster_config.seconds_per_unit = config.seconds_per_unit;
  cluster_config.seed = config.seed;
  cluster_config.durability_dir = config.data_dir;
  cluster_config.outbound_fault = [faults](NodeId from, NodeId to) {
    return faults->drop(from, to);
  };

  LocalCluster cluster(topology, cluster_config);
  cluster.start();

  SoakReport report;
  std::vector<std::uint64_t> issued_per_origin(config.nodes, 0);
  std::vector<std::optional<SummaryVector>> baseline(config.nodes);
  std::vector<bool> dead(config.nodes, false);
  std::vector<bool> ever_killed(config.nodes, false);
  std::deque<PendingWrite> pending;
  std::vector<ConfirmedWrite> confirmed;
  bool drop_window = false;
  std::size_t dead_count = 0;

  const auto start = Clock::now();
  const auto nemesis_end =
      start + std::chrono::duration<double>(config.duration_seconds);
  auto next_write = start;
  auto next_nemesis =
      start + std::chrono::duration<double>(config.nemesis_period_seconds);
  auto next_check = start;
  const auto write_gap = std::chrono::duration<double>(
      config.write_rate > 0.0 ? 1.0 / config.write_rate : 1e9);
  const auto check_gap = std::chrono::duration<double>(
      std::clamp(config.seconds_per_unit, 0.005, 0.05));

  auto live_node = [&]() -> std::optional<NodeId> {
    std::vector<NodeId> live;
    for (NodeId n = 0; n < config.nodes; ++n) {
      if (!dead[n]) live.push_back(n);
    }
    if (live.empty()) return std::nullopt;
    return rng.pick(live);
  };

  auto nemesis_step = [&] {
    const std::size_t action = rng.index(10);
    if (action < 3) {  // kill
      if (dead_count >= config.max_dead) return;
      if (const auto victim = live_node()) {
        if (config.verbose) {
          std::fprintf(stderr, "soak: kill %u\n", *victim);
        }
        cluster.kill(*victim);
        dead[*victim] = true;
        ever_killed[*victim] = true;
        baseline[*victim].reset();
        ++dead_count;
        ++report.kills;
      }
    } else if (action < 6) {  // restart one dead node, recovering its disk
      for (NodeId n = 0; n < config.nodes; ++n) {
        if (!dead[n]) continue;
        if (config.verbose) std::fprintf(stderr, "soak: restart %u\n", n);
        cluster.restart(n, RestartMode::recover);
        dead[n] = false;
        --dead_count;
        ++report.restarts;
        break;
      }
    } else if (action < 8) {  // toggle a partition
      std::lock_guard<std::mutex> lock(faults->mutex);
      if (faults->side.empty()) {
        faults->side.assign(config.nodes, 0);
        // Random bisection with both sides non-empty.
        NodeId lonely = static_cast<NodeId>(rng.index(config.nodes));
        for (NodeId n = 0; n < config.nodes; ++n) {
          faults->side[n] =
              static_cast<std::uint8_t>(n == lonely ? 1 : rng.index(2));
        }
        ++report.partitions;
        if (config.verbose) std::fprintf(stderr, "soak: partition\n");
      } else {
        faults->side.clear();
        ++report.heals;
        if (config.verbose) std::fprintf(stderr, "soak: heal\n");
      }
    } else {  // toggle a frame-drop window
      std::lock_guard<std::mutex> lock(faults->mutex);
      drop_window = !drop_window;
      faults->drop_probability = drop_window ? config.drop_probability : 0.0;
      if (drop_window) ++report.drop_windows;
      if (config.verbose) {
        std::fprintf(stderr, "soak: drop window %s\n",
                     drop_window ? "on" : "off");
      }
    }
  };

  auto check_invariants = [&] {
    ++report.checks;
    for (NodeId n = 0; n < config.nodes; ++n) {
      if (dead[n]) continue;
      const SummaryVector summary = cluster.server(n).summary();
      // No forged write ids: nothing beyond what this harness issued.
      for (const auto& [origin, mark] : summary.watermarks()) {
        if (origin >= config.nodes || mark > issued_per_origin[origin]) {
          add_violation(report,
                        "forged id: node " + std::to_string(n) +
                            " covers origin " + std::to_string(origin) +
                            " seq " + std::to_string(mark) + " > issued " +
                            std::to_string(origin < config.nodes
                                               ? issued_per_origin[origin]
                                               : 0),
                        config.verbose);
        }
      }
      for (const UpdateId& id : summary.extras()) {
        if (id.origin >= config.nodes ||
            id.seq > issued_per_origin[id.origin]) {
          add_violation(report,
                        "forged id: node " + std::to_string(n) +
                            " extra (" + std::to_string(id.origin) + "," +
                            std::to_string(id.seq) + ") beyond issued",
                        config.verbose);
        }
      }
      // Monotonicity: a server's summary must cover its previous snapshot
      // (baseline reset across kill/restart — recovery replays the WAL,
      // not the in-flight tail).
      if (baseline[n].has_value() && !summary.covers(*baseline[n])) {
        add_violation(report,
                      "summary regression at node " + std::to_string(n),
                      config.verbose);
      }
      baseline[n] = summary;
    }
    // Confirm pending writes at their origin; a killed origin voids the
    // pending entry (the write may have died in the command queue — only
    // CONFIRMED writes are owed durability).
    std::size_t probes = std::min<std::size_t>(pending.size(), 64);
    while (probes-- > 0) {
      PendingWrite w = std::move(pending.front());
      pending.pop_front();
      if (dead[w.origin]) continue;
      const auto got = cluster.server(w.origin).read(w.key);
      if (got.has_value() && *got == w.value) {
        ++report.writes_confirmed;
        confirmed.push_back({w.origin, std::move(w.key), std::move(w.value)});
      } else {
        pending.push_back(std::move(w));  // not applied yet; retry later
      }
    }
    // Spot-check one confirmed write per sweep: once confirmed, a write
    // must survive everything the nemesis does to its origin.
    if (!confirmed.empty()) {
      const ConfirmedWrite& w = confirmed[rng.index(confirmed.size())];
      if (!dead[w.origin]) {
        const auto got = cluster.server(w.origin).read(w.key);
        if (!got.has_value() || *got != w.value) {
          add_violation(report,
                        "confirmed write lost at origin " +
                            std::to_string(w.origin) + ": " + w.key,
                        config.verbose);
        }
      }
    }
  };

  // ---- nemesis window -------------------------------------------------
  while (Clock::now() < nemesis_end) {
    const auto now = Clock::now();
    if (config.write_rate > 0.0 && now >= next_write) {
      if (const auto origin = live_node()) {
        const std::uint64_t i = report.writes_issued++;
        ++issued_per_origin[*origin];
        std::string key =
            "soak/" + std::to_string(*origin) + "/" + std::to_string(i);
        std::string value = "v" + std::to_string(i);
        cluster.server(*origin).write(key, value);
        pending.push_back({*origin, std::move(key), std::move(value)});
      }
      next_write += std::chrono::duration_cast<Clock::duration>(write_gap);
      if (next_write < now) next_write = now;  // don't burst after stalls
    }
    if (now >= next_nemesis) {
      nemesis_step();
      next_nemesis += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(
              rng.uniform(0.5, 1.5) * config.nemesis_period_seconds));
    }
    if (now >= next_check) {
      check_invariants();
      next_check += std::chrono::duration_cast<Clock::duration>(check_gap);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // ---- quiesce: stop hurting the cluster, then demand full recovery ---
  {
    std::lock_guard<std::mutex> lock(faults->mutex);
    faults->side.clear();
    faults->drop_probability = 0.0;
  }
  for (NodeId n = 0; n < config.nodes; ++n) {
    if (!dead[n]) continue;
    cluster.restart(n, RestartMode::recover);
    dead[n] = false;
    --dead_count;
    ++report.restarts;
  }
  for (NodeId n = 0; n < config.nodes; ++n) {
    if (ever_killed[n]) ++report.nodes_ever_killed;
  }

  // Health-layer introspection instead of fixed sleeps: every peer a
  // restart brought back must be re-promoted to up before the deadline.
  report.all_peers_up =
      cluster.wait_for_peer_health(config.quiesce_timeout_seconds);
  if (!report.all_peers_up) {
    add_violation(report, "quiesce: peers still suspect/down after " +
                              std::to_string(config.quiesce_timeout_seconds) +
                              "s",
                  config.verbose);
  }

  report.converged = cluster.wait_for_convergence(
      config.quiesce_timeout_seconds,
      std::max<std::uint64_t>(report.writes_confirmed, 1));
  if (!report.converged) {
    add_violation(report, "quiesce: summaries did not converge",
                  config.verbose);
  }

  // Final sweep with everyone alive, then digest agreement.
  check_invariants();
  std::optional<std::uint64_t> digest;
  report.digests_agree = true;
  for (NodeId n = 0; n < config.nodes; ++n) {
    const std::uint64_t d = cluster.server(n).kv_digest();
    if (!digest.has_value()) {
      digest = d;
    } else if (d != *digest) {
      report.digests_agree = false;
      add_violation(report,
                    "kv digest mismatch at node " + std::to_string(n),
                    config.verbose);
    }
  }

  // Every confirmed write must read back everywhere (bounded spot-check:
  // digests above already pin full-state agreement).
  std::size_t checked = 0;
  for (const ConfirmedWrite& w : confirmed) {
    if (checked >= 256) break;
    ++checked;
    for (NodeId n = 0; n < config.nodes; ++n) {
      const auto got = cluster.server(n).read(w.key);
      if (!got.has_value() || *got != w.value) {
        add_violation(report, "confirmed write " + w.key +
                                  " unreadable at node " + std::to_string(n),
                      config.verbose);
      }
    }
  }

  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  cluster.stop();
  return report;
}

}  // namespace fastcons
