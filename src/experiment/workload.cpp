#include "experiment/workload.hpp"

#include <algorithm>
#include <functional>

#include "common/assert.hpp"
#include "common/construction_cost.hpp"
#include "common/error.hpp"
#include "sim/timer_pool.hpp"

namespace fastcons {

WorkloadResult run_workload(Graph topology,
                            std::shared_ptr<const DemandModel> demand,
                            const SimConfig& sim_config,
                            const WorkloadConfig& workload) {
  SimNetworkPool pool;
  return run_workload(std::move(topology), std::move(demand), sim_config,
                      workload, pool);
}

WorkloadResult run_workload(Graph topology,
                            std::shared_ptr<const DemandModel> demand,
                            const SimConfig& sim_config,
                            const WorkloadConfig& workload,
                            SimNetworkPool& pool) {
  if (workload.keys == 0) throw ConfigError("workload needs >= 1 key");
  if (workload.write_interval <= 0.0) {
    throw ConfigError("write interval must be positive");
  }
  if (workload.duration <= workload.warmup) {
    throw ConfigError("duration must exceed warmup");
  }

  SimNetwork& net = [&]() -> SimNetwork& {
    ConstructionCost::Scope construction;
    return pool.acquire(std::move(topology), demand, sim_config);
  }();
  Rng rng(workload.seed);
  WorkloadResult result;

  // --- Write schedule: Poisson arrivals, round-robin keys, random origin.
  // History per key, ordered by time (generated in increasing order).
  std::vector<std::vector<std::pair<SimTime, UpdateId>>> history(workload.keys);
  SimTime write_at = rng.exponential(workload.write_interval);
  std::size_t write_index = 0;
  while (write_at < workload.duration) {
    const std::size_t key_index = write_index % workload.keys;
    const auto writer = static_cast<NodeId>(rng.index(net.size()));
    const std::string key = "key" + std::to_string(key_index);
    const UpdateId id = net.schedule_write(
        writer, key, "v" + std::to_string(write_index), write_at);
    history[key_index].emplace_back(write_at, id);
    ++write_index;
    write_at += rng.exponential(workload.write_interval);
  }
  result.writes = write_index;

  // --- Read processes: one self-rescheduling Poisson stream per replica.
  // The rate follows the (possibly time-varying) demand; gaps are drawn
  // with the demand at scheduling time, a standard piecewise approximation
  // that is exact for static models.
  const auto newest_before = [&history](std::size_t key_index, SimTime t)
      -> const std::pair<SimTime, UpdateId>* {
    const auto& writes = history[key_index];
    const auto it = std::upper_bound(
        writes.begin(), writes.end(), t,
        [](SimTime value, const auto& entry) { return value < entry.first; });
    if (it == writes.begin()) return nullptr;
    return &*(it - 1);
  };

  Simulator& sim = net.sim();
  std::vector<Rng> read_rngs;
  read_rngs.reserve(net.size());
  for (NodeId n = 0; n < net.size(); ++n) read_rngs.push_back(rng.split());

  // Owns the read-process closures for the whole run; see
  // sim/timer_pool.hpp for the ownership rules.
  TimerPool timers;
  for (NodeId n = 0; n < net.size(); ++n) {
    std::function<void()>* tick_ptr = timers.add();
    const auto reschedule = [&sim, tick_ptr, &read_rngs, &net, n,
                             &workload](SimTime now) {
      const double rate = net.demand_of(n);
      // Idle replicas poll their demand again after one time unit.
      const SimTime gap =
          rate <= 0.0 ? 1.0 : read_rngs[n].exponential(1.0 / rate);
      if (now + gap < workload.duration) {
        sim.schedule_in(gap, [tick_ptr] { (*tick_ptr)(); });
      }
    };
    *tick_ptr = [&, reschedule, n] {
      const SimTime now = sim.now();
      const double rate = net.demand_of(n);
      if (rate > 0.0 && now >= workload.warmup) {
        const std::size_t key_index = read_rngs[n].index(workload.keys);
        ++result.reads;
        const auto* newest = newest_before(key_index, now);
        if (newest == nullptr || net.engine(n).log().contains(newest->second)) {
          ++result.fresh_reads;
        } else {
          result.stale_age.add(now - newest->first);
        }
      }
      reschedule(now);
    };
    // The first tick is drawn even when it falls past the end, keeping the
    // RNG stream fixed; scheduling it would leave an event that outlives
    // `timers` in the (pooled) network's queue.
    const SimTime first = read_rngs[n].uniform(0.0, 1.0);
    if (first < workload.duration) {
      sim.schedule_at(first, [tick_ptr] { (*tick_ptr)(); });
    }
  }

  net.run_until(workload.duration);
  return result;
}

}  // namespace fastcons
