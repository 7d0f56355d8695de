#include "experiment/workload.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "sim_runtime/trace.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

WorkloadConfig small_workload() {
  WorkloadConfig w;
  w.keys = 3;
  w.write_interval = 2.0;
  w.duration = 30.0;
  w.warmup = 4.0;
  w.seed = 11;
  return w;
}

std::shared_ptr<const DemandModel> uniform_demand(std::size_t n,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<StaticDemand>(
      make_uniform_random_demand(n, 5.0, 50.0, rng));
}

TEST(WorkloadTest, ValidatesConfig) {
  Rng rng(1);
  const Graph g = make_ring(5, {0.01, 0.02}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  WorkloadConfig bad = small_workload();
  bad.keys = 0;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad),
               ConfigError);
  bad = small_workload();
  bad.write_interval = 0.0;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad),
               ConfigError);
  bad = small_workload();
  bad.warmup = bad.duration;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad),
               ConfigError);
}

TEST(WorkloadTest, ProducesReadsAndWrites) {
  Rng rng(2);
  Graph g = make_barabasi_albert(12, 2, {0.01, 0.05}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 3;
  const WorkloadResult result =
      run_workload(std::move(g), uniform_demand(12, 4), sim, small_workload());
  EXPECT_GT(result.writes, 5u);
  // ~12 nodes * ~27 demand * 26 effective units of reads ≈ thousands.
  EXPECT_GT(result.reads, 1000u);
  EXPECT_GT(result.fresh_reads, 0u);
  EXPECT_LE(result.fresh_reads, result.reads);
  EXPECT_GE(result.fresh_fraction(), 0.0);
  EXPECT_LE(result.fresh_fraction(), 1.0);
}

TEST(WorkloadTest, DeterministicForSameSeeds) {
  const auto run = [] {
    Rng rng(5);
    Graph g = make_ring(8, {0.01, 0.02}, rng);
    SimConfig sim;
    sim.protocol = ProtocolConfig::fast();
    sim.seed = 6;
    return run_workload(std::move(g), uniform_demand(8, 7), sim,
                        small_workload());
  };
  const WorkloadResult a = run();
  const WorkloadResult b = run();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.fresh_reads, b.fresh_reads);
  EXPECT_EQ(a.writes, b.writes);
}

TEST(WorkloadTest, FastServesFresherThanWeak) {
  // The paper's bottom line from the client's point of view: under the same
  // workload, fast consistency serves a larger fraction of reads with the
  // newest content.
  const auto run = [](ProtocolConfig protocol) {
    Rng rng(8);
    Graph g = make_barabasi_albert(25, 2, {0.01, 0.05}, rng);
    SimConfig sim;
    sim.protocol = protocol;
    sim.seed = 9;
    WorkloadConfig w = small_workload();
    w.duration = 60.0;
    w.write_interval = 1.5;
    w.seed = 10;
    return run_workload(std::move(g), uniform_demand(25, 11), sim, w);
  };
  const WorkloadResult weak = run(ProtocolConfig::weak());
  const WorkloadResult fast = run(ProtocolConfig::fast());
  EXPECT_GT(fast.fresh_fraction(), weak.fresh_fraction());
  // Stale reads that do happen are also younger under fast consistency.
  EXPECT_LT(fast.stale_age.mean(), weak.stale_age.mean());
}

TEST(WorkloadTest, NoWritesMeansAllReadsFresh) {
  Rng rng(12);
  Graph g = make_ring(6, {0.01, 0.02}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  WorkloadConfig w = small_workload();
  w.write_interval = 1e9;  // effectively never writes
  const WorkloadResult result =
      run_workload(std::move(g), uniform_demand(6, 13), sim, w);
  EXPECT_EQ(result.writes, 0u);
  EXPECT_EQ(result.fresh_reads, result.reads);
  EXPECT_DOUBLE_EQ(result.fresh_fraction(), 1.0);
}

TEST(WorkloadTest, ZeroDemandNodesIssueNoReads) {
  Rng rng(14);
  Graph g = make_line(4, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(std::vector<double>{0, 0, 0, 0});
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  const WorkloadResult result =
      run_workload(std::move(g), demand, sim, small_workload());
  EXPECT_EQ(result.reads, 0u);
}

TEST(WorkloadTest, ShortRunLeavesNoReadTickInPooledNetwork) {
  // First read ticks are drawn in [0, 1); with a shorter run those past the
  // end must not stay queued, or running the pooled network afterwards
  // would call closures owned by the finished run (caught by ASan).
  Rng rng(23);
  Graph g = make_barabasi_albert(40, 2, {0.01, 0.05}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 24;
  WorkloadConfig w = small_workload();
  w.duration = 0.5;
  w.warmup = 0.1;
  w.write_interval = 0.05;
  SimNetworkPool pool;
  const WorkloadResult result =
      run_workload(std::move(g), uniform_demand(40, 25), sim, w, pool);
  EXPECT_GT(result.writes, 0u);
  ASSERT_NE(pool.get(), nullptr);
  EXPECT_TRUE(pool.get()->run_until_consistent(60.0));
}

// ---------------------------------------------------------------------------

TEST(TraceTest, RecordsEveryDeliveryOnce) {
  Rng rng(15);
  Graph g = make_ring(6, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(
      make_uniform_random_demand(6, 0.0, 50.0, rng));
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 16;
  SimNetwork net(std::move(g), demand, sim);
  TraceRecorder trace(net);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  ASSERT_TRUE(net.run_until_update_everywhere(id, 40.0));
  const auto events = trace.for_update(id);
  EXPECT_EQ(events.size(), 6u);
  // First event is the local write at the origin.
  EXPECT_EQ(events.front().node, 0u);
  EXPECT_EQ(events.front().path, DeliveryPath::local_write);
  // Timestamps are non-decreasing (delivery order).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].at, events[i - 1].at);
  }
  EXPECT_EQ(trace.count_path(DeliveryPath::local_write), 1u);
  EXPECT_EQ(trace.count_path(DeliveryPath::session) +
                trace.count_path(DeliveryPath::fast_push),
            5u);
}

TEST(TraceTest, DescribeMentionsEveryNode) {
  Rng rng(17);
  Graph g = make_line(3, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(std::vector<double>{1, 5, 9});
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 18;
  SimNetwork net(std::move(g), demand, sim);
  TraceRecorder trace(net);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  ASSERT_TRUE(net.run_until_update_everywhere(id, 30.0));
  const std::string description = trace.describe(id);
  EXPECT_NE(description.find("->"), std::string::npos);
  EXPECT_NE(description.find("local-write"), std::string::npos);
}

TEST(TraceTest, CsvHasHeaderAndRows) {
  Rng rng(19);
  Graph g = make_line(3, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(std::vector<double>{1, 2, 3});
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 20;
  SimNetwork net(std::move(g), demand, sim);
  TraceRecorder trace(net);
  const UpdateId id = net.schedule_write(1, "k", "v", 0.5);
  ASSERT_TRUE(net.run_until_update_everywhere(id, 30.0));
  std::ostringstream out;
  trace.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("at,node,origin,seq,path"), std::string::npos);
  EXPECT_GE(std::count(csv.begin(), csv.end(), '\n'), 4);
}

}  // namespace
}  // namespace fastcons
