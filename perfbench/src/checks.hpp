// Correctness checks the benchmark applies to the program's outputs. Each
// one compares an output against a value computed here, apart from the
// program, or against a property the method must have, and returns an empty
// string when the output passes or a description of the violation. They are
// pure functions so the negative cases (negative.cpp) can feed them
// deliberately wrong inputs.
#ifndef FASTCONS_PERFBENCH_CHECKS_HPP
#define FASTCONS_PERFBENCH_CHECKS_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "replication/summary_vector.hpp"
#include "replication/update.hpp"
#include "topology/graph.hpp"

namespace perfbench {

using fastcons::Graph;
using fastcons::NodeId;
using fastcons::SummaryVector;
using fastcons::Update;
using fastcons::UpdateId;

/// Shortest-path latency from `source` to every node (Dijkstra over the
/// graph's edge latencies).
std::vector<double> shortest_latency(const Graph& graph, NodeId source);

/// sim-fig5: every replica received the write (`first_delivery[n]` set for
/// every node) and none earlier than the writer-to-replica shortest-path
/// latency after `write_at`.
std::string check_propagation(const Graph& graph, NodeId writer,
                              double write_at,
                              const std::vector<std::optional<double>>& first_delivery);

/// sim-fig5: over all trials, fast's mean sessions-to-full is below weak's.
std::string check_fast_beats_weak(double fast_mean, double weak_mean);

/// sim-stream: every summary equals the first and covers exactly `writes`
/// ids.
std::string check_summaries(const std::vector<SummaryVector>& summaries,
                            std::uint64_t writes);

/// Last-writer-wins winner of every key, recomputed from the updates: the
/// value of the update with the highest (created_at, origin, seq).
std::map<std::string, std::string> lww_winners(const std::vector<Update>& updates);

/// Every replica's value of every key (`values[replica][key]`, nullopt when
/// the replica has none) equals `expected[key]`. Used for the simulated
/// stream (expected = LWW winners) and the live mesh (expected = the value
/// written).
std::string check_values(
    const std::map<std::string, std::string>& expected,
    const std::vector<std::map<std::string, std::optional<std::string>>>& values);

/// sim-stream: fresh reads are a subset of all reads.
std::string check_fresh_reads(std::uint64_t reads, std::uint64_t fresh_reads);

/// live-mesh: every replica holds exactly as many updates as writes issued.
std::string check_update_counts(const std::vector<std::uint64_t>& counts,
                                std::uint64_t writes_issued);

/// live-mesh: every replica's kv digest is equal.
std::string check_digests(const std::vector<std::uint64_t>& digests);

/// live-mesh: no connection was dropped on a malformed frame.
std::string check_codec_errors(std::uint64_t codec_errors);

/// live-mesh: the restarted replica's summary covers every write of
/// `writer` with seq 1..visible_before_kill.
std::string check_recovered(const SummaryVector& recovered, NodeId writer,
                            std::uint64_t visible_before_kill);

}  // namespace perfbench

#endif  // FASTCONS_PERFBENCH_CHECKS_HPP
