#include "checks.hpp"

#include <functional>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>

namespace perfbench {

std::vector<double> shortest_latency(const Graph& graph, NodeId source) {
  std::vector<double> dist(graph.size(), std::numeric_limits<double>::infinity());
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  dist[source] = 0.0;
  queue.emplace(0.0, source);
  while (!queue.empty()) {
    const auto [d, n] = queue.top();
    queue.pop();
    if (d > dist[n]) continue;
    for (const fastcons::Edge& e : graph.neighbours(n)) {
      const double through = d + e.latency;
      if (through < dist[e.peer]) {
        dist[e.peer] = through;
        queue.emplace(through, e.peer);
      }
    }
  }
  return dist;
}

std::string check_propagation(
    const Graph& graph, NodeId writer, double write_at,
    const std::vector<std::optional<double>>& first_delivery) {
  if (first_delivery.size() != graph.size()) {
    return "delivery record covers " + std::to_string(first_delivery.size()) +
           " of " + std::to_string(graph.size()) + " replicas";
  }
  const std::vector<double> dist = shortest_latency(graph, writer);
  for (NodeId n = 0; n < graph.size(); ++n) {
    if (!first_delivery[n].has_value()) {
      return "replica " + std::to_string(n) + " never received the write";
    }
    // Delivery times are sums of the same edge latencies, so only rounding
    // separates a shortest-path delivery from the bound.
    const double elapsed = *first_delivery[n] - write_at;
    if (elapsed < dist[n] - 1e-9) {
      return "replica " + std::to_string(n) + " received the write after " +
             std::to_string(elapsed) + " < shortest-path latency " +
             std::to_string(dist[n]);
    }
  }
  return {};
}

std::string check_fast_beats_weak(double fast_mean, double weak_mean) {
  if (fast_mean < weak_mean) return {};
  return "fast mean sessions-to-full " + std::to_string(fast_mean) +
         " is not below weak's " + std::to_string(weak_mean);
}

std::string check_summaries(const std::vector<SummaryVector>& summaries,
                            std::uint64_t writes) {
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    if (summaries[i].total() != writes) {
      return "replica " + std::to_string(i) + " summary holds " +
             std::to_string(summaries[i].total()) + " ids, expected " +
             std::to_string(writes);
    }
    if (!(summaries[i] == summaries[0])) {
      return "replica " + std::to_string(i) + " summary differs from replica 0";
    }
  }
  return {};
}

std::map<std::string, std::string> lww_winners(const std::vector<Update>& updates) {
  std::map<std::string, const Update*> best;
  for (const Update& u : updates) {
    const Update*& slot = best[u.key];
    if (slot == nullptr ||
        std::tuple(u.created_at, u.id.origin, u.id.seq) >
            std::tuple(slot->created_at, slot->id.origin, slot->id.seq)) {
      slot = &u;
    }
  }
  std::map<std::string, std::string> out;
  for (const auto& [key, u] : best) out.emplace(key, u->value);
  return out;
}

std::string check_values(
    const std::map<std::string, std::string>& expected,
    const std::vector<std::map<std::string, std::optional<std::string>>>& values) {
  for (std::size_t r = 0; r < values.size(); ++r) {
    for (const auto& [key, want] : expected) {
      const auto it = values[r].find(key);
      if (it == values[r].end() || !it->second.has_value()) {
        return "replica " + std::to_string(r) + " has no value for " + key;
      }
      if (*it->second != want) {
        return "replica " + std::to_string(r) + " holds '" + *it->second +
               "' for " + key + ", expected '" + want + "'";
      }
    }
  }
  return {};
}

std::string check_fresh_reads(std::uint64_t reads, std::uint64_t fresh_reads) {
  if (fresh_reads <= reads) return {};
  return std::to_string(fresh_reads) + " fresh reads exceed " +
         std::to_string(reads) + " reads";
}

std::string check_update_counts(const std::vector<std::uint64_t>& counts,
                                std::uint64_t writes_issued) {
  for (std::size_t r = 0; r < counts.size(); ++r) {
    if (counts[r] != writes_issued) {
      return "replica " + std::to_string(r) + " holds " +
             std::to_string(counts[r]) + " updates, " +
             std::to_string(writes_issued) + " writes were issued";
    }
  }
  return {};
}

std::string check_digests(const std::vector<std::uint64_t>& digests) {
  for (std::size_t r = 1; r < digests.size(); ++r) {
    if (digests[r] != digests[0]) {
      return "replica " + std::to_string(r) + " kv digest differs from replica 0";
    }
  }
  return {};
}

std::string check_codec_errors(std::uint64_t codec_errors) {
  if (codec_errors == 0) return {};
  return std::to_string(codec_errors) + " connections dropped on codec errors";
}

std::string check_recovered(const SummaryVector& recovered, NodeId writer,
                            std::uint64_t visible_before_kill) {
  const std::uint64_t mark = recovered.watermark(writer);
  if (mark >= visible_before_kill) return {};
  for (std::uint64_t seq = mark + 1; seq <= visible_before_kill; ++seq) {
    if (!recovered.contains(UpdateId{writer, seq})) {
      return "restarted replica lost write " + std::to_string(seq) + " of " +
             std::to_string(visible_before_kill) + " visible before the kill";
    }
  }
  return {};
}

}  // namespace perfbench
