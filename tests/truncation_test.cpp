// Auto-truncation (Bayou-style, paper §7): logs stay bounded once every
// neighbour provably holds an update, and convergence is unaffected.
#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "sim_runtime/sim_network.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

ProtocolConfig truncating_config() {
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.auto_truncate = true;
  cfg.advert_period = 0.0;
  return cfg;
}

TEST(TruncationTest, NoTruncationBeforeEveryNeighbourKnown) {
  // B has two neighbours but has only ever exchanged summaries with one;
  // the frontier must stay empty (the other neighbour contributes bottom).
  ReplicaEngine b(1, {0, 2}, truncating_config(), 1);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  b.prime_neighbour_demand(2, 1.0, 0.0);
  b.local_write("k", "v", 0.0);
  // Teach B that node 0 has everything (a SessionPush carries the
  // initiator's summary; the responder records it as peer knowledge).
  b.handle(0, Message{SessionPush{(0ull << 32) | 9, b.summary(), {}}}, 0.1);
  b.on_session_timer(0.2);
  EXPECT_EQ(b.stats().payloads_truncated, 0u);
  EXPECT_EQ(b.log().size(), 1u);
}

TEST(TruncationTest, TruncationUnblocksOnceLastNeighbourReportsIn) {
  // Companion to the test above: the early-return holds exactly until the
  // last silent neighbour exchanges a summary, then the same timer call
  // truncates.
  ReplicaEngine b(1, {0, 2}, truncating_config(), 1);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  b.prime_neighbour_demand(2, 1.0, 0.0);
  b.local_write("k", "v", 0.0);
  b.handle(0, Message{SessionPush{(0ull << 32) | 9, b.summary(), {}}}, 0.1);
  b.on_session_timer(0.2);
  ASSERT_EQ(b.log().size(), 1u);  // still blocked: node 2 never reported
  b.handle(2, Message{SessionPush{(2ull << 32) | 9, b.summary(), {}}}, 0.3);
  b.on_session_timer(0.4);
  EXPECT_EQ(b.log().size(), 0u);
  EXPECT_EQ(b.stats().payloads_truncated, 1u);
}

TEST(TruncationTest, LateOverlayNeighbourReblocksTruncation) {
  // A bridge neighbour added after sessions began contributes bottom to the
  // frontier until it exchanges summaries, so truncation must stall again
  // even though every original neighbour is fully known.
  ReplicaEngine b(1, {0}, truncating_config(), 1);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  b.local_write("k", "v", 0.0);
  b.handle(0, Message{SessionPush{(0ull << 32) | 9, b.summary(), {}}}, 0.1);
  b.add_overlay_neighbour(7, 0.15);
  b.on_session_timer(0.2);
  EXPECT_EQ(b.stats().payloads_truncated, 0u);
  EXPECT_EQ(b.log().size(), 1u);
}

TEST(TruncationTest, PairTruncatesAfterMutualSessions) {
  // Two nodes in a line; after a completed session each knows the other's
  // summary, so both can discard the payload while keeping the summary.
  ProtocolConfig cfg = truncating_config();
  ReplicaEngine a(0, {1}, cfg, 1);
  ReplicaEngine b(1, {0}, cfg, 2);
  a.prime_neighbour_demand(1, 1.0, 0.0);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  a.local_write("k", "v", 0.0);
  // Manually route a full session a -> b.
  auto m1 = a.on_session_timer(0.1);
  ASSERT_EQ(m1.size(), 1u);
  auto m2 = b.handle(0, m1[0].msg, 0.1);
  auto m3 = a.handle(1, m2[0].msg, 0.1);
  auto m4 = b.handle(0, m3[0].msg, 0.1);
  a.handle(1, m4[0].msg, 0.1);
  EXPECT_EQ(b.log().size(), 1u);
  // Next session timers trigger the frontier computation on both sides.
  a.on_session_timer(1.1);
  b.on_session_timer(1.1);
  EXPECT_EQ(a.log().size(), 0u);
  EXPECT_EQ(b.log().size(), 0u);
  EXPECT_GE(a.stats().payloads_truncated, 1u);
  // The summary still covers the id: re-application stays suppressed.
  EXPECT_TRUE(a.summary().contains(UpdateId{0, 1}));
}

TEST(TruncationTest, NetworkConvergesAndLogsStayBounded) {
  // Ring with a steady write stream: with auto-truncation, retained
  // payloads stay far below the total number of updates ever applied.
  Rng rng(5);
  Graph g = make_ring(8, {0.01, 0.03}, rng);
  auto demand = std::make_shared<StaticDemand>(
      make_uniform_random_demand(8, 0.0, 100.0, rng));
  SimConfig cfg;
  cfg.protocol = truncating_config();
  cfg.seed = 9;
  SimNetwork net(std::move(g), demand, cfg);
  const std::size_t writes = 40;
  for (std::size_t w = 0; w < writes; ++w) {
    net.schedule_write(static_cast<NodeId>(w % 8), "k" + std::to_string(w),
                       "v", 0.5 + 0.5 * static_cast<double>(w));
  }
  net.run_until(0.5 * static_cast<double>(writes) + 2.0);
  ASSERT_TRUE(net.run_until_consistent(200.0));
  const EngineStats stats = net.total_stats();
  EXPECT_GT(stats.payloads_truncated, 0u);
  std::size_t retained = 0;
  for (NodeId n = 0; n < net.size(); ++n) {
    retained += net.engine(n).log().size();
    // Every engine still answers reads from materialised state.
    EXPECT_TRUE(net.engine(n).read("k0").has_value());
  }
  // 8 nodes x 40 updates = 320 total applications; truncation keeps far
  // fewer payloads around once everything is stable.
  EXPECT_LT(retained, writes * net.size() / 2);
}

TEST(TruncationTest, DisabledByDefault) {
  Rng rng(6);
  Graph g = make_line(3, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(std::vector<double>{1, 2, 3});
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();  // auto_truncate defaults to false
  cfg.seed = 10;
  SimNetwork net(std::move(g), demand, cfg);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  ASSERT_TRUE(net.run_until_update_everywhere(id, 30.0));
  net.run_until(10.0);
  EXPECT_EQ(net.total_stats().payloads_truncated, 0u);
  for (NodeId n = 0; n < net.size(); ++n) {
    EXPECT_EQ(net.engine(n).log().size(), 1u);
  }
}

TEST(TruncationTest, SessionAfterTruncationFallsBackToRetained) {
  // A new partner whose summary is empty sessions with a node that has
  // truncated: updates_for reports the truncated ids and the responder
  // sends what it retains — convergence of retained content still works.
  ProtocolConfig cfg = truncating_config();
  ReplicaEngine a(0, {1}, cfg, 1);
  a.prime_neighbour_demand(1, 1.0, 0.0);
  a.local_write("old", "1", 0.0);
  // Simulate: neighbour 1 already has everything; truncate.
  a.handle(1, Message{SessionRequest{1}}, 0.1);
  SummaryVector full = a.summary();
  // a initiated no session; teach knowledge through a push summary instead.
  a.handle(1, Message{SessionPush{(1ull << 32) | 9, full, {}}}, 0.2);
  a.on_session_timer(0.3);
  EXPECT_EQ(a.log().size(), 0u);
  // A fresh-summary request arrives (e.g. the peer lost its disk). The
  // engine must still answer without crashing; the payload is gone but the
  // summary in the push tells the peer what it is missing.
  const auto out =
      a.handle(1, Message{SessionSummary{0xdead, SummaryVector{}}}, 0.4);
  EXPECT_TRUE(out.empty());  // unknown session id: ignored
  // Now do it properly: a initiates, the peer answers with an empty summary.
  const auto start = a.on_session_timer(0.5);
  ASSERT_EQ(start.size(), 1u);
  const auto session_id = std::get<SessionRequest>(start[0].msg).session_id;
  const auto push = a.handle(1, Message{SessionSummary{session_id,
                                                       SummaryVector{}}}, 0.5);
  ASSERT_EQ(push.size(), 1u);
  const auto& push_msg = std::get<SessionPush>(push[0].msg);
  EXPECT_TRUE(push_msg.updates.empty());           // payload truncated away
  EXPECT_TRUE(push_msg.summary.contains(UpdateId{0, 1}));  // but advertised
}

/// The three payload-carrying messages of one session `a` starts with `b`.
struct SessionTrace {
  SessionSummary summary;
  SessionPush push;
  SessionReply reply;
};

SessionTrace run_session(ReplicaEngine& a, ReplicaEngine& b, SimTime now) {
  std::vector<Outbound> request;
  a.start_session_with(b.self(), now, request);
  const auto summary = b.handle(a.self(), request.at(0).msg, now);
  const auto push = a.handle(b.self(), summary.at(0).msg, now);
  const auto reply = b.handle(a.self(), push.at(0).msg, now);
  EXPECT_TRUE(a.handle(b.self(), reply.at(0).msg, now).empty());
  return {std::get<SessionSummary>(summary.at(0).msg),
          std::get<SessionPush>(push.at(0).msg),
          std::get<SessionReply>(reply.at(0).msg)};
}

SummaryVector known_or_empty(const ReplicaEngine& engine, NodeId peer) {
  const SummaryVector* known = engine.knowledge_of(peer);
  return known == nullptr ? SummaryVector{} : *known;
}

/// Runs one session from `a` to `b` and checks both sides' peer knowledge
/// against the per-id construction: what was known before, the partner's
/// summary, and every id shipped either way.
SessionTrace expect_per_id_knowledge_after_session(ReplicaEngine& a,
                                                   ReplicaEngine& b,
                                                   SimTime now) {
  SummaryVector a_expected = known_or_empty(a, b.self());
  SummaryVector b_expected = known_or_empty(b, a.self());
  const SessionTrace trace = run_session(a, b, now);
  a_expected.merge(trace.summary.summary);
  b_expected.merge(trace.push.summary);
  for (const auto* updates : {&trace.push.updates, &trace.reply.updates}) {
    for (const Update& u : *updates) {
      a_expected.add(u.id);
      b_expected.add(u.id);
    }
  }
  EXPECT_EQ(known_or_empty(a, b.self()), a_expected);
  EXPECT_EQ(known_or_empty(b, a.self()), b_expected);
  return trace;
}

/// Two replicas with interleaved, partly out-of-order logs: each has its own
/// writes plus a gappy subset of a third origin's.
void seed_divergent_logs(ReplicaEngine& a, ReplicaEngine& b) {
  for (int i = 0; i < 3; ++i) a.local_write("a" + std::to_string(i), "x", 0.0);
  for (int i = 0; i < 2; ++i) b.local_write("b" + std::to_string(i), "y", 0.0);
  const auto third = [](SeqNo seq) {
    return Update{UpdateId{7, seq}, 0.0, "c", "z" + std::to_string(seq)};
  };
  a.handle(7, Message{FastData{1, {third(1), third(4)}}}, 0.0);
  b.handle(7, Message{FastData{2, {third(2), third(5)}}}, 0.0);
}

TEST(TruncationTest, PeerKnowledgeAfterSessionMatchesPerIdConstruction) {
  ProtocolConfig cfg = truncating_config();
  cfg.auto_truncate = false;
  cfg.fast_push = false;
  ReplicaEngine a(0, {1}, cfg, 1);
  ReplicaEngine b(1, {0}, cfg, 2);
  seed_divergent_logs(a, b);
  expect_per_id_knowledge_after_session(a, b, 0.1);
  // A second session in the other direction starts from that knowledge.
  b.local_write("b-late", "y", 0.2);
  expect_per_id_knowledge_after_session(b, a, 0.2);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(TruncationTest, PeerKnowledgeAfterTruncatedSessionMatchesPerIdConstruction) {
  ProtocolConfig cfg = truncating_config();
  cfg.auto_truncate = false;
  cfg.fast_push = false;
  ReplicaEngine a(0, {1}, cfg, 1);
  ReplicaEngine b(1, {0}, cfg, 2);
  seed_divergent_logs(a, b);
  // Both sides drop payloads the other still lacks, so the initiator's push
  // and the responder's reply both fall back to everything retained.
  SummaryVector a_stable;
  a_stable.add(UpdateId{0, 1});
  SummaryVector b_stable;
  b_stable.add(UpdateId{1, 1});
  ASSERT_EQ(a.truncate_log_below(a_stable), 1u);
  ASSERT_EQ(b.truncate_log_below(b_stable), 1u);
  const std::vector<Update> a_retained = a.log().all_retained();
  const SessionTrace trace = expect_per_id_knowledge_after_session(a, b, 0.1);
  EXPECT_EQ(trace.push.updates, a_retained);
  EXPECT_EQ(trace.reply.updates, b.log().all_retained());
  EXPECT_TRUE(trace.push.summary.contains(UpdateId{0, 1}));
  EXPECT_EQ(b.log().find(UpdateId{0, 1}), nullptr);  // never shipped
}

}  // namespace
}  // namespace fastcons
