// Negative cases: every correctness check is fed one deliberately wrong
// input (and one right one, so a check that rejects everything is caught
// too). run.py --negative runs these.
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench.hpp"
#include "checks.hpp"

namespace perfbench {
namespace {

using namespace fastcons;

struct Case {
  const char* name;
  bool expect_violation;
  std::function<std::string()> run;
};

SummaryVector summary_of(NodeId origin, std::initializer_list<SeqNo> seqs) {
  SummaryVector s;
  for (const SeqNo seq : seqs) s.add(UpdateId{origin, seq});
  return s;
}

/// 0 --0.1-- 1 --0.2-- 2, plus a slow direct edge 0 --0.5-- 2.
Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1, 0.1);
  g.add_edge(1, 2, 0.2);
  g.add_edge(0, 2, 0.5);
  return g;
}

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"dijkstra distances", false, [] {
                   const std::vector<double> d = shortest_latency(triangle(), 0);
                   const bool ok = d[0] == 0.0 && std::abs(d[1] - 0.1) < 1e-12 &&
                                   std::abs(d[2] - 0.3) < 1e-12;
                   return ok ? std::string{} : std::string("wrong distances");
                 }});
  out.push_back({"propagation: deliveries at path latency", false, [] {
                   return check_propagation(triangle(), 0, 1.0, {1.0, 1.1, 1.3});
                 }});
  out.push_back({"propagation: delivery earlier than shortest path", true, [] {
                   return check_propagation(triangle(), 0, 1.0, {1.0, 1.1, 1.25});
                 }});
  out.push_back({"propagation: replica never received the write", true, [] {
                   return check_propagation(triangle(), 0, 1.0,
                                            {1.0, 1.1, std::nullopt});
                 }});
  out.push_back({"fast beats weak", false, [] { return check_fast_beats_weak(3.9, 6.1); }});
  out.push_back({"fast not below weak", true, [] { return check_fast_beats_weak(6.1, 6.1); }});
  out.push_back({"summaries equal", false, [] {
                   return check_summaries({summary_of(0, {1, 2}), summary_of(0, {1, 2})}, 2);
                 }});
  out.push_back({"summaries: a replica missed an update", true, [] {
                   return check_summaries({summary_of(0, {1, 2}), summary_of(0, {1})}, 2);
                 }});
  out.push_back({"summaries: equal but short of the writes", true, [] {
                   return check_summaries({summary_of(0, {1}), summary_of(0, {1})}, 2);
                 }});
  out.push_back({"lww: later timestamp wins", false, [] {
                   const auto w = lww_winners({Update{{0, 1}, 2.0, "k", "new"},
                                               Update{{1, 1}, 1.0, "k", "old"}});
                   return w.at("k") == "new" ? std::string{} : "picked " + w.at("k");
                 }});
  out.push_back({"lww: timestamp tie broken by origin", false, [] {
                   const auto w = lww_winners({Update{{2, 1}, 1.0, "k", "hi"},
                                               Update{{1, 1}, 1.0, "k", "lo"}});
                   return w.at("k") == "hi" ? std::string{} : "picked " + w.at("k");
                 }});
  out.push_back({"values agree", false, [] {
                   return check_values({{"k", "v"}}, {{{"k", "v"}}, {{"k", "v"}}});
                 }});
  out.push_back({"values: a replica holds the wrong value", true, [] {
                   return check_values({{"k", "v"}}, {{{"k", "v"}}, {{"k", "w"}}});
                 }});
  out.push_back({"values: a replica lacks the key", true, [] {
                   return check_values({{"k", "v"}}, {{{"k", "v"}}, {{"k", std::nullopt}}});
                 }});
  out.push_back({"fresh reads within reads", false, [] { return check_fresh_reads(5, 5); }});
  out.push_back({"more fresh reads than reads", true, [] { return check_fresh_reads(5, 6); }});
  out.push_back({"update counts match", false, [] { return check_update_counts({4, 4, 4}, 4); }});
  out.push_back({"update counts: a lost write", true, [] {
                   return check_update_counts({4, 3, 4}, 4);
                 }});
  out.push_back({"digests equal", false, [] { return check_digests({7, 7, 7}); }});
  out.push_back({"digests differ", true, [] { return check_digests({7, 7, 8}); }});
  out.push_back({"no codec errors", false, [] { return check_codec_errors(0); }});
  out.push_back({"codec errors", true, [] { return check_codec_errors(1); }});
  out.push_back({"recovered every pre-kill write", false, [] {
                   return check_recovered(summary_of(0, {1, 2, 3, 4, 5}), 0, 4);
                 }});
  out.push_back({"recovery lost a pre-kill write", true, [] {
                   return check_recovered(summary_of(0, {1, 2, 4, 5}), 0, 4);
                 }});
  return out;
}

}  // namespace

int run_negative_cases() {
  int wrong = 0;
  for (const Case& c : cases()) {
    const std::string violation = c.run();
    const bool flagged = !violation.empty();
    const bool ok = flagged == c.expect_violation;
    if (!ok) ++wrong;
    std::fprintf(stderr, "%-4s %s%s%s\n", ok ? "ok" : "FAIL", c.name,
                 flagged ? " -> " : "", violation.c_str());
  }
  return wrong;
}

}  // namespace perfbench
