#include "replication/write_log.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace fastcons {
namespace {

Update make_update(NodeId origin, SeqNo seq, SimTime at = 0.0,
                   std::string key = "k", std::string value = "v") {
  return Update{UpdateId{origin, seq}, at, std::move(key), std::move(value)};
}

TEST(WriteLogTest, ApplyIsIdempotent) {
  WriteLog log;
  EXPECT_TRUE(log.apply(make_update(0, 1)));
  EXPECT_FALSE(log.apply(make_update(0, 1)));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.applied_total(), 1u);
}

TEST(WriteLogTest, ContainsAndGet) {
  WriteLog log;
  const Update u = make_update(2, 1, 1.5, "city", "barcelona");
  log.apply(u);
  EXPECT_TRUE(log.contains(u.id));
  EXPECT_FALSE(log.contains(UpdateId{2, 2}));
  const auto got = log.get(u.id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, u);
  EXPECT_FALSE(log.get(UpdateId{9, 9}).has_value());
}

TEST(WriteLogTest, UpdatesForReturnsDifferenceInOrder) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  log.apply(make_update(1, 1));
  SummaryVector theirs;
  theirs.add(UpdateId{0, 1});
  const auto missing = log.updates_for(theirs);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].id, (UpdateId{0, 2}));
  EXPECT_EQ(missing[1].id, (UpdateId{1, 1}));
}

TEST(WriteLogTest, UpdatesForSelfSummaryIsEmpty) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(3, 4));
  EXPECT_TRUE(log.updates_for(log.summary()).empty());
}

TEST(WriteLogTest, LastWriterWinsByTimestamp) {
  WriteLog log;
  log.apply(make_update(0, 1, 1.0, "x", "old"));
  log.apply(make_update(1, 1, 2.0, "x", "new"));
  EXPECT_EQ(log.read("x"), "new");
  // A late-arriving older write must not clobber the newer value.
  log.apply(make_update(2, 1, 0.5, "x", "ancient"));
  EXPECT_EQ(*log.read("x"), "new");
}

TEST(WriteLogTest, TimestampTiesBreakDeterministically) {
  // Same created_at: the higher (origin, seq) wins, in both arrival orders.
  WriteLog a, b;
  const Update u1 = make_update(1, 1, 5.0, "x", "from-1");
  const Update u2 = make_update(2, 1, 5.0, "x", "from-2");
  a.apply(u1);
  a.apply(u2);
  b.apply(u2);
  b.apply(u1);
  ASSERT_TRUE(a.read("x").has_value());
  EXPECT_EQ(*a.read("x"), *b.read("x"));
  EXPECT_EQ(*a.read("x"), "from-2");
}

TEST(WriteLogTest, ReadMissingKey) {
  WriteLog log;
  EXPECT_FALSE(log.read("nope").has_value());
}

TEST(WriteLogTest, KeysListsMaterialisedKeys) {
  WriteLog log;
  log.apply(make_update(0, 1, 0.0, "a", "1"));
  log.apply(make_update(0, 2, 1.0, "b", "2"));
  log.apply(make_update(0, 3, 2.0, "a", "3"));
  const auto keys = log.keys();
  EXPECT_EQ(keys.size(), 2u);
}

TEST(WriteLogTest, AllRetainedSortedById) {
  WriteLog log;
  log.apply(make_update(1, 2));
  log.apply(make_update(0, 1));
  log.apply(make_update(1, 1));
  const auto all = log.all_retained();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, (UpdateId{0, 1}));
  EXPECT_EQ(all[1].id, (UpdateId{1, 1}));
  EXPECT_EQ(all[2].id, (UpdateId{1, 2}));
}

TEST(WriteLogTest, TruncationDiscardsPayloadsButKeepsSummary) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  log.apply(make_update(0, 3));
  SummaryVector stable;
  stable.add(UpdateId{0, 1});
  stable.add(UpdateId{0, 2});
  EXPECT_EQ(log.truncate_below(stable), 2u);
  EXPECT_EQ(log.size(), 1u);
  // Summary still covers the truncated ids: re-applying stays a no-op.
  EXPECT_TRUE(log.contains(UpdateId{0, 1}));
  EXPECT_FALSE(log.apply(make_update(0, 1)));
  EXPECT_FALSE(log.get(UpdateId{0, 1}).has_value());
}

TEST(WriteLogTest, UpdatesForReportsTruncatedIds) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  SummaryVector stable;
  stable.add(UpdateId{0, 1});
  log.truncate_below(stable);
  const SummaryVector empty;
  std::vector<UpdateId> truncated;
  const auto sendable = log.updates_for(empty, &truncated);
  ASSERT_EQ(sendable.size(), 1u);
  EXPECT_EQ(sendable[0].id, (UpdateId{0, 2}));
  ASSERT_EQ(truncated.size(), 1u);
  EXPECT_EQ(truncated[0], (UpdateId{0, 1}));
}

TEST(WriteLogTest, PairwiseExchangeConverges) {
  // The algebra behind an anti-entropy session: exchanging summary
  // differences makes two random logs identical.
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    WriteLog a, b;
    for (int i = 0; i < 40; ++i) {
      const auto origin = static_cast<NodeId>(rng.index(3));
      const auto seq = rng.uniform_u64(1, 10);
      const auto u = make_update(origin, seq, rng.uniform(0.0, 5.0));
      if (rng.bernoulli(0.5)) a.apply(u);
      if (rng.bernoulli(0.5)) b.apply(u);
    }
    for (const Update& u : a.updates_for(b.summary())) b.apply(u);
    for (const Update& u : b.updates_for(a.summary())) a.apply(u);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.all_retained().size(), b.all_retained().size());
  }
}

/// `count` distinct updates over four origins with gappy seqs, random keys
/// and timestamps, in id order.
std::vector<Update> random_updates(Rng& rng, std::size_t count) {
  std::set<UpdateId> ids;
  while (ids.size() < count) {
    ids.insert(UpdateId{static_cast<NodeId>(rng.index(4)),
                        rng.uniform_u64(1, 3 * count)});
  }
  std::vector<Update> updates;
  for (const UpdateId id : ids) {
    updates.push_back(make_update(id.origin, id.seq, rng.uniform(0.0, 5.0),
                                  "k" + std::to_string(rng.index(6)),
                                  "v" + std::to_string(id.seq)));
  }
  return updates;
}

/// A summary covering a random half of `updates` (plus nothing else).
SummaryVector random_cover(Rng& rng, const std::vector<Update>& updates) {
  SummaryVector cover;
  for (const Update& u : updates) {
    if (rng.bernoulli(0.5)) cover.add(u.id);
  }
  return cover;
}

/// Every observable of the log's storage agrees between `a` and `b`.
void expect_same_log(const WriteLog& a, const WriteLog& b,
                     const std::vector<Update>& probes, Rng& rng) {
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.all_retained(), b.all_retained());
  EXPECT_EQ(a.kv_digest(), b.kv_digest());
  for (const Update& u : probes) {
    const Update* fa = a.find(u.id);
    const Update* fb = b.find(u.id);
    ASSERT_EQ(fa == nullptr, fb == nullptr);
    if (fa != nullptr) {
      EXPECT_EQ(*fa, *fb);
    }
  }
  EXPECT_EQ(a.find(UpdateId{9, 1}), nullptr);
  for (int i = 0; i < 4; ++i) {
    const SummaryVector theirs = random_cover(rng, probes);
    std::vector<UpdateId> ta;
    std::vector<UpdateId> tb;
    EXPECT_EQ(a.updates_for(theirs, &ta), b.updates_for(theirs, &tb));
    EXPECT_EQ(ta, tb);
  }
}

TEST(WriteLogTest, ShuffledApplyMatchesSortedApply) {
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    const std::vector<Update> updates = random_updates(rng, 60);
    std::vector<Update> shuffled = updates;
    rng.shuffle(shuffled);
    WriteLog sorted_log;
    WriteLog shuffled_log;
    for (const Update& u : updates) sorted_log.apply(u);
    for (const Update& u : shuffled) shuffled_log.apply(u);
    expect_same_log(sorted_log, shuffled_log, updates, rng);
    // updates_for ships ids in missing_from order: watermark ranges first,
    // then extras, each ascending.
    const SummaryVector empty;
    std::vector<UpdateId> shipped;
    for (const Update& u : shuffled_log.updates_for(empty)) {
      shipped.push_back(u.id);
    }
    EXPECT_EQ(shipped, shuffled_log.summary().missing_from(empty));
  }
}

TEST(WriteLogTest, TruncateThenApplyMatchesSortedReference) {
  Rng rng(8);
  for (int round = 0; round < 10; ++round) {
    const std::vector<Update> all = random_updates(rng, 80);
    std::vector<Update> first(all.begin(), all.begin() + 50);
    std::vector<Update> second(all.begin() + 50, all.end());
    const SummaryVector stable = random_cover(rng, first);
    WriteLog reference;
    for (const Update& u : first) reference.apply(u);
    const std::size_t dropped = reference.truncate_below(stable);
    for (const Update& u : second) reference.apply(u);

    rng.shuffle(first);
    rng.shuffle(second);
    WriteLog log;
    for (const Update& u : first) log.apply(u);
    EXPECT_EQ(log.truncate_below(stable), dropped);
    for (const Update& u : second) log.apply(u);
    expect_same_log(reference, log, all, rng);
    for (const Update& u : all) {
      EXPECT_EQ(log.find(u.id) == nullptr, stable.contains(u.id));
    }
  }
}

TEST(WriteLogTest, RestoreMatchesApplyAndMerge) {
  Rng rng(9);
  for (int round = 0; round < 10; ++round) {
    const std::vector<Update> updates = random_updates(rng, 40);
    const SummaryVector cover = random_cover(rng, random_updates(rng, 40));
    WriteLog reference;
    for (const Update& u : updates) reference.apply(u);
    std::vector<Update> image = updates;
    rng.shuffle(image);
    image.push_back(image.front());  // a WAL suffix overlapping the image
    WriteLog restored;
    restored.restore(std::move(image), cover);
    SummaryVector expected = reference.summary();
    expected.merge(cover);
    EXPECT_EQ(restored.summary(), expected);
    EXPECT_EQ(restored.all_retained(), reference.all_retained());
    EXPECT_EQ(restored.kv_digest(), reference.kv_digest());
    for (const Update& u : updates) {
      ASSERT_NE(restored.find(u.id), nullptr);
      EXPECT_EQ(*restored.find(u.id), u);
    }
  }
}

TEST(WriteLogTest, ClearForgetsEverything) {
  Rng rng(10);
  WriteLog log;
  for (const Update& u : random_updates(rng, 20)) log.apply(u);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.all_retained().empty());
  EXPECT_EQ(log.summary(), SummaryVector{});
  const Update u = make_update(1, 1);
  EXPECT_TRUE(log.apply(u));
  ASSERT_NE(log.find(u.id), nullptr);
  EXPECT_EQ(*log.find(u.id), u);
}

}  // namespace
}  // namespace fastcons
