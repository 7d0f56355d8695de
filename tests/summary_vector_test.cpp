#include "replication/summary_vector.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace fastcons {
namespace {

UpdateId id(NodeId origin, SeqNo seq) { return UpdateId{origin, seq}; }

TEST(SummaryVectorTest, EmptyContainsNothing) {
  SummaryVector sv;
  EXPECT_FALSE(sv.contains(id(0, 1)));
  EXPECT_EQ(sv.total(), 0u);
  EXPECT_EQ(sv.watermark(0), 0u);
}

TEST(SummaryVectorTest, ContiguousAddsRaiseWatermark) {
  SummaryVector sv;
  sv.add(id(3, 1));
  sv.add(id(3, 2));
  sv.add(id(3, 3));
  EXPECT_EQ(sv.watermark(3), 3u);
  EXPECT_TRUE(sv.extras().empty());
  EXPECT_EQ(sv.total(), 3u);
}

TEST(SummaryVectorTest, OutOfOrderAddsGoToExtras) {
  SummaryVector sv;
  sv.add(id(1, 5));  // gap: 1..4 unseen
  EXPECT_EQ(sv.watermark(1), 0u);
  EXPECT_TRUE(sv.contains(id(1, 5)));
  EXPECT_FALSE(sv.contains(id(1, 4)));
  EXPECT_EQ(sv.total(), 1u);
}

TEST(SummaryVectorTest, FillingGapAbsorbsExtras) {
  SummaryVector sv;
  sv.add(id(1, 3));
  sv.add(id(1, 2));
  EXPECT_EQ(sv.watermark(1), 0u);
  sv.add(id(1, 1));  // closes the gap: watermark jumps to 3
  EXPECT_EQ(sv.watermark(1), 3u);
  EXPECT_TRUE(sv.extras().empty());
}

TEST(SummaryVectorTest, AddIsIdempotent) {
  SummaryVector sv;
  sv.add(id(0, 1));
  sv.add(id(0, 1));
  EXPECT_EQ(sv.total(), 1u);
}

TEST(SummaryVectorTest, InsertReportsNoveltyAndMatchesAdd) {
  Rng rng(21);
  SummaryVector inserted;
  SummaryVector added;
  std::set<UpdateId> truth;
  for (int i = 0; i < 400; ++i) {
    const UpdateId x = id(static_cast<NodeId>(rng.index(5)),
                          rng.uniform_u64(1, 40));
    const bool was_new = !inserted.contains(x);
    EXPECT_EQ(inserted.insert(x), was_new);
    EXPECT_EQ(was_new, truth.insert(x).second);
    added.add(x);
    EXPECT_EQ(inserted, added);
  }
  // Canonical form: the structure equals one rebuilt from the id set.
  std::map<NodeId, std::set<SeqNo>> extras;
  for (const UpdateId x : truth) extras[x.origin].insert(x.seq);
  EXPECT_EQ(inserted, SummaryVector::from_parts({}, std::move(extras)));
}

TEST(SummaryVectorTest, IndependentOrigins) {
  SummaryVector sv;
  sv.add(id(0, 1));
  sv.add(id(7, 1));
  sv.add(id(7, 2));
  EXPECT_EQ(sv.watermark(0), 1u);
  EXPECT_EQ(sv.watermark(7), 2u);
  EXPECT_FALSE(sv.contains(id(1, 1)));
  EXPECT_EQ(sv.origins().size(), 2u);
}

TEST(SummaryVectorTest, MergeUnionsCoverage) {
  SummaryVector a, b;
  a.add(id(0, 1));
  a.add(id(0, 2));
  b.add(id(0, 4));
  b.add(id(1, 1));
  a.merge(b);
  EXPECT_TRUE(a.contains(id(0, 1)));
  EXPECT_TRUE(a.contains(id(0, 2)));
  EXPECT_FALSE(a.contains(id(0, 3)));
  EXPECT_TRUE(a.contains(id(0, 4)));
  EXPECT_TRUE(a.contains(id(1, 1)));
  EXPECT_EQ(a.total(), 4u);
}

TEST(SummaryVectorTest, MergeAbsorbsAcrossWatermarkAndExtras) {
  SummaryVector a, b;
  a.add(id(0, 1));
  b.add(id(0, 2));
  b.add(id(0, 3));
  a.merge(b);  // b's extras {2,3} complete a's prefix {1}
  EXPECT_EQ(a.watermark(0), 3u);
  EXPECT_TRUE(a.extras().empty());
}

TEST(SummaryVectorTest, CoversIsReflexiveAndDetectsGaps) {
  SummaryVector a;
  a.add(id(0, 1));
  a.add(id(0, 3));
  EXPECT_TRUE(a.covers(a));
  SummaryVector b;
  b.add(id(0, 2));
  EXPECT_FALSE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  a.add(id(0, 2));
  EXPECT_TRUE(a.covers(b));
}

TEST(SummaryVectorTest, CoversEmpty) {
  SummaryVector a, empty;
  a.add(id(0, 1));
  EXPECT_TRUE(a.covers(empty));
  EXPECT_FALSE(empty.covers(a));
  EXPECT_TRUE(empty.covers(empty));
}

TEST(SummaryVectorTest, MissingFromListsExactDifference) {
  SummaryVector a, b;
  a.add(id(0, 1));
  a.add(id(0, 2));
  a.add(id(1, 7));
  b.add(id(0, 1));
  const auto missing = a.missing_from(b);
  EXPECT_EQ(missing, (std::vector<UpdateId>{id(0, 2), id(1, 7)}));
}

TEST(SummaryVectorTest, MissingFromSelfIsEmpty) {
  SummaryVector a;
  a.add(id(0, 1));
  a.add(id(2, 9));
  EXPECT_TRUE(a.missing_from(a).empty());
}

TEST(SummaryVectorTest, FromPartsNormalises) {
  std::map<NodeId, SeqNo> marks{{0, 2}};
  std::map<NodeId, std::set<SeqNo>> extras{{0, {3, 4, 7}}, {1, {}}};
  const SummaryVector sv = SummaryVector::from_parts(marks, extras);
  EXPECT_EQ(sv.watermark(0), 4u);  // 3 and 4 absorbed
  EXPECT_TRUE(sv.contains(id(0, 7)));
  EXPECT_FALSE(sv.contains(id(0, 5)));
  // Structural equality with an equivalently built vector.
  SummaryVector direct;
  for (const SeqNo s : {1, 2, 3, 4, 7}) direct.add(id(0, s));
  EXPECT_EQ(sv, direct);
}

TEST(SummaryVectorTest, FromPartsDropsZeroWatermarks) {
  const SummaryVector sv =
      SummaryVector::from_parts({{5, 0}}, {});
  EXPECT_EQ(sv, SummaryVector{});
}

// ---------------------------------------------------------------------------
// Property tests: SummaryVector is a join-semilattice under merge().

SummaryVector random_summary(Rng& rng) {
  SummaryVector sv;
  const std::size_t adds = rng.index(30);
  for (std::size_t i = 0; i < adds; ++i) {
    sv.add(id(static_cast<NodeId>(rng.index(4)), rng.uniform_u64(1, 12)));
  }
  return sv;
}

class SummaryLatticeProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SummaryLatticeProperty, MergeIsCommutative) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    SummaryVector ab = a;
    ab.merge(b);
    SummaryVector ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);
  }
}

TEST_P(SummaryLatticeProperty, MergeIsAssociative) {
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    const SummaryVector c = random_summary(rng);
    SummaryVector left = a;
    {
      SummaryVector bc = b;
      bc.merge(c);
      left.merge(bc);
    }
    SummaryVector right = a;
    right.merge(b);
    right.merge(c);
    EXPECT_EQ(left, right);
  }
}

TEST_P(SummaryLatticeProperty, MergeIsIdempotent) {
  Rng rng(GetParam() + 2000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector a = random_summary(rng);
    SummaryVector aa = a;
    aa.merge(a);
    EXPECT_EQ(aa, a);
  }
}

TEST_P(SummaryLatticeProperty, MergeIsLeastUpperBound) {
  Rng rng(GetParam() + 3000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    SummaryVector join = a;
    join.merge(b);
    EXPECT_TRUE(join.covers(a));
    EXPECT_TRUE(join.covers(b));
    // Least: the join contains exactly the union, nothing more.
    EXPECT_EQ(join.total(), a.total() + b.missing_from(a).size());
  }
}

TEST_P(SummaryLatticeProperty, MissingFromIsExactComplement) {
  Rng rng(GetParam() + 4000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    SummaryVector patched = b;
    for (const UpdateId missing : a.missing_from(b)) {
      EXPECT_FALSE(b.contains(missing));
      EXPECT_TRUE(a.contains(missing));
      patched.add(missing);
    }
    EXPECT_TRUE(patched.covers(a));
  }
}

TEST_P(SummaryLatticeProperty, CoversIsPartialOrder) {
  Rng rng(GetParam() + 5000);
  for (int round = 0; round < 30; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    const SummaryVector c = random_summary(rng);
    // Antisymmetry.
    if (a.covers(b) && b.covers(a)) {
      EXPECT_EQ(a, b);
    }
    // Transitivity via the join.
    SummaryVector ab = a;
    ab.merge(b);
    SummaryVector abc = ab;
    abc.merge(c);
    EXPECT_TRUE(abc.covers(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryLatticeProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// meet(): the greatest lower bound completing the lattice.

TEST(SummaryMeetTest, MeetOfDisjointIsEmpty) {
  SummaryVector a, b;
  a.add(id(0, 1));
  b.add(id(1, 1));
  EXPECT_EQ(SummaryVector::meet(a, b), SummaryVector{});
}

TEST(SummaryMeetTest, MeetKeepsCommonPrefix) {
  SummaryVector a, b;
  for (SeqNo s = 1; s <= 5; ++s) a.add(id(0, s));
  for (SeqNo s = 1; s <= 3; ++s) b.add(id(0, s));
  const SummaryVector m = SummaryVector::meet(a, b);
  EXPECT_EQ(m.watermark(0), 3u);
  EXPECT_EQ(m.total(), 3u);
}

TEST(SummaryMeetTest, MeetHandlesExtrasAcrossWatermarks) {
  // a covers {1..5}; b covers {1..3, 5}; meet must be {1..3, 5}.
  SummaryVector a, b;
  for (SeqNo s = 1; s <= 5; ++s) a.add(id(0, s));
  for (SeqNo s = 1; s <= 3; ++s) b.add(id(0, s));
  b.add(id(0, 5));
  const SummaryVector m = SummaryVector::meet(a, b);
  EXPECT_EQ(m.watermark(0), 3u);
  EXPECT_TRUE(m.contains(id(0, 5)));
  EXPECT_FALSE(m.contains(id(0, 4)));
  EXPECT_EQ(m, SummaryVector::meet(b, a));
}

class SummaryMeetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SummaryMeetProperty, MeetIsExactIntersection) {
  Rng rng(GetParam() + 6000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    const SummaryVector m = SummaryVector::meet(a, b);
    // Everything in the meet is in both; nothing of a∩b is missing.
    for (const UpdateId x : m.missing_from(SummaryVector{})) {
      EXPECT_TRUE(a.contains(x));
      EXPECT_TRUE(b.contains(x));
    }
    for (const UpdateId x : a.missing_from(m)) {
      EXPECT_FALSE(b.contains(x) && !m.contains(x));
    }
    EXPECT_TRUE(a.covers(m));
    EXPECT_TRUE(b.covers(m));
  }
}

TEST_P(SummaryMeetProperty, MeetCommutativeIdempotent) {
  Rng rng(GetParam() + 7000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    EXPECT_EQ(SummaryVector::meet(a, b), SummaryVector::meet(b, a));
    EXPECT_EQ(SummaryVector::meet(a, a), a);
  }
}

TEST_P(SummaryMeetProperty, AbsorptionLaws) {
  // a ∧ (a ∨ b) == a and a ∨ (a ∧ b) == a: meet/merge form a lattice.
  Rng rng(GetParam() + 8000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    SummaryVector join = a;
    join.merge(b);
    EXPECT_EQ(SummaryVector::meet(a, join), a);
    SummaryVector back = a;
    back.merge(SummaryVector::meet(a, b));
    EXPECT_EQ(back, a);
  }
}

TEST_P(SummaryMeetProperty, MeetIsAssociative) {
  Rng rng(GetParam() + 9000);
  for (int round = 0; round < 30; ++round) {
    const SummaryVector a = random_summary(rng);
    const SummaryVector b = random_summary(rng);
    const SummaryVector c = random_summary(rng);
    EXPECT_EQ(SummaryVector::meet(SummaryVector::meet(a, b), c),
              SummaryVector::meet(a, SummaryVector::meet(b, c)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryMeetProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Flat-representation invariants and from_parts round-trips.

/// Rebuilds the wire-shaped parts from the flat accessors, as net/wire.cpp
/// encodes them.
std::pair<std::map<NodeId, SeqNo>, std::map<NodeId, std::set<SeqNo>>>
to_parts(const SummaryVector& sv) {
  std::map<NodeId, SeqNo> marks(sv.watermarks().begin(),
                                sv.watermarks().end());
  std::map<NodeId, std::set<SeqNo>> extras;
  for (const UpdateId id : sv.extras()) extras[id.origin].insert(id.seq);
  return {std::move(marks), std::move(extras)};
}

class SummaryFlatProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SummaryFlatProperty, CanonicalFormInvariants) {
  Rng rng(GetParam() + 10000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector sv = random_summary(rng);
    // Watermarks sorted by origin, all > 0.
    for (std::size_t i = 0; i < sv.watermarks().size(); ++i) {
      EXPECT_GT(sv.watermarks()[i].second, 0u);
      if (i > 0) {
        EXPECT_LT(sv.watermarks()[i - 1].first, sv.watermarks()[i].first);
      }
    }
    // Extras sorted, unique, strictly above watermark + 1 (else they would
    // have been absorbed).
    for (std::size_t i = 0; i < sv.extras().size(); ++i) {
      if (i > 0) {
        EXPECT_LT(sv.extras()[i - 1], sv.extras()[i]);
      }
      EXPECT_GT(sv.extras()[i].seq, sv.watermark(sv.extras()[i].origin) + 1);
    }
  }
}

TEST_P(SummaryFlatProperty, FromPartsRoundTrip) {
  Rng rng(GetParam() + 11000);
  for (int round = 0; round < 50; ++round) {
    const SummaryVector sv = random_summary(rng);
    auto [marks, extras] = to_parts(sv);
    const SummaryVector rebuilt =
        SummaryVector::from_parts(std::move(marks), std::move(extras));
    EXPECT_EQ(rebuilt, sv);
  }
}

TEST_P(SummaryFlatProperty, EqualCoverageImpliesStructuralEquality) {
  // Build the same coverage through two different add() orders; canonical
  // form must make them structurally identical.
  Rng rng(GetParam() + 12000);
  for (int round = 0; round < 30; ++round) {
    std::vector<UpdateId> ids;
    const std::size_t n = 1 + rng.index(25);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(id(static_cast<NodeId>(rng.index(4)),
                       rng.uniform_u64(1, 10)));
    }
    SummaryVector forward;
    for (const UpdateId x : ids) forward.add(x);
    SummaryVector backward;
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) backward.add(*it);
    EXPECT_EQ(forward, backward);
    EXPECT_EQ(forward.watermarks(), backward.watermarks());
    EXPECT_EQ(forward.extras(), backward.extras());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryFlatProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace fastcons
