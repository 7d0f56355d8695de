#include "replication/summary_vector.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace fastcons {
namespace {

/// First watermark entry with entry.origin >= origin.
SummaryVector::Watermarks::const_iterator lower_bound_origin(
    const SummaryVector::Watermarks& watermarks, NodeId origin) {
  return std::lower_bound(
      watermarks.begin(), watermarks.end(), origin,
      [](const std::pair<NodeId, SeqNo>& e, NodeId o) { return e.first < o; });
}

}  // namespace

SummaryVector::Watermarks::const_iterator SummaryVector::find_watermark(
    NodeId origin) const {
  const auto it = lower_bound_origin(watermarks_, origin);
  if (it != watermarks_.end() && it->first == origin) return it;
  return watermarks_.end();
}

bool SummaryVector::contains(UpdateId id) const {
  FASTCONS_EXPECTS(id.seq > 0);
  if (const auto it = find_watermark(id.origin);
      it != watermarks_.end() && id.seq <= it->second) {
    return true;
  }
  return std::binary_search(extras_.begin(), extras_.end(), id);
}

bool SummaryVector::insert(UpdateId id) {
  FASTCONS_EXPECTS(id.seq > 0);
  const auto wit = lower_bound_origin(watermarks_, id.origin);
  const bool has_mark = wit != watermarks_.end() && wit->first == id.origin;
  const SeqNo mark = has_mark ? wit->second : 0;
  if (id.seq <= mark) return false;
  const auto eit = std::lower_bound(extras_.begin(), extras_.end(), id);
  if (eit != extras_.end() && *eit == id) return false;
  if (id.seq != mark + 1) {
    extras_.insert(eit, id);
    return true;
  }
  // The id extends the contiguous prefix; absorb any extras run that is now
  // contiguous too. Extras never contain mark+1 (canonical invariant), so
  // the run to absorb starts right at `eit`, the first extra above id.
  SeqNo new_mark = id.seq;
  auto run_end = eit;
  while (run_end != extras_.end() && run_end->origin == id.origin &&
         run_end->seq == new_mark + 1) {
    ++new_mark;
    ++run_end;
  }
  extras_.erase(eit, run_end);
  if (has_mark) {
    watermarks_[static_cast<std::size_t>(wit - watermarks_.begin())].second =
        new_mark;
  } else {
    watermarks_.insert(wit, {id.origin, new_mark});
  }
  return true;
}

void SummaryVector::canonicalise(Watermarks&& watermarks, Extras&& extras) {
  Watermarks out_marks;
  out_marks.reserve(watermarks.size());
  Extras out_extras;
  out_extras.reserve(extras.size());
  std::size_t wi = 0;
  std::size_t ei = 0;
  while (wi < watermarks.size() || ei < extras.size()) {
    NodeId origin;
    if (wi < watermarks.size() && ei < extras.size()) {
      origin = std::min(watermarks[wi].first, extras[ei].origin);
    } else if (wi < watermarks.size()) {
      origin = watermarks[wi].first;
    } else {
      origin = extras[ei].origin;
    }
    SeqNo mark = 0;
    if (wi < watermarks.size() && watermarks[wi].first == origin) {
      mark = watermarks[wi].second;
      ++wi;
    }
    // Drop extras the watermark already covers, then absorb the contiguous
    // run. Both loops walk one sorted-unique run, so once absorption stops
    // every remaining extra of this origin is above mark + 1.
    while (ei < extras.size() && extras[ei].origin == origin &&
           extras[ei].seq <= mark) {
      ++ei;
    }
    while (ei < extras.size() && extras[ei].origin == origin &&
           extras[ei].seq == mark + 1) {
      ++mark;
      ++ei;
    }
    if (mark > 0) out_marks.emplace_back(origin, mark);
    while (ei < extras.size() && extras[ei].origin == origin) {
      out_extras.push_back(extras[ei]);
      ++ei;
    }
  }
  watermarks_ = std::move(out_marks);
  extras_ = std::move(out_extras);
}

SeqNo SummaryVector::watermark(NodeId origin) const {
  const auto it = find_watermark(origin);
  return it == watermarks_.end() ? 0 : it->second;
}

void SummaryVector::merge(const SummaryVector& other) {
  if (other.watermarks_.empty() && other.extras_.empty()) return;
  // Fast path 1: neither side has extras (the overwhelmingly common shape —
  // extras only exist between a fast push and the session that fills the
  // gap). The join is then a pointwise max of watermarks; when our origin
  // set already spans the other's, it is allocation-free and in place.
  if (extras_.empty() && other.extras_.empty()) {
    std::size_t wi = 0;
    std::size_t novel = 0;
    for (const auto& [origin, mark] : other.watermarks_) {
      while (wi < watermarks_.size() && watermarks_[wi].first < origin) ++wi;
      if (wi < watermarks_.size() && watermarks_[wi].first == origin) {
        if (watermarks_[wi].second < mark) watermarks_[wi].second = mark;
      } else {
        ++novel;
      }
    }
    if (novel == 0) return;
  } else if (covers(other)) {
    // Fast path 2: nothing to gain (frequent for peer-knowledge merges,
    // where sessions keep re-telling us what we already recorded); covers()
    // is a linear scan with no allocation.
    return;
  }
  // Merge-join the watermark vectors (pointwise max) ...
  Watermarks marks;
  marks.reserve(watermarks_.size() + other.watermarks_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < watermarks_.size() && j < other.watermarks_.size()) {
    const auto& a = watermarks_[i];
    const auto& b = other.watermarks_[j];
    if (a.first < b.first) {
      marks.push_back(a);
      ++i;
    } else if (b.first < a.first) {
      marks.push_back(b);
      ++j;
    } else {
      marks.emplace_back(a.first, std::max(a.second, b.second));
      ++i;
      ++j;
    }
  }
  marks.insert(marks.end(), watermarks_.begin() + static_cast<std::ptrdiff_t>(i),
               watermarks_.end());
  marks.insert(marks.end(),
               other.watermarks_.begin() + static_cast<std::ptrdiff_t>(j),
               other.watermarks_.end());
  // ... union the extras, then restore canonical form in one pass.
  Extras extras;
  extras.reserve(extras_.size() + other.extras_.size());
  std::set_union(extras_.begin(), extras_.end(), other.extras_.begin(),
                 other.extras_.end(), std::back_inserter(extras));
  canonicalise(std::move(marks), std::move(extras));
}

bool SummaryVector::covers(const SummaryVector& other) const {
  // Watermarks: ours must reach theirs. A lower watermark can never be
  // compensated by extras — canonical form guarantees our extras skip
  // watermark + 1, so the first missing seq is genuinely missing.
  std::size_t wi = 0;
  for (const auto& [origin, mark] : other.watermarks_) {
    while (wi < watermarks_.size() && watermarks_[wi].first < origin) ++wi;
    if (wi == watermarks_.size() || watermarks_[wi].first != origin ||
        watermarks_[wi].second < mark) {
      return false;
    }
  }
  // Extras: each id must sit below our watermark or appear in our extras.
  // Both sides are (origin, seq) sorted, so two cursors suffice.
  std::size_t mi = 0;
  std::size_t ei = 0;
  for (const UpdateId id : other.extras_) {
    while (mi < watermarks_.size() && watermarks_[mi].first < id.origin) ++mi;
    if (mi < watermarks_.size() && watermarks_[mi].first == id.origin &&
        id.seq <= watermarks_[mi].second) {
      continue;
    }
    while (ei < extras_.size() && extras_[ei] < id) ++ei;
    if (ei == extras_.size() || extras_[ei] != id) return false;
  }
  return true;
}

std::vector<UpdateId> SummaryVector::missing_from(
    const SummaryVector& other) const {
  std::vector<UpdateId> missing;
  // Pass 1: our watermark ranges against their coverage.
  std::size_t owi = 0;  // cursor into other.watermarks_
  std::size_t oei = 0;  // cursor into other.extras_
  for (const auto& [origin, mark] : watermarks_) {
    while (owi < other.watermarks_.size() &&
           other.watermarks_[owi].first < origin) {
      ++owi;
    }
    const SeqNo theirs = (owi < other.watermarks_.size() &&
                          other.watermarks_[owi].first == origin)
                             ? other.watermarks_[owi].second
                             : 0;
    if (theirs >= mark) continue;
    while (oei < other.extras_.size() && other.extras_[oei].origin < origin) {
      ++oei;
    }
    std::size_t run = oei;
    for (SeqNo s = theirs + 1; s <= mark; ++s) {
      while (run < other.extras_.size() && other.extras_[run].origin == origin &&
             other.extras_[run].seq < s) {
        ++run;
      }
      const bool have = run < other.extras_.size() &&
                        other.extras_[run].origin == origin &&
                        other.extras_[run].seq == s;
      if (!have) missing.push_back(UpdateId{origin, s});
    }
  }
  // Pass 2: our extras against their coverage.
  owi = 0;
  oei = 0;
  for (const UpdateId id : extras_) {
    while (owi < other.watermarks_.size() &&
           other.watermarks_[owi].first < id.origin) {
      ++owi;
    }
    if (owi < other.watermarks_.size() &&
        other.watermarks_[owi].first == id.origin &&
        id.seq <= other.watermarks_[owi].second) {
      continue;
    }
    while (oei < other.extras_.size() && other.extras_[oei] < id) ++oei;
    if (oei == other.extras_.size() || other.extras_[oei] != id) {
      missing.push_back(id);
    }
  }
  return missing;
}

std::size_t SummaryVector::distinct_extra_origins() const {
  std::size_t origins = 0;
  for (std::size_t i = 0; i < extras_.size(); ++i) {
    if (i == 0 || extras_[i].origin != extras_[i - 1].origin) ++origins;
  }
  return origins;
}

std::uint64_t SummaryVector::total() const {
  std::uint64_t count = extras_.size();
  for (const auto& [origin, mark] : watermarks_) {
    (void)origin;
    count += mark;
  }
  return count;
}

std::vector<NodeId> SummaryVector::origins() const {
  std::vector<NodeId> result;
  result.reserve(watermarks_.size());
  for (const auto& [origin, mark] : watermarks_) {
    (void)mark;
    result.push_back(origin);
  }
  // Extras-only origins, appended after the watermarked ones (ascending
  // within each group — the order callers have always seen).
  std::size_t wi = 0;
  for (std::size_t i = 0; i < extras_.size();) {
    const NodeId origin = extras_[i].origin;
    while (wi < watermarks_.size() && watermarks_[wi].first < origin) ++wi;
    if (wi == watermarks_.size() || watermarks_[wi].first != origin) {
      result.push_back(origin);
    }
    while (i < extras_.size() && extras_[i].origin == origin) ++i;
  }
  return result;
}

SummaryVector SummaryVector::meet(const SummaryVector& a,
                                  const SummaryVector& b) {
  // Only origins covered by `a` can contribute (the meet needs both).
  Watermarks marks;
  Extras extras;
  std::size_t wi = 0;  // cursor into a.watermarks_
  std::size_t ei = 0;  // cursor into a.extras_
  while (wi < a.watermarks_.size() || ei < a.extras_.size()) {
    NodeId origin;
    if (wi < a.watermarks_.size() && ei < a.extras_.size()) {
      origin = std::min(a.watermarks_[wi].first, a.extras_[ei].origin);
    } else if (wi < a.watermarks_.size()) {
      origin = a.watermarks_[wi].first;
    } else {
      origin = a.extras_[ei].origin;
    }
    SeqNo a_mark = 0;
    if (wi < a.watermarks_.size() && a.watermarks_[wi].first == origin) {
      a_mark = a.watermarks_[wi].second;
      ++wi;
    }
    const SeqNo common = std::min(a_mark, b.watermark(origin));
    if (common > 0) marks.emplace_back(origin, common);
    // Candidates above the common prefix: the rest of a's prefix plus a's
    // extras, each kept iff b covers it too. Both sources are ascending and
    // the extras sit above a_mark, so the emitted run stays sorted.
    for (SeqNo s = common + 1; s <= a_mark; ++s) {
      const UpdateId id{origin, s};
      if (b.contains(id)) extras.push_back(id);
    }
    while (ei < a.extras_.size() && a.extras_[ei].origin == origin) {
      if (b.contains(a.extras_[ei])) extras.push_back(a.extras_[ei]);
      ++ei;
    }
  }
  SummaryVector result;
  result.canonicalise(std::move(marks), std::move(extras));
  return result;
}

SummaryVector SummaryVector::from_parts(
    std::map<NodeId, SeqNo> watermarks,
    std::map<NodeId, std::set<SeqNo>> extras) {
  Watermarks marks;
  marks.reserve(watermarks.size());
  for (const auto& [origin, mark] : watermarks) marks.emplace_back(origin, mark);
  Extras flat;
  for (const auto& [origin, seqs] : extras) {
    for (const SeqNo seq : seqs) flat.push_back(UpdateId{origin, seq});
  }
  SummaryVector sv;
  sv.canonicalise(std::move(marks), std::move(flat));
  return sv;
}

}  // namespace fastcons
