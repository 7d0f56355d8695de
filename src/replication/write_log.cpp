#include "replication/write_log.hpp"

#include <algorithm>
#include <tuple>

#include "common/assert.hpp"

namespace fastcons {
namespace {

using Slots = std::vector<std::uint32_t>;

/// First slot in [first, last) whose update has id >= `id`; the slots are
/// sorted by the ids of the updates they name.
Slots::const_iterator slots_lower_bound(const std::vector<Update>& updates,
                                        Slots::const_iterator first,
                                        Slots::const_iterator last,
                                        UpdateId id) {
  return std::lower_bound(first, last, id,
                          [&updates](std::uint32_t slot, UpdateId key) {
                            return updates[slot].id < key;
                          });
}

}  // namespace

bool WriteLog::apply(const Update& update) {
  return apply_moved(Update(update)) != nullptr;
}

const Update* WriteLog::apply_moved(Update&& update) {
  FASTCONS_EXPECTS(update.id.seq > 0);
  if (!summary_.insert(update.id)) return nullptr;
  const auto slot = static_cast<std::uint32_t>(updates_.size());
  const Update& stored = updates_.emplace_back(std::move(update));
  index_.insert(
      slots_lower_bound(updates_, index_.begin(), index_.end(), stored.id),
      slot);
  // Last-writer-wins on (created_at, origin, seq).
  const auto kv_pos = std::lower_bound(
      kv_.begin(), kv_.end(), stored.key,
      [](const auto& entry, const std::string& key) {
        return entry.first < key;
      });
  if (kv_pos == kv_.end() || kv_pos->first != stored.key) {
    kv_.insert(kv_pos,
               {stored.key, KeyState{stored.created_at, stored.id, stored.value}});
  } else {
    KeyState& state = kv_pos->second;
    const auto candidate =
        std::tuple(stored.created_at, stored.id.origin, stored.id.seq);
    const auto incumbent =
        std::tuple(state.written_at, state.by.origin, state.by.seq);
    if (candidate > incumbent) {
      state.written_at = stored.created_at;
      state.by = stored.id;
      state.value = stored.value;
    }
  }
  return &stored;
}

bool WriteLog::contains(UpdateId id) const { return summary_.contains(id); }

std::optional<Update> WriteLog::get(UpdateId id) const {
  const Update* found = find(id);
  if (found == nullptr) return std::nullopt;
  return *found;
}

const Update* WriteLog::find(UpdateId id) const {
  const auto it = slots_lower_bound(updates_, index_.begin(), index_.end(), id);
  if (it == index_.end() || updates_[*it].id != id) return nullptr;
  return &updates_[*it];
}

std::vector<Update> WriteLog::updates_for(
    const SummaryVector& their_summary,
    std::vector<UpdateId>* missing_truncated) const {
  const std::vector<UpdateId> ids = summary_.missing_from(their_summary);
  std::vector<Update> result;
  result.reserve(ids.size());
  // missing_from yields ascending ids within each of its two passes, so one
  // forward cursor serves a pass; it restarts when the ids step back down.
  auto cursor = index_.begin();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const UpdateId id = ids[i];
    if (i > 0 && id < ids[i - 1]) cursor = index_.begin();
    if (cursor == index_.end() || updates_[*cursor].id != id) {
      cursor = slots_lower_bound(updates_, cursor, index_.end(), id);
    }
    if (cursor != index_.end() && updates_[*cursor].id == id) {
      result.push_back(updates_[*cursor]);
      ++cursor;
    } else if (missing_truncated != nullptr) {
      missing_truncated->push_back(id);
    }
  }
  return result;
}

std::optional<std::string> WriteLog::read(const std::string& key) const {
  const auto it = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == kv_.end() || it->first != key) return std::nullopt;
  return it->second.value;
}

std::vector<std::string> WriteLog::keys() const {
  std::vector<std::string> result;
  result.reserve(kv_.size());
  for (const auto& [key, state] : kv_) {
    (void)state;
    result.push_back(key);
  }
  return result;
}

std::size_t WriteLog::truncate_below(const SummaryVector& stable) {
  const auto covered = [&](const Update& u) { return stable.contains(u.id); };
  if (std::none_of(updates_.begin(), updates_.end(), covered)) return 0;
  // Compact the payloads in arrival order, recording each survivor's new
  // slot, then drop and renumber the index entries.
  constexpr std::uint32_t kDropped = ~std::uint32_t{0};
  std::vector<std::uint32_t> renumber(updates_.size(), kDropped);
  std::uint32_t kept = 0;
  for (std::size_t slot = 0; slot < updates_.size(); ++slot) {
    if (covered(updates_[slot])) continue;
    if (kept != slot) updates_[kept] = std::move(updates_[slot]);
    renumber[slot] = kept++;
  }
  const std::size_t dropped = updates_.size() - kept;
  updates_.resize(kept);
  std::erase_if(index_,
                [&](std::uint32_t slot) { return renumber[slot] == kDropped; });
  for (std::uint32_t& slot : index_) slot = renumber[slot];
  return dropped;
}

std::vector<Update> WriteLog::all_retained() const {
  std::vector<Update> result;
  result.reserve(index_.size());
  for (const std::uint32_t slot : index_) result.push_back(updates_[slot]);
  return result;
}

void WriteLog::restore(std::vector<Update> updates, const SummaryVector& cover) {
  for (Update& update : updates) {
    apply_moved(std::move(update));
  }
  summary_.merge(cover);
}

std::uint64_t WriteLog::kv_digest() const noexcept {
  // FNV-1a over (key, 0, value, 0) in key order. kv_ is sorted by key, so
  // the digest depends only on the materialised state, not insertion order.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    h *= 1099511628211ull;  // NUL separator step
  };
  for (const auto& [key, state] : kv_) {
    mix(key);
    mix(state.value);
  }
  return h;
}

}  // namespace fastcons
