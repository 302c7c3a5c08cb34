#include "src/txn/hot_key_sketch.h"

namespace xenic::txn {

HotKeySketch::HotKeySketch() : HotKeySketch(Options{}) {}

HotKeySketch::HotKeySketch(const Options& options) : options_(options) {
  slots_.resize(options_.slots);
}

void HotKeySketch::Decay(sim::Tick now) {
  if (options_.decay_interval == 0 || now < last_decay_ + options_.decay_interval) {
    return;
  }
  const sim::Tick elapsed = now - last_decay_;
  const uint64_t intervals = elapsed / options_.decay_interval;
  last_decay_ += intervals * options_.decay_interval;
  for (Slot& s : slots_) {
    if (s.count == 0) {
      continue;
    }
    // Halve once per interval; a long idle gap zeroes the slot outright
    // (shifting by >= 64 is UB and the count is dead anyway).
    s.count = intervals >= 64 ? 0 : s.count >> intervals;
    if (s.hot && s.count <= options_.demote_threshold) {
      s.hot = false;
    }
    if (s.count == 0) {
      s = Slot{};
    }
  }
}

HotKeySketch::Slot* HotKeySketch::Find(const KeyRef& key) {
  for (Slot& s : slots_) {
    if (s.count != 0 && s.key == key) {
      return &s;
    }
  }
  return nullptr;
}

void HotKeySketch::RecordConflict(const KeyRef& key, sim::Tick now) {
  Decay(now);
  Slot* slot = Find(key);
  if (slot == nullptr) {
    // Take an empty slot, else evict the coldest non-hot slot; the
    // newcomer starts at 1 (underestimate -- no false promotions).
    Slot* victim = nullptr;
    for (Slot& s : slots_) {
      if (s.count == 0) {
        victim = &s;
        break;
      }
      if (!s.hot && (victim == nullptr || s.count < victim->count)) {
        victim = &s;
      }
    }
    if (victim == nullptr) {
      return;  // every slot is hot; nothing to learn from one more conflict
    }
    *victim = Slot{key, 0, false};
    slot = victim;
  }
  slot->count++;
  if (slot->count >= options_.promote_threshold) {
    slot->hot = true;
  }
}

bool HotKeySketch::IsHot(const KeyRef& key, sim::Tick now) {
  Decay(now);
  Slot* slot = Find(key);
  return slot != nullptr && slot->hot;
}

size_t HotKeySketch::HotCount(sim::Tick now) {
  Decay(now);
  size_t n = 0;
  for (const Slot& s : slots_) {
    n += s.hot ? 1 : 0;
  }
  return n;
}

}  // namespace xenic::txn
