#include "src/store/robinhood_table.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace xenic::store {

namespace {
// Dm = 0 means "unlimited": displacement is then bounded only by the uint16
// field; real occupancies keep probes in the tens of slots.
constexpr uint16_t kUnlimitedDisp = 0xFFFF;
}  // namespace

RobinhoodTable::RobinhoodTable(const Options& options)
    : capacity_(size_t{1} << options.capacity_log2),
      mask_(capacity_ - 1),
      value_size_(options.value_size),
      large_values_(options.value_size > kInlineValueLimit),
      inline_area_(large_values_ ? sizeof(LargeObjectHeap::Handle) : options.value_size),
      slot_size_(sizeof(SlotHeader) + inline_area_),
      max_displacement_(options.max_displacement == 0 ? kUnlimitedDisp : options.max_displacement),
      segment_slots_(options.segment_slots),
      num_segments_((capacity_ + options.segment_slots - 1) / options.segment_slots),
      data_(new uint8_t[capacity_ * slot_size_]()),
      overflow_(num_segments_),
      seg_max_disp_(num_segments_, 0) {
  assert(options.segment_slots > 0);
}

void RobinhoodTable::MoveSlot(size_t dst, size_t src, uint16_t disp) {
  std::memmove(SlotPtr(dst), SlotPtr(src), slot_size_);
  SlotHeader h = Header(dst);
  h.disp = disp;
  WriteHeader(dst, h);
  NoteDisp(h.key, disp);
  if (swap_step_hook_) {
    swap_step_hook_();
  }
}

void RobinhoodTable::WriteSlot(size_t slot, Key key, Seq seq, const Value& value,
                               LargeObjectHeap::Handle handle, uint16_t disp) {
  SlotHeader h{};
  h.key = key;
  h.seq = seq;
  h.disp = disp;
  h.flags = kSlotOccupied;
  uint8_t* area = SlotPtr(slot) + sizeof(SlotHeader);
  if (large_values_) {
    h.flags |= kSlotLargeValue;
    std::memcpy(area, &handle, sizeof(handle));
  } else {
    const size_t n = std::min(value.size(), inline_area_);
    std::copy_n(value.data(), n, area);
    std::fill_n(area + n, inline_area_ - n, 0);
  }
  WriteHeader(slot, h);
  NoteDisp(key, disp);
  if (swap_step_hook_) {
    swap_step_hook_();
  }
}

void RobinhoodTable::ClearSlot(size_t slot) {
  SlotHeader h{};
  WriteHeader(slot, h);
}

void RobinhoodTable::FreeSlotPayload(size_t slot) {
  const SlotHeader h = Header(slot);
  if ((h.flags & kSlotLargeValue) != 0) {
    SlotView view(SlotPtr(slot), inline_area_);
    heap_.Free(view.large_handle());
  }
}

Value RobinhoodTable::DecodeValue(const SlotView& view) const {
  if (view.large_value()) {
    return heap_.Get(view.large_handle());
  }
  return Value(view.value_bytes(), view.value_bytes() + value_size_);
}

void RobinhoodTable::NoteDisp(Key key, uint16_t disp) {
  const size_t seg = SegmentOfKey(key);
  seg_max_disp_[seg] = std::max(seg_max_disp_[seg], disp);
}

std::optional<size_t> RobinhoodTable::FindSlot(Key key) const {
  const size_t home = HomeSlot(key);
  size_t pos = home;
  for (uint16_t d = 0; d < max_displacement_; ++d) {
    const SlotHeader h = Header(pos);
    if ((h.flags & kSlotOccupied) == 0) {
      return std::nullopt;
    }
    if (h.key == key) {
      return pos;
    }
    pos = Advance(pos);
    if (pos == home) {
      break;  // wrapped the whole table
    }
  }
  return std::nullopt;
}

std::optional<size_t> RobinhoodTable::FindOverflow(Key key, size_t& segment_out) const {
  const size_t seg = SegmentOfKey(key);
  const auto& bucket = overflow_[seg];
  for (size_t i = 0; i < bucket.size(); ++i) {
    if (bucket[i].key == key) {
      segment_out = seg;
      return i;
    }
  }
  return std::nullopt;
}

bool RobinhoodTable::Contains(Key key) const {
  size_t seg = 0;
  return FindSlot(key).has_value() || FindOverflow(key, seg).has_value();
}

std::optional<LookupResult> RobinhoodTable::Lookup(Key key) const {
  if (auto slot = FindSlot(key)) {
    SlotView view(SlotPtr(*slot), inline_area_);
    return LookupResult{DecodeValue(view), view.seq()};
  }
  size_t seg = 0;
  if (auto idx = FindOverflow(key, seg)) {
    const auto& e = overflow_[seg][*idx];
    return LookupResult{e.value, e.seq};
  }
  return std::nullopt;
}

std::optional<Seq> RobinhoodTable::GetSeq(Key key) const {
  if (auto slot = FindSlot(key)) {
    return Header(*slot).seq;
  }
  size_t seg = 0;
  if (auto idx = FindOverflow(key, seg)) {
    return overflow_[seg][*idx].seq;
  }
  return std::nullopt;
}

std::vector<Key> RobinhoodTable::Keys() const {
  std::vector<Key> out;
  out.reserve(size());
  for (size_t s = 0; s < capacity_; ++s) {
    if (Occupied(s)) {
      out.push_back(Header(s).key);
    }
  }
  for (const auto& bucket : overflow_) {
    for (const auto& e : bucket) {
      out.push_back(e.key);
    }
  }
  return out;
}

Status RobinhoodTable::Insert(Key key, const Value& value, Seq seq) {
  if (Contains(key)) {
    return Status::AlreadyExists();
  }
  return InsertInternal(key, value, seq);
}

Status RobinhoodTable::InsertInternal(Key key, const Value& value, Seq seq) {
  if (size_table_ == capacity_ && max_displacement_ == kUnlimitedDisp) {
    return Status::Capacity("table full");
  }

  const size_t home = HomeSlot(key);

  // Phase 1: read-only probe collecting the swap chain. `carried_home`
  // tracks the home of the element currently being carried so the overflow
  // terminal files it under the right segment.
  std::vector<size_t>& chain = chain_;
  chain.clear();
  size_t pos = home;
  size_t carried_home = home;
  uint16_t carried_disp = 0;
  bool to_overflow = false;
  size_t probes = 0;

  while (true) {
    if (carried_disp >= max_displacement_) {
      to_overflow = true;
      break;
    }
    const SlotHeader h = Header(pos);
    ++probes;
    if ((h.flags & kSlotOccupied) == 0) {
      break;  // empty terminal at pos
    }
    if (h.disp < carried_disp) {
      chain.push_back(pos);
      carried_home = (pos - h.disp) & mask_;
      carried_disp = h.disp;
    }
    pos = Advance(pos);
    ++carried_disp;
  }
  total_probe_slots_ += probes;
  total_swaps_ += chain.size();

  // The fresh element goes straight to overflow when nothing was displaced.
  if (to_overflow && chain.empty()) {
    overflow_[SegmentOfSlot(home)].push_back(OverflowEntry{key, seq, value});
    size_overflow_++;
    if (swap_step_hook_) {
      swap_step_hook_();
    }
    return Status::Ok();
  }

  // Otherwise it enters the table; large values get their heap object
  // before any displaced one is freed.
  const LargeObjectHeap::Handle handle =
      large_values_ ? heap_.Alloc(value) : LargeObjectHeap::kNullHandle;

  // Phase 2: apply from the terminal backwards (the copy list). Each move
  // writes the destination before the source slot is overwritten by the
  // previous element in the chain, so a concurrent DMA region read always
  // finds every committed key (paper: DMA-consistent swapping).
  size_t dest = pos;
  if (to_overflow) {
    // The last displaced resident is appended to its home segment's
    // overflow, and its slot becomes the copy list's terminal.
    const size_t last = chain.back();
    SlotView view(SlotPtr(last), inline_area_);
    Value displaced_value = DecodeValue(view);
    if (view.large_value()) {
      heap_.Free(view.large_handle());
    }
    overflow_[SegmentOfSlot(carried_home)].push_back(
        OverflowEntry{view.key(), view.seq(), std::move(displaced_value)});
    size_overflow_++;
    if (swap_step_hook_) {
      swap_step_hook_();
    }
    chain.pop_back();
    dest = last;
  }
  // Element at chain[i-1] moves into the slot freed after it.
  for (size_t i = chain.size(); i > 0; --i) {
    const size_t src = chain[i - 1];
    const size_t moving_home = (src - Header(src).disp) & mask_;
    MoveSlot(dest, src, static_cast<uint16_t>((dest - moving_home) & mask_));
    dest = src;
  }
  WriteSlot(dest, key, seq, value, handle, static_cast<uint16_t>((dest - home) & mask_));
  if (!to_overflow) {
    size_table_++;  // one element left to overflow otherwise
  }
  return Status::Ok();
}

Status RobinhoodTable::Update(Key key, const Value& value) {
  if (auto slot = FindSlot(key)) {
    SlotHeader h = Header(*slot);
    if ((h.flags & kSlotLargeValue) != 0) {
      SlotView view(SlotPtr(*slot), inline_area_);
      heap_.Update(view.large_handle(), value);
    } else {
      std::memcpy(SlotPtr(*slot) + sizeof(SlotHeader), value.data(),
                  std::min(value.size(), inline_area_));
    }
    h.seq++;
    WriteHeader(*slot, h);
    return Status::Ok();
  }
  size_t seg = 0;
  if (auto idx = FindOverflow(key, seg)) {
    auto& e = overflow_[seg][*idx];
    e.value = value;
    e.seq++;
    return Status::Ok();
  }
  return Status::NotFound();
}

Status RobinhoodTable::Apply(Key key, const Value& value, Seq seq) {
  if (auto slot = FindSlot(key)) {
    SlotHeader h = Header(*slot);
    if ((h.flags & kSlotLargeValue) != 0) {
      SlotView view(SlotPtr(*slot), inline_area_);
      heap_.Update(view.large_handle(), value);
    } else {
      std::memcpy(SlotPtr(*slot) + sizeof(SlotHeader), value.data(),
                  std::min(value.size(), inline_area_));
    }
    h.seq = seq;
    WriteHeader(*slot, h);
    return Status::Ok();
  }
  size_t seg = 0;
  if (auto idx = FindOverflow(key, seg)) {
    auto& e = overflow_[seg][*idx];
    e.value = value;
    e.seq = seq;
    return Status::Ok();
  }
  return InsertInternal(key, value, seq);
}

Status RobinhoodTable::Erase(Key key) {
  size_t seg = 0;
  if (auto idx = FindOverflow(key, seg)) {
    overflow_[seg].erase(overflow_[seg].begin() + static_cast<ptrdiff_t>(*idx));
    size_overflow_--;
    return Status::Ok();
  }
  auto slot = FindSlot(key);
  if (!slot) {
    return Status::NotFound();
  }
  const size_t s = *slot;
  const uint16_t old_disp = Header(s).disp;
  FreeSlotPayload(s);
  ClearSlot(s);
  size_table_--;

  // Try to pull a qualifying overflow element over the hole. An element
  // with home h qualifies when (a) its displacement at s stays within Dm,
  // (b) it is at least as displaced as the deleted element was (so other
  // keys' probe-path invariants cannot weaken), and (c) every slot on its
  // probe path [h, s) is occupied with disp(t) >= t - h (so the element
  // itself stays findable and future backward shifts stay safe).
  const size_t span = std::min<size_t>(max_displacement_, capacity_);
  const size_t first_seg = SegmentOfSlot((s - (span - 1)) & mask_);
  const size_t seg_count =
      size_overflow_ == 0 ? 0 : (span + segment_slots_ - 1) / segment_slots_ + 1;
  for (size_t k = 0; k < seg_count; ++k) {
    const size_t cand_seg = (first_seg + k) % num_segments_;
    auto& bucket = overflow_[cand_seg];
    for (size_t i = 0; i < bucket.size(); ++i) {
      const size_t h = HomeSlot(bucket[i].key);
      const auto d = static_cast<uint16_t>((s - h) & mask_);
      if (d >= max_displacement_ || d < old_disp) {
        continue;
      }
      bool path_ok = true;
      size_t t = h;
      for (uint16_t pd = 0; pd < d; ++pd, t = Advance(t)) {
        const SlotHeader th = Header(t);
        if ((th.flags & kSlotOccupied) == 0 || th.disp < pd) {
          path_ok = false;
          break;
        }
      }
      if (!path_ok) {
        continue;
      }
      // Re-insert the overflow entry at the hole.
      const OverflowEntry& e = bucket[i];
      WriteSlot(s, e.key, e.seq, e.value,
                large_values_ ? heap_.Alloc(e.value) : LargeObjectHeap::kNullHandle, d);
      bucket.erase(bucket.begin() + static_cast<ptrdiff_t>(i));
      size_overflow_--;
      size_table_++;
      return Status::Ok();
    }
  }

  // Backward shift: move each following displaced element one slot closer
  // to its home until an empty slot or a disp-0 element ends the run.
  size_t hole = s;
  size_t t = Advance(s);
  while (t != s) {
    const SlotHeader th = Header(t);
    if ((th.flags & kSlotOccupied) == 0 || th.disp == 0) {
      break;
    }
    MoveSlot(hole, t, static_cast<uint16_t>(th.disp - 1));
    ClearSlot(t);
    hole = t;
    t = Advance(t);
  }
  return Status::Ok();
}

void RobinhoodTable::TightenHints() {
  std::fill(seg_max_disp_.begin(), seg_max_disp_.end(), 0);
  for (size_t slot = 0; slot < capacity_; ++slot) {
    const SlotHeader h = Header(slot);
    if ((h.flags & kSlotOccupied) != 0) {
      const size_t home = (slot - h.disp) & mask_;
      const size_t seg = SegmentOfSlot(home);
      seg_max_disp_[seg] = std::max(seg_max_disp_[seg], h.disp);
    }
  }
}

void RobinhoodTable::ReadRegion(size_t start_slot, size_t count, std::vector<uint8_t>& out) const {
  count = std::min(count, capacity_);
  out.resize(count * slot_size_);
  const size_t first = std::min(count, capacity_ - (start_slot & mask_));
  std::memcpy(out.data(), SlotPtr(start_slot & mask_), first * slot_size_);
  if (first < count) {
    std::memcpy(out.data() + first * slot_size_, SlotPtr(0), (count - first) * slot_size_);
  }
}

std::optional<size_t> RobinhoodTable::FindInRegion(const std::vector<uint8_t>& region,
                                                   size_t region_start, Key key) const {
  (void)region_start;
  const size_t slots = region.size() / slot_size_;
  for (size_t i = 0; i < slots; ++i) {
    SlotView view(region.data() + i * slot_size_, inline_area_);
    if (view.occupied() && view.key() == key) {
      return i;
    }
  }
  return std::nullopt;
}

std::vector<RobinhoodTable::OverflowEntry> RobinhoodTable::ReadOverflow(size_t segment) const {
  return overflow_[segment];
}

}  // namespace xenic::store
