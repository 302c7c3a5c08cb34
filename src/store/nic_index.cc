#include "src/store/nic_index.h"

#include <algorithm>
#include <cassert>

namespace xenic::store {

uint32_t NicIndex::ValueSlab::Alloc() {
  if (!free_.empty()) {
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if ((next_ & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(stride_ << kChunkShift));
  }
  return next_++;
}

NicIndex::NicIndex(const RobinhoodTable* host, const Options& options)
    : host_(host),
      options_(options),
      dm_(host->max_displacement()),
      entries_(host->num_segments()),
      ways_(host->num_segments() * options.ways_per_entry),
      slab_(host->value_size()) {}

NicIndex::CachedObject& NicIndex::At(size_t segment, size_t pos) {
  if (pos < options_.ways_per_entry) {
    return Ways(segment)[pos];
  }
  return entries_[segment].overflow_pages[pos - options_.ways_per_entry];
}

NicIndex::CachedObject* NicIndex::Find(Key key) {
  const size_t segment = host_->SegmentOfKey(key);
  CachedObject* ways = Ways(segment);
  for (size_t i = 0; i < options_.ways_per_entry; ++i) {
    if (ways[i].valid && ways[i].key == key) {
      return &ways[i];
    }
  }
  for (auto& obj : entries_[segment].overflow_pages) {
    if (obj.valid && obj.key == key) {
      return &obj;
    }
  }
  return nullptr;
}

const NicIndex::CachedObject* NicIndex::Find(Key key) const {
  return const_cast<NicIndex*>(this)->Find(key);
}

NicIndex::CachedObject* NicIndex::Ensure(Key key) {
  if (CachedObject* existing = Find(key)) {
    return existing;
  }
  // Make room first so the freshly created slot cannot evict itself.
  EvictUntilWithinBudget();
  const size_t segment = host_->SegmentOfKey(key);
  CachedObject* slot = nullptr;
  for (size_t pos = 0; pos < Positions(segment) && slot == nullptr; ++pos) {
    if (CachedObject& obj = At(segment, pos); !obj.valid) {
      slot = &obj;
    }
  }
  if (slot == nullptr) {
    // Every way and page is taken: chain another overflow page position.
    slot = &entries_[segment].overflow_pages.emplace_back();
  }
  *slot = CachedObject{};
  slot->key = key;
  slot->valid = true;
  cached_objects_++;
  cached_bytes_ += CostOf(*slot);
  return slot;
}

void NicIndex::Release(CachedObject& obj) {
  assert(obj.valid);
  cached_bytes_ -= CostOf(obj);
  cached_objects_--;
  if (obj.has_value) {
    slab_.Free(obj.value_slot);
  }
  obj = CachedObject{};
}

void NicIndex::StoreValue(CachedObject& obj, const Value& value) {
  assert(value.size() <= slab_.stride() && "cached value exceeds the table's value_size");
  cached_bytes_ -= CostOf(obj);
  if (!obj.has_value) {
    obj.value_slot = slab_.Alloc();
    obj.has_value = true;
  }
  std::copy(value.begin(), value.end(), slab_.At(obj.value_slot));
  obj.value_len = static_cast<uint32_t>(value.size());
  cached_bytes_ += CostOf(obj);
}

void NicIndex::DropValue(CachedObject& obj) {
  cached_bytes_ -= CostOf(obj);
  slab_.Free(obj.value_slot);
  obj.has_value = false;
  obj.value_len = 0;
  cached_bytes_ += CostOf(obj);
}

void NicIndex::EvictUntilWithinBudget() {
  if (options_.memory_budget == 0) {
    return;
  }
  size_t sweep = 0;
  const size_t max_sweep = 2 * entries_.size() + 16;
  while (cached_bytes_ > options_.memory_budget && sweep < max_sweep) {
    if (clock_way_ >= Positions(clock_segment_)) {
      clock_way_ = 0;
      clock_segment_ = (clock_segment_ + 1) % entries_.size();
      sweep++;
      continue;
    }
    CachedObject& obj = At(clock_segment_, clock_way_);
    clock_way_++;
    if (!obj.valid || obj.pin_count > 0 || obj.lock_owner != kNoTxn) {
      continue;
    }
    if (obj.ref) {
      obj.ref = false;  // second-chance
      continue;
    }
    Release(obj);
    evictions_++;
  }
}

std::optional<NicIndex::RemoteObject> NicIndex::LookupRemote(Key key, LookupStats* stats) {
  LookupStats local;
  LookupStats* st = stats != nullptr ? stats : &local;
  if (CachedObject* obj = Find(key); obj != nullptr && obj->has_value) {
    obj->ref = true;
    st->cache_hit = true;
    st->found = true;
    return RemoteObject{CopyValue(*obj), obj->seq, obj->lock_owner, true};
  }
  return MissPath(key, /*want_value=*/true, st);
}

std::optional<NicIndex::RemoteObject> NicIndex::ReadMetadata(Key key, LookupStats* stats) {
  LookupStats local;
  LookupStats* st = stats != nullptr ? stats : &local;
  if (CachedObject* obj = Find(key); obj != nullptr && (obj->has_value || obj->seq != 0)) {
    obj->ref = true;
    st->cache_hit = true;
    st->found = true;
    return RemoteObject{Value{}, obj->seq, obj->lock_owner, true};
  }
  return MissPath(key, /*want_value=*/false, st);
}

std::optional<NicIndex::RemoteObject> NicIndex::MissPath(Key key, bool want_value,
                                                         LookupStats* st) {
  const size_t segment = host_->SegmentOfKey(key);
  IndexEntry& entry = entries_[segment];
  const size_t home = host_->HomeSlot(key);
  const size_t slot_size = host_->slot_size();

  // First DMA read: displacement range [0, d_hint + k], capped at Dm - 1.
  const uint32_t first_span = std::min<uint32_t>(
      static_cast<uint32_t>(entry.d_hint) + options_.hint_slack + 1, dm_);
  host_->ReadRegion(home, first_span, region_buf_);
  st->dma_reads++;
  st->objects_read += first_span;
  st->bytes_read += first_span * slot_size;

  // Completes a lookup that located the key at displacement `disp`, with
  // `view` pointing at the slot bytes inside the region just read.
  auto finish = [&](const SlotView& view, size_t disp) {
    RemoteObject out;
    out.seq = view.seq();
    if (want_value) {
      if (view.large_value()) {
        // Second hop: single-object DMA read from the large-object heap.
        out.value = host_->heap().Get(view.large_handle());
        st->dma_reads++;
        st->bytes_read += out.value.size();
      } else {
        out.value = host_->DecodeValue(view);
      }
    }
    entry.d_hint = std::max<uint16_t>(entry.d_hint, static_cast<uint16_t>(disp));
    if (CachedObject* meta = Find(key)) {
      out.lock_owner = meta->lock_owner;
    }
    if (options_.cache_values && want_value) {
      CachedObject* obj = Ensure(key);
      obj->seq = out.seq;
      StoreValue(*obj, out.value);
      obj->ref = true;
      EvictUntilWithinBudget();
    }
    st->found = true;
    return out;
  };

  if (auto offset = host_->FindInRegion(region_buf_, home, key)) {
    return finish(host_->ViewInRegion(region_buf_, *offset), *offset);
  }
  // Stale-hint case: a concurrent host insert moved the key past
  // d_hint + k. With a displacement limit, one second adjacent read covers
  // the remaining range up to Dm; without a limit, read adjacent chunks
  // until the key or an empty slot (a Robinhood probe run cannot continue
  // past an empty slot) appears.
  uint32_t scanned = first_span;
  bool hit_empty = false;
  {
    const size_t slots = region_buf_.size() / slot_size;
    for (size_t i = 0; i < slots; ++i) {
      if (!host_->ViewInRegion(region_buf_, i).occupied()) {
        hit_empty = true;
        break;
      }
    }
  }
  while (!hit_empty && scanned < dm_) {
    const uint32_t chunk =
        std::min<uint32_t>(dm_ - scanned, std::max<uint32_t>(first_span, 16));
    host_->ReadRegion(home + scanned, chunk, region_buf_);
    st->dma_reads++;
    st->objects_read += chunk;
    st->bytes_read += chunk * slot_size;
    if (auto off = host_->FindInRegion(region_buf_, home + scanned, key)) {
      return finish(host_->ViewInRegion(region_buf_, *off), *off + scanned);
    }
    const size_t slots = region_buf_.size() / slot_size;
    for (size_t i = 0; i < slots; ++i) {
      if (!host_->ViewInRegion(region_buf_, i).occupied()) {
        hit_empty = true;
        break;
      }
    }
    scanned += chunk;
  }

  // Not in the table region; consult the segment's overflow page when the
  // host side has one.
  if (entry.has_overflow || host_->SegmentHasOverflow(segment)) {
    auto bucket = host_->ReadOverflow(segment);
    st->dma_reads++;
    st->objects_read += static_cast<uint32_t>(bucket.size());
    for (const auto& e : bucket) {
      st->bytes_read += sizeof(SlotHeader) + e.value.size();
    }
    for (auto& e : bucket) {
      if (e.key == key) {
        RemoteObject out;
        out.seq = e.seq;
        if (want_value) {
          out.value = std::move(e.value);
        }
        if (CachedObject* meta = Find(key)) {
          out.lock_owner = meta->lock_owner;
        }
        st->found = true;
        return out;
      }
    }
  }
  return std::nullopt;
}

void NicIndex::AdmitOnLoad(Key key, const Value& value, Seq seq) {
  if (!options_.cache_values || !options_.admit_on_load) {
    return;
  }
  CachedObject* obj = Ensure(key);
  StoreValue(*obj, value);
  obj->seq = seq;
  EvictUntilWithinBudget();
}

Status NicIndex::AcquireLock(Key key, TxnId txn) {
  CachedObject* obj = Ensure(key);
  if (obj->lock_owner != kNoTxn && obj->lock_owner != txn) {
    return Status::Aborted("lock held");
  }
  obj->lock_owner = txn;
  return Status::Ok();
}

void NicIndex::ReleaseLock(Key key, TxnId txn) {
  if (CachedObject* obj = Find(key)) {
    if (obj->lock_owner == txn) {
      obj->lock_owner = kNoTxn;
    }
  }
}

bool NicIndex::IsLocked(Key key) const {
  const CachedObject* obj = Find(key);
  return obj != nullptr && obj->lock_owner != kNoTxn;
}

TxnId NicIndex::LockOwner(Key key) const {
  const CachedObject* obj = Find(key);
  return obj != nullptr ? obj->lock_owner : kNoTxn;
}

void NicIndex::ApplyCommit(Key key, const Value& value, Seq seq) {
  CachedObject* obj = Ensure(key);
  StoreValue(*obj, value);
  obj->seq = seq;
  obj->ref = true;
  if (obj->pin_count == 0) {
    pinned_objects_++;
  }
  obj->pin_count++;
}

void NicIndex::OnHostApplied(Key key, uint16_t segment_disp, bool has_overflow) {
  if (CachedObject* obj = Find(key)) {
    if (obj->pin_count > 0) {
      obj->pin_count--;
      if (obj->pin_count == 0) {
        pinned_objects_--;
      }
    }
  }
  UpdateHint(host_->SegmentOfKey(key), segment_disp, has_overflow);
  EvictUntilWithinBudget();
}

void NicIndex::UpdateHint(size_t segment, uint16_t disp, bool has_overflow) {
  IndexEntry& entry = entries_[segment];
  entry.d_hint = std::max(entry.d_hint, std::min<uint16_t>(disp, dm_));
  entry.has_overflow = entry.has_overflow || has_overflow;
}

void NicIndex::SyncHintsFromHost() {
  for (size_t seg = 0; seg < entries_.size(); ++seg) {
    entries_[seg].d_hint = std::min<uint16_t>(host_->SegmentMaxDisp(seg), dm_);
    entries_[seg].has_overflow = host_->SegmentHasOverflow(seg);
  }
}

bool NicIndex::IsCached(Key key) const {
  const CachedObject* obj = Find(key);
  return obj != nullptr && obj->has_value;
}

void NicIndex::Invalidate(Key key) {
  if (CachedObject* obj = Find(key)) {
    if (obj->pin_count > 0) {
      // A pinned object is a committed value the host has not applied yet:
      // the NIC copy is the only fresh one, so it must survive every form
      // of eviction (the miss path DMA-reads the stale host table).
      return;
    }
    if (obj->has_value) {
      DropValue(*obj);
      obj->seq = 0;
    }
    if (obj->lock_owner == kNoTxn && obj->pin_count == 0) {
      Release(*obj);
    }
  }
}

std::vector<NicIndex::CachedEntry> NicIndex::CachedEntries() const {
  std::vector<CachedEntry> out;
  for (size_t seg = 0; seg < entries_.size(); ++seg) {
    for (size_t pos = 0; pos < Positions(seg); ++pos) {
      const CachedObject& obj = At(seg, pos);
      if (obj.valid && obj.has_value) {
        out.push_back(CachedEntry{obj.key, obj.seq, {slab_.At(obj.value_slot), obj.value_len},
                                  obj.pin_count > 0, obj.lock_owner != kNoTxn});
      }
    }
  }
  return out;
}

std::vector<NicIndex::LockedKey> NicIndex::LockedKeys() const {
  std::vector<LockedKey> out;
  for (size_t seg = 0; seg < entries_.size(); ++seg) {
    for (size_t pos = 0; pos < Positions(seg); ++pos) {
      const CachedObject& obj = At(seg, pos);
      if (obj.valid && obj.lock_owner != kNoTxn) {
        out.push_back(LockedKey{obj.key, obj.lock_owner});
      }
    }
  }
  return out;
}

std::optional<Seq> NicIndex::CachedSeq(Key key) const {
  const CachedObject* obj = Find(key);
  if (obj == nullptr || (!obj->has_value && obj->seq == 0)) {
    return std::nullopt;
  }
  return obj->seq;
}

}  // namespace xenic::store
