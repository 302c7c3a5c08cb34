// Xenic's host-side Robinhood hash table (paper section 4.1.2).
//
// A closed hash table with linear probing and Robinhood displacement
// balancing, modified for the SmartNIC context:
//
//  * Global displacement limit Dm. An insertion whose displacement would
//    reach Dm goes to the per-segment linked overflow bucket instead.
//  * Fixed-size segments; per-segment displacement bookkeeping backs the
//    NIC index's d_i location hints.
//  * DMA-consistent swapping: Robinhood insertion displaces existing
//    elements; the copy list is applied starting from the final (free)
//    position so a concurrent DMA region read never misses a committed key.
//    A hook runs between the individual copy steps so tests can interleave
//    reads at every intermediate state.
//  * Deletion pulls a qualifying overflow element over the hole when one
//    exists, otherwise performs a bounded backward shift (no tombstones).
//  * Values above kInlineValueLimit (256 B) live in a LargeObjectHeap; the
//    slot stores an 8-byte handle that the NIC dereferences with a second
//    single-object DMA read.
//
// The table is backed by one contiguous byte array that plays the role of
// host DRAM: ReadRegion() copies raw slot bytes exactly as the SmartNIC's
// DMA engine would, and the NIC index parses those bytes.

#ifndef SRC_STORE_ROBINHOOD_TABLE_H_
#define SRC_STORE_ROBINHOOD_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/store/large_object_heap.h"
#include "src/store/types.h"

namespace xenic::store {

// On-"DRAM" slot header layout. Field order matters: the NIC parses raw
// bytes returned by DMA region reads via SlotView.
struct SlotHeader {
  Key key;        // 8 B
  uint16_t disp;  // displacement from home slot
  uint16_t flags; // kSlotOccupied | kSlotLargeValue
  Seq seq;        // version counter
};
static_assert(sizeof(SlotHeader) == 16);

constexpr uint16_t kSlotOccupied = 1u << 0;
constexpr uint16_t kSlotLargeValue = 1u << 1;

constexpr size_t kInlineValueLimit = 256;

// Read-only view over one slot inside a raw byte region.
class SlotView {
 public:
  SlotView(const uint8_t* bytes, size_t value_area) : bytes_(bytes), value_area_(value_area) {}

  SlotHeader header() const {
    SlotHeader h;
    std::memcpy(&h, bytes_, sizeof(h));
    return h;
  }
  bool occupied() const { return (header().flags & kSlotOccupied) != 0; }
  bool large_value() const { return (header().flags & kSlotLargeValue) != 0; }
  Key key() const { return header().key; }
  Seq seq() const { return header().seq; }
  uint16_t disp() const { return header().disp; }

  // Inline value bytes (for large values: the 8-byte heap handle).
  const uint8_t* value_bytes() const { return bytes_ + sizeof(SlotHeader); }
  size_t value_area() const { return value_area_; }
  LargeObjectHeap::Handle large_handle() const {
    LargeObjectHeap::Handle h;
    std::memcpy(&h, value_bytes(), sizeof(h));
    return h;
  }

 private:
  const uint8_t* bytes_;
  size_t value_area_;
};

// Result of a host-local lookup.
struct LookupResult {
  Value value;
  Seq seq = 0;
};

class RobinhoodTable {
 public:
  struct Options {
    size_t capacity_log2 = 16;  // 2^n slots
    size_t value_size = 64;     // logical object size in bytes
    uint16_t max_displacement = 16;   // Dm; 0 means unlimited
    uint16_t segment_slots = 8;       // slots per segment (NIC index granularity)
  };

  explicit RobinhoodTable(const Options& options);

  // --- Host-local operations (used by local transactions and the
  // Robinhood worker threads applying committed write sets). ---

  // Insert a new key. kAlreadyExists if present; kCapacity if full.
  Status Insert(Key key, const Value& value, Seq seq = 1);
  // Update an existing key in place and bump its version.
  Status Update(Key key, const Value& value);
  // Apply a committed write with an explicit version (log replay path).
  // Inserts the key if absent.
  Status Apply(Key key, const Value& value, Seq seq);
  // Remove a key (table slot or overflow).
  Status Erase(Key key);

  std::optional<LookupResult> Lookup(Key key) const;
  bool Contains(Key key) const;
  std::optional<Seq> GetSeq(Key key) const;

  // Every stored key, table slots in slot order then overflow buckets in
  // segment order (a deterministic full scan). Used by the failover state
  // transfer to enumerate a shard's entries; not on any hot path.
  std::vector<Key> Keys() const;

  // --- Geometry, used by the NIC index to plan DMA reads. ---

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_table_ + size_overflow_; }
  size_t overflow_size() const { return size_overflow_; }
  double Occupancy() const { return static_cast<double>(size_table_) / capacity_; }
  size_t slot_size() const { return slot_size_; }
  size_t value_size() const { return value_size_; }
  bool large_values() const { return large_values_; }
  uint16_t max_displacement() const { return max_displacement_; }
  uint16_t segment_slots() const { return segment_slots_; }
  size_t num_segments() const { return num_segments_; }

  size_t HomeSlot(Key key) const { return HashKey(key) & mask_; }
  size_t SegmentOfSlot(size_t slot) const { return slot / segment_slots_; }
  size_t SegmentOfKey(Key key) const { return SegmentOfSlot(HomeSlot(key)); }

  // Host-tracked upper bound on the displacement of keys homed in `segment`.
  // Monotone under inserts; Erase leaves it stale-high (the NIC pays a
  // slightly larger read, never a missed key).
  uint16_t SegmentMaxDisp(size_t segment) const { return seg_max_disp_[segment]; }
  bool SegmentHasOverflow(size_t segment) const {
    return segment < overflow_.size() && !overflow_[segment].empty();
  }
  // Recompute exact per-segment displacement bounds (maintenance sweep).
  void TightenHints();

  // --- DMA-visible surface. ---

  // Copy `count` raw slots starting at `start_slot` (wrapping) into `out`.
  // This is what a SmartNIC DMA read of the table region returns.
  void ReadRegion(size_t start_slot, size_t count, std::vector<uint8_t>& out) const;

  // Parse a raw region (as returned by ReadRegion) searching for `key`.
  // `region_start` is the slot index of the first byte. Returns the offset
  // (in slots) of the match, or nullopt.
  std::optional<size_t> FindInRegion(const std::vector<uint8_t>& region, size_t region_start,
                                     Key key) const;
  SlotView ViewInRegion(const std::vector<uint8_t>& region, size_t slot_offset) const {
    return SlotView(region.data() + slot_offset * slot_size_, slot_size_ - sizeof(SlotHeader));
  }

  struct OverflowEntry {
    Key key;
    Seq seq;
    Value value;
  };
  // Snapshot of a segment's overflow bucket (what a DMA read of the
  // overflow page returns).
  std::vector<OverflowEntry> ReadOverflow(size_t segment) const;

  // Large-object heap (second-hop DMA reads).
  const LargeObjectHeap& heap() const { return heap_; }

  // Decode a value from a slot view, following large-object indirection.
  Value DecodeValue(const SlotView& view) const;

  // Test hook: runs between individual copy steps of a Robinhood insert so
  // tests can interleave DMA reads at every intermediate table state.
  void set_swap_step_hook(std::function<void()> hook) { swap_step_hook_ = std::move(hook); }

  // --- Stats ---
  uint64_t total_swaps() const { return total_swaps_; }
  uint64_t total_probe_slots() const { return total_probe_slots_; }

 private:
  uint8_t* SlotPtr(size_t slot) { return data_.get() + slot * slot_size_; }
  const uint8_t* SlotPtr(size_t slot) const { return data_.get() + slot * slot_size_; }
  SlotHeader Header(size_t slot) const {
    SlotHeader h;
    std::memcpy(&h, SlotPtr(slot), sizeof(h));
    return h;
  }
  void WriteHeader(size_t slot, const SlotHeader& h) { std::memcpy(SlotPtr(slot), &h, sizeof(h)); }
  bool Occupied(size_t slot) const { return (Header(slot).flags & kSlotOccupied) != 0; }
  size_t Advance(size_t slot) const { return (slot + 1) & mask_; }

  // One copy-list step: move the element in `src` (header and inline value
  // area, in place) into `dst` with displacement `disp`.
  void MoveSlot(size_t dst, size_t src, uint16_t disp);
  // Write a new element into `slot`: the value bytes zero-padded to the
  // inline area, or `handle` when the table uses large values.
  void WriteSlot(size_t slot, Key key, Seq seq, const Value& value,
                 LargeObjectHeap::Handle handle, uint16_t disp);
  void ClearSlot(size_t slot);
  void FreeSlotPayload(size_t slot);

  // Find the table slot holding `key`, if any.
  std::optional<size_t> FindSlot(Key key) const;
  std::optional<size_t> FindOverflow(Key key, size_t& segment_out) const;

  void NoteDisp(Key key, uint16_t disp);

  Status InsertInternal(Key key, const Value& value, Seq seq);

  size_t capacity_;
  size_t mask_;
  size_t value_size_;
  bool large_values_;
  size_t inline_area_;  // bytes of value area per slot
  size_t slot_size_;
  uint16_t max_displacement_;
  uint16_t segment_slots_;
  size_t num_segments_;

  std::unique_ptr<uint8_t[]> data_;
  std::vector<std::vector<OverflowEntry>> overflow_;
  std::vector<uint16_t> seg_max_disp_;
  LargeObjectHeap heap_;

  size_t size_table_ = 0;
  size_t size_overflow_ = 0;
  uint64_t total_swaps_ = 0;
  uint64_t total_probe_slots_ = 0;
  std::vector<size_t> chain_;  // Insert's swap chain; reused across calls
  std::function<void()> swap_step_hook_;
};

}  // namespace xenic::store

#endif  // SRC_STORE_ROBINHOOD_TABLE_H_
