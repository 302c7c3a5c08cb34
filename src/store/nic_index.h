// SmartNIC caching index over the host Robinhood table (paper section 4.1.3).
//
// NIC DRAM holds, per host-table segment, an index entry containing:
//   * a small cache of objects homed in that segment (fixed "ways" plus
//     chained overflow pages),
//   * transaction metadata (lock owner, version) for objects touched by
//     ongoing transactions,
//   * the highest known displacement d_i of keys homed in the segment and
//     an overflow flag, which turn cache-miss lookups into a single bounded
//     DMA region read in the common case.
//
// The index is a pure data structure: every remote lookup executes
// synchronously against the host table's DMA-visible surface (ReadRegion /
// ReadOverflow / heap) and returns a cost receipt (DMA reads issued, slots
// and bytes read, cache hit or miss). The NIC runtime converts receipts
// into simulated DMA latency and batching behaviour; benches aggregate them
// directly for Table 2.

#ifndef SRC_STORE_NIC_INDEX_H_
#define SRC_STORE_NIC_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/store/robinhood_table.h"
#include "src/store/types.h"

namespace xenic::store {

class NicIndex {
 public:
  struct Options {
    size_t ways_per_entry = 4;   // fixed cache positions per index entry
    uint16_t hint_slack = 1;     // k: slots read beyond d_i (paper picks 1)
    uint64_t memory_budget = 0;  // bytes of NIC DRAM for cached objects; 0 = unlimited
    bool cache_values = true;    // admit looked-up values (Table 2 turns this off)
    // Admit keys into the cache at bulk-load time (models the steady-state
    // warm cache of a long-running deployment; the LiquidIO's 16 GB DRAM
    // comfortably holds the benchmarks' hot tables).
    bool admit_on_load = true;
  };

  // Cost receipt for one remote operation.
  struct LookupStats {
    uint32_t dma_reads = 0;      // region + overflow + large-object reads
    uint32_t objects_read = 0;   // host slots / overflow entries scanned
    uint64_t bytes_read = 0;     // DMA payload bytes
    bool cache_hit = false;
    bool found = false;
  };

  struct RemoteObject {
    Value value;
    Seq seq = 0;
    TxnId lock_owner = kNoTxn;
    bool from_cache = false;
  };

  NicIndex(const RobinhoodTable* host, const Options& options);

  // --- Remote data path (server-side NIC handlers). ---

  // Full remote lookup: cache first, then planned DMA reads against the
  // host table. Admits the object into the cache when cache_values is on.
  std::optional<RemoteObject> LookupRemote(Key key, LookupStats* stats);

  // Version/lock probe for VALIDATE: same read path, value decode skipped.
  std::optional<RemoteObject> ReadMetadata(Key key, LookupStats* stats);

  // --- Transaction metadata (locks live only in NIC memory). ---

  // Acquire the write lock for `txn`. Fails with kAborted when another
  // transaction holds it. Creates a metadata-only entry if needed.
  Status AcquireLock(Key key, TxnId txn);
  void ReleaseLock(Key key, TxnId txn);
  bool IsLocked(Key key) const;
  TxnId LockOwner(Key key) const;

  // --- Commit path. ---

  // Apply a committed write to the cached copy and pin it until the host
  // worker has applied the log record (lookups must not read a stale host
  // slot). Creates the cached entry if absent.
  void ApplyCommit(Key key, const Value& value, Seq seq);

  // Host worker finished applying this key's write; unpin and refresh the
  // location hint (the ack piggybacks the segment's current displacement
  // bound and overflow state on host-to-NIC traffic).
  void OnHostApplied(Key key, uint16_t segment_disp, bool has_overflow);

  // Bulk-load admission (no cost receipt; see Options::admit_on_load).
  void AdmitOnLoad(Key key, const Value& value, Seq seq);

  // --- Hint maintenance. ---

  void UpdateHint(size_t segment, uint16_t disp, bool has_overflow);
  // Bootstrap all hints from the host table (rack bring-up / recovery).
  void SyncHintsFromHost();
  uint16_t HintOf(size_t segment) const { return entries_[segment].d_hint; }

  // --- Introspection. ---

  bool IsCached(Key key) const;
  std::optional<Seq> CachedSeq(Key key) const;
  // Audit surface: every cached object with a value, as (key, seq, value).
  // Used by coherence checks (cache must agree with the host table once
  // the system quiesces).
  struct CachedEntry {
    Key key;
    Seq seq;
    // View into the index's value slab: valid until the next call that
    // changes this index (a freed slot is reused by the next admission).
    std::span<const uint8_t> value;
    bool pinned;
    bool locked;
  };
  std::vector<CachedEntry> CachedEntries() const;

  // Audit/recovery surface: every key whose NIC-resident lock word is held,
  // with its owner. Includes metadata-only entries (no cached value), which
  // CachedEntries() skips -- locks live only in NIC memory, so this is the
  // authoritative lock table for leak audits and coordinator-crash sweeps.
  struct LockedKey {
    Key key;
    TxnId owner;
  };
  std::vector<LockedKey> LockedKeys() const;

  // Drop a key's cached value (metadata/locks survive); used when a backup
  // is promoted to primary: its cache was never maintained by the commit
  // protocol and must refill from the (recovered) host table.
  void Invalidate(Key key);
  uint64_t cached_objects() const { return cached_objects_; }
  uint64_t cached_bytes() const { return cached_bytes_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t pinned_objects() const { return pinned_objects_; }
  // Value-slab slots ever created (live plus free); bounded by the peak
  // number of cached values, since freed slots are reused first.
  size_t value_slab_slots() const { return slab_.slots(); }

 private:
  // Cached values, one fixed-stride slot each (stride = the host table's
  // value_size). Slots live in fixed-size chunks that never move, so growth
  // copies nothing; freed slots are reused first.
  class ValueSlab {
   public:
    explicit ValueSlab(size_t stride) : stride_(stride) {}
    uint32_t Alloc();
    void Free(uint32_t slot) { free_.push_back(slot); }
    uint8_t* At(uint32_t slot) {
      return chunks_[slot >> kChunkShift].get() + (slot & kChunkMask) * stride_;
    }
    const uint8_t* At(uint32_t slot) const { return const_cast<ValueSlab*>(this)->At(slot); }
    size_t stride() const { return stride_; }
    size_t slots() const { return next_; }

   private:
    static constexpr uint32_t kChunkShift = 10;  // 1024 slots per chunk
    static constexpr uint32_t kChunkMask = (1u << kChunkShift) - 1;
    size_t stride_;
    uint32_t next_ = 0;  // slots handed out from chunks so far
    std::vector<std::unique_ptr<uint8_t[]>> chunks_;
    std::vector<uint32_t> free_;
  };

  // One cache position. The value, when present, lives in the slab.
  struct CachedObject {
    Key key = 0;
    TxnId lock_owner = kNoTxn;
    Seq seq = 0;
    uint32_t value_slot = 0;  // slab slot; meaningful only with has_value
    uint32_t value_len = 0;
    uint16_t pin_count = 0;
    bool ref : 1 = false;  // CLOCK reference bit
    bool valid : 1 = false;
    bool has_value : 1 = false;
  };
  static_assert(std::is_trivially_destructible_v<CachedObject>);

  // Per-segment index entry. The segment's fixed ways live in `ways_`;
  // positions beyond them (logical position ways_per_entry + i) model the
  // entry's chained overflow pages.
  struct IndexEntry {
    uint16_t d_hint = 0;
    bool has_overflow = false;
    std::vector<CachedObject> overflow_pages;
  };

  CachedObject* Ways(size_t segment) { return ways_.data() + segment * options_.ways_per_entry; }
  size_t Positions(size_t segment) const {
    return options_.ways_per_entry + entries_[segment].overflow_pages.size();
  }
  // Logical position `pos` of `segment`: the fixed ways, then overflow pages.
  CachedObject& At(size_t segment, size_t pos);
  const CachedObject& At(size_t segment, size_t pos) const {
    return const_cast<NicIndex*>(this)->At(segment, pos);
  }
  CachedObject* Find(Key key);
  const CachedObject* Find(Key key) const;
  // Find-or-create a cache slot for `key` (evicting if over budget).
  CachedObject* Ensure(Key key);
  void Release(CachedObject& obj);
  // Copy `value` into the object's slab slot (allocating one if needed),
  // keeping cached_bytes_ in step.
  void StoreValue(CachedObject& obj, const Value& value);
  void DropValue(CachedObject& obj);
  Value CopyValue(const CachedObject& obj) const {
    const uint8_t* bytes = slab_.At(obj.value_slot);
    return Value(bytes, bytes + obj.value_len);
  }
  uint64_t CostOf(const CachedObject& obj) const { return 48 + obj.value_len; }
  void EvictUntilWithinBudget();

  // Shared miss path; when want_value is false the large-object hop is
  // skipped (VALIDATE only needs the version).
  std::optional<RemoteObject> MissPath(Key key, bool want_value, LookupStats* stats);

  const RobinhoodTable* host_;
  Options options_;
  uint16_t dm_;  // host displacement limit (probe cap)
  std::vector<IndexEntry> entries_;
  std::vector<CachedObject> ways_;  // num_segments x ways_per_entry
  ValueSlab slab_;
  uint64_t cached_objects_ = 0;
  uint64_t cached_bytes_ = 0;
  uint64_t pinned_objects_ = 0;
  uint64_t evictions_ = 0;
  size_t clock_segment_ = 0;
  size_t clock_way_ = 0;
  std::vector<uint8_t> region_buf_;  // scratch for DMA region reads
};

}  // namespace xenic::store

#endif  // SRC_STORE_NIC_INDEX_H_
