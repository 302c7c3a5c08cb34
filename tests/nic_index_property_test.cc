// Property tests for the NIC caching index under host-table churn: remote
// lookups must always find every live key regardless of hint staleness,
// hints must remain upper bounds after refresh, and cost receipts must stay
// bounded. Parameterized over displacement limits and cache budgets.
//
// A differential test drives NicIndex and a reference model of the
// one-vector-per-segment layout (one heap Value per cached object) with the
// same random operations and requires every observable to agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/store/nic_index.h"

namespace xenic::store {
namespace {

// Reference model: per segment, one vector of cache positions (the first
// `ways_per_entry` are the fixed ways, the rest overflow pages), each
// holding its own Value. Same algorithms as NicIndex, in the simplest
// layout; only the behaviour NicIndex exposes is modelled.
class RefIndex {
 public:
  using LookupStats = NicIndex::LookupStats;
  using RemoteObject = NicIndex::RemoteObject;

  RefIndex(const RobinhoodTable* host, const NicIndex::Options& options)
      : host_(host), options_(options), dm_(host->max_displacement()),
        entries_(host->num_segments()) {}

  std::optional<RemoteObject> LookupRemote(Key key, LookupStats* st) {
    if (Obj* obj = Find(key); obj != nullptr && obj->has_value) {
      obj->ref = 1;
      st->cache_hit = true;
      st->found = true;
      return RemoteObject{obj->value, obj->seq, obj->lock_owner, true};
    }
    return MissPath(key, /*want_value=*/true, st);
  }

  std::optional<RemoteObject> ReadMetadata(Key key, LookupStats* st) {
    if (Obj* obj = Find(key); obj != nullptr && (obj->has_value || obj->seq != 0)) {
      obj->ref = 1;
      st->cache_hit = true;
      st->found = true;
      return RemoteObject{Value{}, obj->seq, obj->lock_owner, true};
    }
    return MissPath(key, /*want_value=*/false, st);
  }

  Status AcquireLock(Key key, TxnId txn) {
    Obj* obj = Ensure(key);
    if (obj->lock_owner != kNoTxn && obj->lock_owner != txn) {
      return Status::Aborted("lock held");
    }
    obj->lock_owner = txn;
    return Status::Ok();
  }

  void ReleaseLock(Key key, TxnId txn) {
    if (Obj* obj = Find(key); obj != nullptr && obj->lock_owner == txn) {
      obj->lock_owner = kNoTxn;
    }
  }

  void ApplyCommit(Key key, const Value& value, Seq seq) {
    Obj* obj = Ensure(key);
    SetValue(*obj, value);
    obj->seq = seq;
    obj->ref = 1;
    if (obj->pin_count == 0) {
      pinned_objects_++;
    }
    obj->pin_count++;
  }

  void OnHostApplied(Key key, uint16_t segment_disp, bool has_overflow) {
    if (Obj* obj = Find(key); obj != nullptr && obj->pin_count > 0) {
      if (--obj->pin_count == 0) {
        pinned_objects_--;
      }
    }
    Entry& entry = entries_[host_->SegmentOfKey(key)];
    entry.d_hint = std::max(entry.d_hint, std::min<uint16_t>(segment_disp, dm_));
    entry.has_overflow = entry.has_overflow || has_overflow;
    EvictUntilWithinBudget();
  }

  void AdmitOnLoad(Key key, const Value& value, Seq seq) {
    if (!options_.cache_values || !options_.admit_on_load) {
      return;
    }
    Obj* obj = Ensure(key);
    SetValue(*obj, value);
    obj->seq = seq;
    EvictUntilWithinBudget();
  }

  void Invalidate(Key key) {
    Obj* obj = Find(key);
    if (obj == nullptr || obj->pin_count > 0) {
      return;
    }
    if (obj->has_value) {
      cached_bytes_ -= 48 + obj->value.size();
      obj->value.clear();
      obj->has_value = false;
      obj->seq = 0;
      cached_bytes_ += 48;
    }
    if (obj->lock_owner == kNoTxn) {
      Release(*obj);
    }
  }

  std::vector<NicIndex::CachedEntry> CachedEntries() const {
    std::vector<NicIndex::CachedEntry> out;
    for (const auto& entry : entries_) {
      for (const auto& obj : entry.objects) {
        if (obj.valid && obj.has_value) {
          out.push_back(NicIndex::CachedEntry{obj.key, obj.seq, obj.value, obj.pin_count > 0,
                                              obj.lock_owner != kNoTxn});
        }
      }
    }
    return out;
  }

  std::vector<NicIndex::LockedKey> LockedKeys() const {
    std::vector<NicIndex::LockedKey> out;
    for (const auto& entry : entries_) {
      for (const auto& obj : entry.objects) {
        if (obj.valid && obj.lock_owner != kNoTxn) {
          out.push_back(NicIndex::LockedKey{obj.key, obj.lock_owner});
        }
      }
    }
    return out;
  }

  uint64_t cached_objects() const { return cached_objects_; }
  uint64_t cached_bytes() const { return cached_bytes_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t pinned_objects() const { return pinned_objects_; }

 private:
  struct Obj {
    Key key = 0;
    Seq seq = 0;
    TxnId lock_owner = kNoTxn;
    uint16_t pin_count = 0;
    uint8_t ref = 0;
    bool valid = false;
    bool has_value = false;
    Value value;
  };
  struct Entry {
    uint16_t d_hint = 0;
    bool has_overflow = false;
    std::vector<Obj> objects;
  };

  Obj* Find(Key key) {
    for (auto& obj : entries_[host_->SegmentOfKey(key)].objects) {
      if (obj.valid && obj.key == key) {
        return &obj;
      }
    }
    return nullptr;
  }

  Obj* Ensure(Key key) {
    if (Obj* existing = Find(key)) {
      return existing;
    }
    EvictUntilWithinBudget();
    Entry& entry = entries_[host_->SegmentOfKey(key)];
    auto it = std::find_if(entry.objects.begin(), entry.objects.end(),
                           [](const Obj& o) { return !o.valid; });
    Obj* slot = it != entry.objects.end() ? &*it : &entry.objects.emplace_back();
    *slot = Obj{};
    slot->key = key;
    slot->valid = true;
    cached_objects_++;
    cached_bytes_ += 48;
    return slot;
  }

  void SetValue(Obj& obj, const Value& value) {
    cached_bytes_ -= 48 + obj.value.size();
    obj.value = value;
    obj.has_value = true;
    cached_bytes_ += 48 + obj.value.size();
  }

  void Release(Obj& obj) {
    cached_bytes_ -= 48 + obj.value.size();
    cached_objects_--;
    obj = Obj{};
  }

  void EvictUntilWithinBudget() {
    if (options_.memory_budget == 0) {
      return;
    }
    size_t sweep = 0;
    const size_t max_sweep = 2 * entries_.size() + 16;
    while (cached_bytes_ > options_.memory_budget && sweep < max_sweep) {
      Entry& entry = entries_[clock_segment_];
      if (clock_way_ >= entry.objects.size()) {
        clock_way_ = 0;
        clock_segment_ = (clock_segment_ + 1) % entries_.size();
        sweep++;
        continue;
      }
      Obj& obj = entry.objects[clock_way_++];
      if (!obj.valid || obj.pin_count > 0 || obj.lock_owner != kNoTxn) {
        continue;
      }
      if (obj.ref != 0) {
        obj.ref = 0;
        continue;
      }
      Release(obj);
      evictions_++;
    }
  }

  // Region read, stale-hint chunks, then the overflow page.
  std::optional<RemoteObject> MissPath(Key key, bool want_value, LookupStats* st) {
    const size_t segment = host_->SegmentOfKey(key);
    Entry& entry = entries_[segment];
    const size_t home = host_->HomeSlot(key);
    const size_t slot_size = host_->slot_size();
    std::vector<uint8_t> region;
    auto read = [&](size_t start, uint32_t count) {
      host_->ReadRegion(start, count, region);
      st->dma_reads++;
      st->objects_read += count;
      st->bytes_read += count * slot_size;
    };
    auto has_empty = [&] {
      for (size_t i = 0; i < region.size() / slot_size; ++i) {
        if (!host_->ViewInRegion(region, i).occupied()) {
          return true;
        }
      }
      return false;
    };
    auto finish = [&](const SlotView& view, size_t disp) {
      RemoteObject out;
      out.seq = view.seq();
      if (want_value) {
        if (view.large_value()) {
          out.value = host_->heap().Get(view.large_handle());
          st->dma_reads++;
          st->bytes_read += out.value.size();
        } else {
          out.value = host_->DecodeValue(view);
        }
      }
      entry.d_hint = std::max<uint16_t>(entry.d_hint, static_cast<uint16_t>(disp));
      if (Obj* meta = Find(key)) {
        out.lock_owner = meta->lock_owner;
      }
      if (options_.cache_values && want_value) {
        Obj* obj = Ensure(key);
        obj->seq = out.seq;
        SetValue(*obj, out.value);
        obj->ref = 1;
        EvictUntilWithinBudget();
      }
      st->found = true;
      return out;
    };

    const uint32_t first_span =
        std::min<uint32_t>(static_cast<uint32_t>(entry.d_hint) + options_.hint_slack + 1, dm_);
    read(home, first_span);
    if (auto offset = host_->FindInRegion(region, home, key)) {
      return finish(host_->ViewInRegion(region, *offset), *offset);
    }
    uint32_t scanned = first_span;
    bool hit_empty = has_empty();
    while (!hit_empty && scanned < dm_) {
      const uint32_t chunk = std::min<uint32_t>(dm_ - scanned, std::max<uint32_t>(first_span, 16));
      read(home + scanned, chunk);
      if (auto off = host_->FindInRegion(region, home + scanned, key)) {
        return finish(host_->ViewInRegion(region, *off), *off + scanned);
      }
      hit_empty = has_empty();
      scanned += chunk;
    }
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
          if (Obj* meta = Find(key)) {
            out.lock_owner = meta->lock_owner;
          }
          st->found = true;
          return out;
        }
      }
    }
    return std::nullopt;
  }

  const RobinhoodTable* host_;
  NicIndex::Options options_;
  uint16_t dm_;
  std::vector<Entry> entries_;
  uint64_t cached_objects_ = 0;
  uint64_t cached_bytes_ = 0;
  uint64_t pinned_objects_ = 0;
  uint64_t evictions_ = 0;
  size_t clock_segment_ = 0;
  size_t clock_way_ = 0;
};

// Every field is full width so the struct has no padding bytes: gtest
// prints a param's raw bytes into the test name, and uninitialized padding
// would make the name differ from build to build.
struct Param {
  uint64_t dm;
  uint64_t budget;
  uint64_t cache_values;  // used as a bool
};

class NicIndexChurnTest : public ::testing::TestWithParam<Param> {};

TEST_P(NicIndexChurnTest, LookupsCompleteUnderChurn) {
  const Param p = GetParam();
  RobinhoodTable::Options o;
  o.capacity_log2 = 11;
  o.value_size = 24;
  o.max_displacement = p.dm;
  RobinhoodTable host(o);
  NicIndex::Options no;
  no.memory_budget = p.budget;
  no.cache_values = p.cache_values;
  no.admit_on_load = false;
  NicIndex index(&host, no);

  Rng rng(1000 + p.dm);
  std::vector<Key> live;
  const auto target = static_cast<size_t>(0.85 * static_cast<double>(host.capacity()));
  uint64_t lookups = 0;
  uint64_t max_reads = 0;

  for (int step = 0; step < 30000; ++step) {
    const double roll = rng.NextDouble();
    if (live.size() < target && roll < 0.45) {
      const Key k = rng.Next();
      Value v(24, static_cast<uint8_t>(k));
      if (host.Insert(k, v).ok()) {
        live.push_back(k);
      }
    } else if (!live.empty() && roll < 0.6) {
      const size_t i = rng.NextBounded(live.size());
      // Updates bump the version; the NIC's cached copy goes stale and the
      // metadata path must still return the HOST's view when uncached...
      // (in the full system the commit protocol keeps them coherent; here
      // we emulate host-side maintenance, so drop the cached copy first).
      host.Update(live[i], Value(24, static_cast<uint8_t>(step)));
    } else if (!live.empty() && roll < 0.7) {
      const size_t i = rng.NextBounded(live.size());
      ASSERT_TRUE(host.Erase(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    } else if (!live.empty()) {
      // Remote lookup of a random live key: must be found.
      const Key k = live[rng.NextBounded(live.size())];
      // The cache is not maintained by a commit protocol in this test, so
      // only consult the host structure (metadata reads bypass values).
      NicIndex::LookupStats st;
      std::optional<NicIndex::RemoteObject> r;
      if (p.cache_values) {
        // Cached values may be stale relative to direct host Update()
        // calls (no protocol here), but the key must still be FOUND.
        r = index.LookupRemote(k, &st);
      } else {
        r = index.ReadMetadata(k, &st);
      }
      ASSERT_TRUE(r.has_value()) << "lost key " << k << " at step " << step;
      lookups++;
      max_reads = std::max<uint64_t>(max_reads, st.dma_reads);
      if (!st.cache_hit) {
        EXPECT_GE(st.dma_reads, 1u);
        EXPECT_GT(st.objects_read, 0u);
      }
    }
    if (step % 5000 == 4999) {
      index.SyncHintsFromHost();
      // Hints must upper-bound every key's displacement after a sync.
      std::vector<uint8_t> region;
      host.ReadRegion(0, host.capacity(), region);
      for (size_t s = 0; s < host.capacity(); ++s) {
        SlotView view(region.data() + s * host.slot_size(),
                      host.slot_size() - sizeof(SlotHeader));
        if (view.occupied()) {
          const size_t seg = host.SegmentOfKey(view.key());
          ASSERT_GE(index.HintOf(seg), std::min<uint16_t>(view.disp(), host.max_displacement()));
        }
      }
    }
  }
  ASSERT_GT(lookups, 1000u);
  // Cost receipts stay bounded: worst case is first read + adjacent chunks
  // + overflow + large hop; for these parameters, a handful.
  EXPECT_LE(max_reads, 8u);
  if (p.budget != 0) {
    EXPECT_LE(index.cached_bytes(), p.budget + 512);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NicIndexChurnTest,
                         ::testing::Values(Param{8, 0, false}, Param{16, 0, false},
                                           Param{0, 0, false}, Param{8, 8192, true},
                                           Param{32, 64 * 1024, true}),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           return "dm" + std::to_string(info.param.dm) + "_budget" +
                                  std::to_string(info.param.budget / 1024) + "k" +
                                  (info.param.cache_values ? "_cached" : "_meta");
                         });

struct DiffParam {
  size_t ways;
  uint64_t budget;
  uint64_t seed;
};

class NicIndexLayoutDiffTest : public ::testing::TestWithParam<DiffParam> {};

void ExpectSameLookup(const std::optional<NicIndex::RemoteObject>& got,
                      const NicIndex::LookupStats& got_st,
                      const std::optional<NicIndex::RemoteObject>& want,
                      const NicIndex::LookupStats& want_st) {
  EXPECT_EQ(got_st.dma_reads, want_st.dma_reads);
  EXPECT_EQ(got_st.objects_read, want_st.objects_read);
  EXPECT_EQ(got_st.bytes_read, want_st.bytes_read);
  EXPECT_EQ(got_st.cache_hit, want_st.cache_hit);
  EXPECT_EQ(got_st.found, want_st.found);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) {
    EXPECT_EQ(got->value, want->value);
    EXPECT_EQ(got->seq, want->seq);
    EXPECT_EQ(got->lock_owner, want->lock_owner);
    EXPECT_EQ(got->from_cache, want->from_cache);
  }
}

TEST_P(NicIndexLayoutDiffTest, MatchesPerSegmentVectorModel) {
  const DiffParam p = GetParam();
  RobinhoodTable::Options o;
  o.capacity_log2 = 9;
  o.value_size = 24;
  o.max_displacement = 6;  // small Dm: host overflow pages and stale hints
  RobinhoodTable host(o);
  NicIndex::Options no;
  no.ways_per_entry = p.ways;
  no.memory_budget = p.budget;
  NicIndex index(&host, no);
  RefIndex ref(&host, no);

  Rng rng(p.seed);
  // Key pool larger than the host holds, so some lookups miss.
  std::vector<Key> pool;
  for (int i = 0; i < 600; ++i) {
    pool.push_back(rng.Next());
  }
  auto random_value = [&] {
    Value v(1 + rng.NextBounded(o.value_size), 0);
    for (auto& b : v) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return v;
  };
  auto random_txn = [&] { return MakeTxnId(static_cast<NodeId>(rng.NextBounded(3)), 1); };

  Seq next_seq = 1;
  for (int step = 0; step < 20000; ++step) {
    const Key k = pool[rng.NextBounded(pool.size())];
    const size_t seg = host.SegmentOfKey(k);
    NicIndex::LookupStats got_st;
    NicIndex::LookupStats want_st;
    switch (rng.NextBounded(10)) {
      case 0: {  // bulk load into both host and index
        const Value v = random_value();
        if (host.Insert(k, v, next_seq).ok()) {
          index.AdmitOnLoad(k, v, next_seq);
          ref.AdmitOnLoad(k, v, next_seq);
        }
        next_seq++;
        break;
      }
      case 1:
        if (host.Contains(k) && rng.NextBounded(4) == 0) {
          ASSERT_TRUE(host.Erase(k).ok());
        }
        break;
      case 2: {
        auto got = index.LookupRemote(k, &got_st);
        auto want = ref.LookupRemote(k, &want_st);
        ExpectSameLookup(got, got_st, want, want_st);
        break;
      }
      case 3: {
        auto got = index.ReadMetadata(k, &got_st);
        auto want = ref.ReadMetadata(k, &want_st);
        ExpectSameLookup(got, got_st, want, want_st);
        break;
      }
      case 4: {
        const Value v = random_value();
        index.ApplyCommit(k, v, next_seq);
        ref.ApplyCommit(k, v, next_seq);
        next_seq++;
        break;
      }
      case 5:
        index.OnHostApplied(k, host.SegmentMaxDisp(seg), host.SegmentHasOverflow(seg));
        ref.OnHostApplied(k, host.SegmentMaxDisp(seg), host.SegmentHasOverflow(seg));
        break;
      case 6: {
        const TxnId t = random_txn();
        EXPECT_EQ(index.AcquireLock(k, t).code(), ref.AcquireLock(k, t).code());
        break;
      }
      case 7: {
        const TxnId t = random_txn();
        index.ReleaseLock(k, t);
        ref.ReleaseLock(k, t);
        break;
      }
      default:
        index.Invalidate(k);
        ref.Invalidate(k);
        break;
    }

    const auto got = index.CachedEntries();
    const auto want = ref.CachedEntries();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, want[i].key) << "step " << step << " entry " << i;
      ASSERT_EQ(got[i].seq, want[i].seq) << "step " << step;
      ASSERT_TRUE(std::ranges::equal(got[i].value, want[i].value)) << "step " << step;
      ASSERT_EQ(got[i].pinned, want[i].pinned) << "step " << step;
      ASSERT_EQ(got[i].locked, want[i].locked) << "step " << step;
    }
    const auto got_locks = index.LockedKeys();
    const auto want_locks = ref.LockedKeys();
    ASSERT_EQ(got_locks.size(), want_locks.size()) << "step " << step;
    for (size_t i = 0; i < got_locks.size(); ++i) {
      ASSERT_EQ(got_locks[i].key, want_locks[i].key) << "step " << step;
      ASSERT_EQ(got_locks[i].owner, want_locks[i].owner) << "step " << step;
    }
    ASSERT_EQ(index.evictions(), ref.evictions()) << "step " << step;
    ASSERT_EQ(index.cached_bytes(), ref.cached_bytes()) << "step " << step;
    ASSERT_EQ(index.cached_objects(), ref.cached_objects()) << "step " << step;
    ASSERT_EQ(index.pinned_objects(), ref.pinned_objects()) << "step " << step;
    if (HasFailure()) {
      FAIL() << "lookup receipts diverged at step " << step;
    }
  }
  if (p.budget != 0) {
    EXPECT_GT(index.evictions(), 100u);  // the CLOCK sweep really ran
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, NicIndexLayoutDiffTest,
                         ::testing::Values(DiffParam{4, 2048, 1}, DiffParam{4, 0, 2},
                                           DiffParam{2, 1536, 3}, DiffParam{1, 3072, 4},
                                           DiffParam{0, 2048, 5}),
                         [](const ::testing::TestParamInfo<DiffParam>& info) {
                           return "ways" + std::to_string(info.param.ways) + "_budget" +
                                  std::to_string(info.param.budget) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace xenic::store
