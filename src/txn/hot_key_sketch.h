// Per-shard hot-key sketch: a small space-saving-style top-K table of keys
// ranked by recent lock/validation conflicts, maintained by the NIC-side
// handlers (pure state -- recording charges no simulated time).
//
// One consumer: hot-key fast path routing. IsHot() drives XenicNode's
// decision to take an all-local transaction through the serialized NIC
// queue instead of the optimistic race, and to park a remote lock request
// behind the holder instead of denying it.
//
// Promotion/demotion use hysteresis (promote at >= promote_threshold,
// demote only once decay drags the count to <= demote_threshold) so a key
// flapping around the boundary doesn't thrash the routing decision. Decay
// is lazy and deterministic in sim time: counts halve once per elapsed
// decay_interval, with integer arithmetic only. Eviction of an untracked
// key's slot starts the newcomer at count 1 (lossy-counting style, an
// underestimate), so uniformly spread conflicts can never fake a hot key;
// genuinely hot keys re-accumulate faster than they are evicted.

#ifndef SRC_TXN_HOT_KEY_SKETCH_H_
#define SRC_TXN_HOT_KEY_SKETCH_H_

#include <cstdint>
#include <vector>

#include "src/sim/engine.h"
#include "src/txn/types.h"

namespace xenic::txn {

class HotKeySketch {
 public:
  struct Options {
    uint32_t slots = 64;              // tracked keys per shard
    uint64_t promote_threshold = 6;   // decayed conflicts to flag hot
    uint64_t demote_threshold = 2;    // hysteresis floor (must be < promote)
    sim::Tick decay_interval = 100 * sim::kNsPerUs;  // counts halve per interval
  };

  HotKeySketch();  // default Options
  explicit HotKeySketch(const Options& options);

  // One observed conflict on `key` (lock denied / validation mismatch).
  void RecordConflict(const KeyRef& key, sim::Tick now);

  // Routing decision (with hysteresis). Untracked keys are never hot.
  bool IsHot(const KeyRef& key, sim::Tick now);

  // Currently hot keys (after decay), for tests and debugging.
  size_t HotCount(sim::Tick now);

 private:
  struct Slot {
    KeyRef key;
    uint64_t count = 0;  // 0 = empty
    bool hot = false;
  };

  void Decay(sim::Tick now);
  Slot* Find(const KeyRef& key);

  Options options_;
  std::vector<Slot> slots_;
  sim::Tick last_decay_ = 0;
};

}  // namespace xenic::txn

#endif  // SRC_TXN_HOT_KEY_SKETCH_H_
