// Hot-key sketch: promotion at the conflict threshold, hysteresis between
// promote and demote, lossy-counting eviction (uniform conflict spray can
// never fake a hot key), and deterministic lazy decay.

#include <gtest/gtest.h>

#include "src/txn/hot_key_sketch.h"

namespace xenic::txn {
namespace {

constexpr KeyRef kKey{0, 42};
constexpr sim::Tick kUs = sim::kNsPerUs;

HotKeySketch::Options SmallOptions() {
  HotKeySketch::Options o;
  o.slots = 4;
  o.promote_threshold = 6;
  o.demote_threshold = 2;
  o.decay_interval = 100 * kUs;
  return o;
}

TEST(HotKeySketchTest, PromotesAtThreshold) {
  HotKeySketch sketch(SmallOptions());
  for (uint64_t i = 0; i < 5; ++i) {
    sketch.RecordConflict(kKey, 0);
    EXPECT_FALSE(sketch.IsHot(kKey, 0)) << "hot after only " << i + 1 << " conflicts";
  }
  sketch.RecordConflict(kKey, 0);
  EXPECT_TRUE(sketch.IsHot(kKey, 0));
  EXPECT_EQ(sketch.HotCount(0), 1u);
}

TEST(HotKeySketchTest, HysteresisHoldsBetweenThresholds) {
  HotKeySketch sketch(SmallOptions());
  for (int i = 0; i < 6; ++i) {
    sketch.RecordConflict(kKey, 0);
  }
  ASSERT_TRUE(sketch.IsHot(kKey, 0));
  // One decay interval: 6 -> 3, above the demote floor of 2: still hot
  // (a fresh key with count 3 would NOT be hot -- that's the hysteresis).
  EXPECT_TRUE(sketch.IsHot(kKey, 100 * kUs));
  // Next interval: 3 -> 1 <= demote threshold: demoted.
  EXPECT_FALSE(sketch.IsHot(kKey, 200 * kUs));
}

TEST(HotKeySketchTest, OneOffConflictsNeverPromote) {
  HotKeySketch sketch(SmallOptions());
  // A stream of never-repeating keys: every newcomer starts at count 1
  // (lossy-counting underestimate), so no slot can ever reach the
  // promotion threshold however long the stream runs.
  for (store::Key k = 1; k <= 10000; ++k) {
    sketch.RecordConflict(KeyRef{0, k}, 0);
  }
  EXPECT_EQ(sketch.HotCount(0), 0u);
}

TEST(HotKeySketchTest, HotKeySurvivesSprayEviction) {
  HotKeySketch sketch(SmallOptions());
  for (int i = 0; i < 6; ++i) {
    sketch.RecordConflict(kKey, 0);
  }
  ASSERT_TRUE(sketch.IsHot(kKey, 0));
  // Hot slots are never eviction victims, however many newcomers arrive.
  for (store::Key k = 100; k < 300; ++k) {
    sketch.RecordConflict(KeyRef{0, k}, 0);
  }
  EXPECT_TRUE(sketch.IsHot(kKey, 0));
}

TEST(HotKeySketchTest, DecayIsLazyAndDeterministic) {
  HotKeySketch a(SmallOptions());
  HotKeySketch b(SmallOptions());
  for (int i = 0; i < 12; ++i) {
    a.RecordConflict(kKey, 0);
    b.RecordConflict(kKey, 0);
  }
  // One query at t=200us must equal queries at 100us and 200us: decay
  // depends only on elapsed sim time, not on how often anyone looked.
  // 12 halves to 3 over two intervals: still above the demote floor.
  ASSERT_TRUE(b.IsHot(kKey, 100 * kUs));
  ASSERT_TRUE(b.IsHot(kKey, 200 * kUs));
  EXPECT_TRUE(a.IsHot(kKey, 200 * kUs));
  // A third halving (to 1) demotes the key in both.
  EXPECT_FALSE(a.IsHot(kKey, 300 * kUs));
  EXPECT_FALSE(b.IsHot(kKey, 300 * kUs));
}

TEST(HotKeySketchTest, LongIdleGapZeroesSlots) {
  HotKeySketch sketch(SmallOptions());
  for (int i = 0; i < 200; ++i) {
    sketch.RecordConflict(kKey, 0);
  }
  ASSERT_TRUE(sketch.IsHot(kKey, 0));
  // 100 intervals (and in particular >= 64, the shift clamp) fully clears.
  EXPECT_FALSE(sketch.IsHot(kKey, 10000 * kUs));
  EXPECT_EQ(sketch.HotCount(10000 * kUs), 0u);
}

TEST(HotKeySketchTest, DefaultOptionsTrackSixtyFourSlots) {
  HotKeySketch sketch;
  for (store::Key k = 1; k <= 64; ++k) {
    for (int i = 0; i < 6; ++i) {
      sketch.RecordConflict(KeyRef{0, k}, 0);
    }
  }
  EXPECT_EQ(sketch.HotCount(0), 64u);
}

}  // namespace
}  // namespace xenic::txn
