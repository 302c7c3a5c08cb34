// Retry-policy behavior: the uniform policy reproduces the historical
// harness backoff byte-for-byte, every policy is deterministic and bounded,
// and a full RunWorkload stays bit-deterministic (and tracing-invariant)
// under every policy -- the contract tools/check_determinism.sh enforces
// end to end.

#include <gtest/gtest.h>

#include "src/harness/runner.h"
#include "src/obs/txn_trace.h"
#include "src/txn/retry_policy.h"
#include "src/workload/smallbank.h"

namespace xenic::txn {
namespace {

TEST(RetryPolicyTest, UniformMatchesHistoricalFormula) {
  RetryPolicyConfig cfg;
  cfg.kind = RetryPolicyKind::kUniform;
  cfg.backoff_base = 4 * sim::kNsPerUs;
  Rng policy_rng(99);
  Rng formula_rng(99);
  for (uint32_t tries = 0; tries < 64; ++tries) {
    const sim::Tick expect =
        cfg.backoff_base + formula_rng.NextBounded(cfg.backoff_base + 1);
    EXPECT_EQ(RetryBackoff(cfg, tries, policy_rng), expect)
        << "uniform draw " << tries << " diverged from the historical formula";
  }
}

TEST(RetryPolicyTest, EveryPolicyDeterministicForSeed) {
  for (auto kind : {RetryPolicyKind::kUniform, RetryPolicyKind::kExpJitter}) {
    RetryPolicyConfig cfg;
    cfg.kind = kind;
    Rng a(7), b(7);
    for (uint32_t tries = 0; tries < 200; ++tries) {
      EXPECT_EQ(RetryBackoff(cfg, tries, a), RetryBackoff(cfg, tries, b));
    }
  }
}

TEST(RetryPolicyTest, BackoffBoundedAndPositive) {
  RetryPolicyConfig cfg;
  cfg.backoff_base = 4 * sim::kNsPerUs;
  cfg.backoff_cap = 64 * sim::kNsPerUs;
  Rng rng(13);
  for (auto kind : {RetryPolicyKind::kUniform, RetryPolicyKind::kExpJitter}) {
    cfg.kind = kind;
    for (uint32_t tries = 0; tries < 300; ++tries) {
      const sim::Tick b = RetryBackoff(cfg, tries, rng);
      EXPECT_GE(b, 1u);
      if (kind != RetryPolicyKind::kUniform) {
        EXPECT_LE(b, cfg.backoff_cap) << RetryPolicyName(kind) << " exceeded its cap";
      }
    }
  }
  // Degenerate config: base 0 must still return a strictly positive wait.
  cfg.kind = RetryPolicyKind::kExpJitter;
  cfg.backoff_base = 0;
  EXPECT_GE(RetryBackoff(cfg, 0, rng), 1u);
}

// --- End-to-end harness coverage -------------------------------------------

harness::SystemConfig XenicCfg() {
  harness::SystemConfig cfg;
  cfg.kind = harness::SystemConfig::Kind::kXenic;
  cfg.num_nodes = 3;
  cfg.replication = 2;
  return cfg;
}

std::unique_ptr<workload::Smallbank> SkewedWl() {
  workload::Smallbank::Options wo;
  wo.num_nodes = 3;
  wo.accounts_per_node = 300;  // small pool -> real contention
  return std::make_unique<workload::Smallbank>(wo);
}

harness::RunConfig ShortRun(RetryPolicyKind kind) {
  harness::RunConfig rc;
  rc.contexts_per_node = 8;
  rc.seed = 11;
  rc.warmup = 50 * sim::kNsPerUs;
  rc.measure = 300 * sim::kNsPerUs;
  rc.retry.kind = kind;
  return rc;
}

TEST(RetryPolicyTest, RunWorkloadDeterministicPerPolicy) {
  for (auto kind : {RetryPolicyKind::kUniform, RetryPolicyKind::kExpJitter}) {
    harness::RunResult runs[2];
    for (int i = 0; i < 2; ++i) {
      auto wl = SkewedWl();
      auto sys = harness::BuildSystem(XenicCfg(), *wl);
      harness::LoadWorkload(*sys, *wl);
      runs[i] = harness::RunWorkload(*sys, *wl, ShortRun(kind));
    }
    EXPECT_DOUBLE_EQ(runs[0].tput_per_server, runs[1].tput_per_server)
        << RetryPolicyName(kind);
    EXPECT_EQ(runs[0].committed, runs[1].committed) << RetryPolicyName(kind);
    EXPECT_EQ(runs[0].aborted, runs[1].aborted) << RetryPolicyName(kind);
  }
}

TEST(RetryPolicyTest, TracingCannotChangeResults) {
  for (auto kind : {RetryPolicyKind::kUniform, RetryPolicyKind::kExpJitter}) {
    harness::RunResult plain, traced;
    {
      auto wl = SkewedWl();
      auto sys = harness::BuildSystem(XenicCfg(), *wl);
      harness::LoadWorkload(*sys, *wl);
      plain = harness::RunWorkload(*sys, *wl, ShortRun(kind));
    }
    {
      auto wl = SkewedWl();
      auto sys = harness::BuildSystem(XenicCfg(), *wl);
      harness::LoadWorkload(*sys, *wl);
      harness::RunConfig rc = ShortRun(kind);
      obs::TxnTraceSink sink;
      rc.txn_trace = &sink;
      traced = harness::RunWorkload(*sys, *wl, rc);
    }
    EXPECT_DOUBLE_EQ(plain.tput_per_server, traced.tput_per_server)
        << RetryPolicyName(kind);
    EXPECT_EQ(plain.committed, traced.committed) << RetryPolicyName(kind);
    EXPECT_EQ(plain.aborted, traced.aborted) << RetryPolicyName(kind);
  }
}

TEST(RetryPolicyTest, HotPathEngagesUnderSkew) {
  auto wl = SkewedWl();
  harness::SystemConfig cfg = XenicCfg();
  cfg.features.hot_key_fastpath = true;
  auto sys = harness::BuildSystem(cfg, *wl);
  harness::LoadWorkload(*sys, *wl);
  harness::RunConfig rc = ShortRun(RetryPolicyKind::kExpJitter);
  rc.measure = 500 * sim::kNsPerUs;
  const harness::RunResult r = harness::RunWorkload(*sys, *wl, rc);
  EXPECT_GT(r.committed, 0u);
  EXPECT_GT(r.txn_stats.hot_path, 0u)
      << "skewed Smallbank never promoted a key onto the fast path";
}

TEST(RetryPolicyTest, AbortReasonsConserveTotal) {
  auto wl = SkewedWl();
  auto sys = harness::BuildSystem(XenicCfg(), *wl);
  harness::LoadWorkload(*sys, *wl);
  const harness::RunResult r =
      harness::RunWorkload(*sys, *wl, ShortRun(RetryPolicyKind::kUniform));
  ASSERT_GT(r.aborted, 0u) << "contended Smallbank run produced no aborts";
  const TxnStats& s = r.txn_stats;
  const uint64_t attributed = s.abort_lock_execute + s.abort_lock_local +
                              s.abort_lock_ship + s.abort_validate + s.abort_gap +
                              s.abort_other;
  EXPECT_EQ(attributed, s.aborted)
      << "every Xenic abort must carry exactly one first-cause reason";
}

}  // namespace
}  // namespace xenic::txn
