// Whole-system cache coherence audit: after running a write-heavy mix on
// the Xenic cluster and quiescing (workers drained, no in-flight txns),
// every value-carrying NIC cache entry must agree exactly with the host
// table -- version and bytes -- with no pins or locks left behind. This is
// the paper's coherence contract (pinned-until-applied, commit-time cache
// updates) checked end to end.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/txn/xenic_cluster.h"

namespace xenic::txn {
namespace {

using store::GetI64;
using store::PutI64;
using store::Value;

constexpr store::TableId kBank = 0;

Value Balance(int64_t v) {
  Value out(16, 0);
  PutI64(out, 0, v);
  return out;
}

class CacheCoherenceTest : public ::testing::TestWithParam<uint64_t /*budget*/> {};

TEST_P(CacheCoherenceTest, CacheAgreesWithHostAfterQuiesce) {
  XenicClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.tables = {store::TableSpec{kBank, "bank", 12, 16, 8, 8}};
  o.nic_index.memory_budget = GetParam();
  HashPartitioner part(3);
  XenicCluster c(o, &part);

  Rng rng(4242);
  constexpr int kAccounts = 400;
  for (store::Key k = 1; k <= kAccounts; ++k) {
    c.LoadReplicated(kBank, k, Balance(500));
  }
  c.StartWorkers();

  int completed = 0;
  constexpr int kCtx = 9;
  std::function<void(store::NodeId, int)> run_one = [&](store::NodeId n, int left) {
    if (left == 0) {
      completed++;
      return;
    }
    const store::Key from = 1 + rng.NextBounded(kAccounts);
    store::Key to = 1 + rng.NextBounded(kAccounts);
    while (to == from) {
      to = 1 + rng.NextBounded(kAccounts);
    }
    TxnRequest req;
    req.reads = {{kBank, from}, {kBank, to}};
    req.writes = {{kBank, from}, {kBank, to}};
    req.execute = [](ExecRound& er) {
      (*er.writes)[0].value = Balance(GetI64((*er.reads)[0].value, 0) - 1);
      (*er.writes)[1].value = Balance(GetI64((*er.reads)[1].value, 0) + 1);
    };
    c.node(n).Submit(std::move(req), [&, n, left](TxnOutcome) { run_one(n, left - 1); });
  };
  for (uint32_t n = 0; n < 3; ++n) {
    for (int i = 0; i < kCtx / 3; ++i) {
      run_one(n, 60);
    }
  }

  // Quiesce: all contexts done, all logs drained (stable).
  int stable = 0;
  for (int i = 0; i < 100000 && !c.engine().idle(); ++i) {
    c.engine().RunFor(10 * sim::kNsPerUs);
    bool drained = completed == kCtx;
    for (uint32_t n = 0; n < 3; ++n) {
      drained &= c.datastore(n).log().unreclaimed() == 0;
    }
    if (drained && ++stable >= 10) {
      break;
    }
    if (!drained) {
      stable = 0;
    }
  }
  c.StopWorkers();
  c.engine().Run();

  // Audit every node's cache against its own host table. Only keys this
  // node is PRIMARY for are maintained by the commit protocol; backup
  // caches are never consulted (and are invalidated on promotion -- see
  // recovery_test).
  uint64_t audited = 0;
  for (uint32_t n = 0; n < 3; ++n) {
    for (const auto& e : c.datastore(n).index(kBank).CachedEntries()) {
      EXPECT_FALSE(e.pinned) << "node " << n << " key " << e.key;
      EXPECT_FALSE(e.locked) << "node " << n << " key " << e.key;
      if (c.map().PrimaryOf(kBank, e.key) != n) {
        continue;
      }
      auto host = c.datastore(n).table(kBank).Lookup(e.key);
      ASSERT_TRUE(host.has_value()) << "cached key absent from host: " << e.key;
      EXPECT_EQ(host->seq, e.seq) << "node " << n << " key " << e.key;
      EXPECT_EQ(host->value, Value(e.value.begin(), e.value.end()))
          << "node " << n << " key " << e.key;
      audited++;
    }
    EXPECT_EQ(c.datastore(n).pending_writes(), 0u);
  }
  EXPECT_GT(audited, 100u);
}

INSTANTIATE_TEST_SUITE_P(Budgets, CacheCoherenceTest,
                         ::testing::Values(0ull, 64ull * 1024, 8ull * 1024),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return info.param == 0 ? std::string("unlimited")
                                                  : std::to_string(info.param / 1024) + "KiB";
                         });

}  // namespace
}  // namespace xenic::txn
