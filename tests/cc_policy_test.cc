// Concurrency-control unit and property tests (DESIGN.md §13): the --cc
// spellings, CcPriority's total age order, and the deadlock-freedom
// argument -- wound-wait only ever creates younger->older waits-for edges,
// so randomized seeded acquire orders can never close a cycle. The last
// group drives a real contended cluster per policy and checks the
// engine-level counters agree (OCC validates and never parks; wound-wait
// skips validation and actually wounds).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/harness/cli.h"
#include "src/store/types.h"
#include "src/txn/xenic_cluster.h"

namespace xenic::txn {
namespace {

using store::MakeTxnId;
using store::TxnId;

void ParseCc(const char* name, harness::ContentionOptions* opts) {
  Flags flags;
  opts->Register(flags);
  const char* argv[] = {"tool", "--cc", name};
  flags.Parse(3, const_cast<char**>(argv));
}

TEST(CcPolicyTest, ParseRoundTripsEveryName) {
  for (CcPolicyKind kind : {CcPolicyKind::kOcc, CcPolicyKind::kWoundWait}) {
    harness::ContentionOptions opts;
    opts.cc = kind == CcPolicyKind::kOcc ? CcPolicyKind::kWoundWait : CcPolicyKind::kOcc;
    ParseCc(CcPolicyName(kind), &opts);
    EXPECT_EQ(opts.cc, kind) << CcPolicyName(kind);
  }
}

TEST(CcPolicyTest, ParseRejectsUnknownNames) {
  harness::ContentionOptions opts;
  for (const char* name : {"2pl", "OCC", "wait-die", "wound-wait"}) {
    EXPECT_EXIT(ParseCc(name, &opts), ::testing::ExitedWithCode(2),
                "--cc expects one of occ\\|woundwait") << name;
  }
}

TEST(CcPolicyTest, PriorityIsSequenceMajor) {
  // Sequence dominates: an earlier sequence is older regardless of node id.
  EXPECT_LT(CcPriority(MakeTxnId(5, 10)), CcPriority(MakeTxnId(0, 11)));
  EXPECT_LT(CcPriority(MakeTxnId(3, 1)), CcPriority(MakeTxnId(2, 2)));
}

TEST(CcPolicyTest, PriorityBreaksSequenceTiesByNode) {
  EXPECT_LT(CcPriority(MakeTxnId(0, 7)), CcPriority(MakeTxnId(1, 7)));
  EXPECT_LT(CcPriority(MakeTxnId(1, 7)), CcPriority(MakeTxnId(2, 7)));
}

TEST(CcPolicyTest, PriorityIsATotalOrderOverDistinctIds) {
  Rng rng(101);
  std::set<TxnId> ids;
  while (ids.size() < 200) {
    ids.insert(MakeTxnId(rng.NextBounded(6), 1 + rng.NextBounded(1000)));
  }
  std::set<uint64_t> priorities;
  for (TxnId id : ids) {
    priorities.insert(CcPriority(id));
  }
  EXPECT_EQ(priorities.size(), ids.size());  // injective => total order
}

TEST(CcPolicyTest, WoundWaitOlderRequesterWounds) {
  const TxnId older = MakeTxnId(2, 3);
  const TxnId younger = MakeTxnId(2, 4);
  EXPECT_TRUE(WoundsHolder(older, younger));
}

TEST(CcPolicyTest, WoundWaitYoungerRequesterWaits) {
  const TxnId older = MakeTxnId(2, 3);
  const TxnId younger = MakeTxnId(2, 4);
  EXPECT_FALSE(WoundsHolder(younger, older));
}

// The deadlock-freedom invariant, stated on the decision itself: every wait
// edge (requester waits for holder) points from a younger transaction to an
// older one. Any cycle would need at least one edge of the opposite
// direction.
TEST(CcPolicyTest, WoundWaitWaitEdgesPointYoungToOldOnly) {
  Rng rng(12);
  int waits = 0;
  int wounds = 0;
  for (int i = 0; i < 500; ++i) {
    const TxnId a = MakeTxnId(rng.NextBounded(6), 1 + rng.NextBounded(300));
    const TxnId b = MakeTxnId(rng.NextBounded(6), 1 + rng.NextBounded(300));
    if (a == b) {
      continue;
    }
    if (WoundsHolder(a, b)) {
      EXPECT_LT(CcPriority(a), CcPriority(b));
      wounds++;
    } else {
      EXPECT_GT(CcPriority(a), CcPriority(b));
      waits++;
    }
  }
  EXPECT_GT(waits, 0);
  EXPECT_GT(wounds, 0);
}

// Randomized acquire orders over a simulated lock table: replay every
// conflict through the wound-or-wait decision and record the waits-for
// edges it creates. Whatever the interleaving, the graph must stay acyclic.
bool HasCycle(const std::map<TxnId, std::set<TxnId>>& waits_for) {
  std::set<TxnId> done;
  for (const auto& [start, _] : waits_for) {
    if (done.count(start) > 0) {
      continue;
    }
    std::set<TxnId> path;
    std::vector<TxnId> stack = {start};
    std::function<bool(TxnId)> dfs = [&](TxnId t) {
      if (path.count(t) > 0) {
        return true;
      }
      if (done.count(t) > 0) {
        return false;
      }
      path.insert(t);
      auto it = waits_for.find(t);
      if (it != waits_for.end()) {
        for (TxnId next : it->second) {
          if (dfs(next)) {
            return true;
          }
        }
      }
      path.erase(t);
      done.insert(t);
      return false;
    };
    if (dfs(start)) {
      return true;
    }
  }
  return false;
}

void RandomAcquireOrdersStayAcyclic(uint64_t seed) {
  Rng rng(seed);
  constexpr int kTxns = 24;
  constexpr int kKeys = 8;
  std::vector<TxnId> txns;
  for (int i = 0; i < kTxns; ++i) {
    txns.push_back(MakeTxnId(rng.NextBounded(6), 1 + rng.NextBounded(400)));
  }
  std::map<int, TxnId> holder;                // key -> current lock holder
  std::map<TxnId, std::set<TxnId>> waits_for; // requester -> holders waited on
  int parked = 0;
  for (int step = 0; step < 400; ++step) {
    const TxnId t = txns[rng.NextBounded(kTxns)];
    const int key = static_cast<int>(rng.NextBounded(kKeys));
    auto it = holder.find(key);
    if (it == holder.end()) {
      holder[key] = t;       // free: acquire
      waits_for.erase(t);    // no longer blocked on anything
      continue;
    }
    if (it->second == t) {
      holder.erase(it);      // re-touch by the holder: model a release
      continue;
    }
    if (WoundsHolder(t, it->second)) {
      // The holder aborts: its lock frees and its own edges vanish; the
      // requester takes the lock.
      waits_for.erase(it->second);
      holder[key] = t;
    } else {
      waits_for[t].insert(it->second);
      parked++;
    }
    ASSERT_FALSE(HasCycle(waits_for)) << "seed " << seed;
  }
  EXPECT_GT(parked, 0) << "seed " << seed;
}

TEST(CcPolicyTest, WoundWaitRandomAcquireOrdersNeverCycle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomAcquireOrdersStayAcyclic(seed);
  }
}

// Engine-level counter agreement: drive a deliberately contended RMW mix
// (few keys, many contexts; each transaction also reads one key it does not
// write, so OCC has a read set to validate) through a real cluster under
// each policy and check the TxnStats the policies are supposed to produce.
TxnStats RunContended(CcPolicyKind cc, uint64_t seed) {
  XenicClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.features.cc = cc;
  o.tables = {store::TableSpec{0, "t", 8, 16, 8, 8}};
  HashPartitioner part(3);
  XenicCluster cluster(o, &part);
  constexpr int kKeys = 6;  // tiny keyspace: conflicts guaranteed
  for (store::Key k = 0; k < kKeys; ++k) {
    store::Value v(16, 0);
    store::PutI64(v, 0, 100);
    cluster.LoadReplicated(0, k, v);
  }
  cluster.StartWorkers();
  Rng rng(seed);
  int active = 0;
  std::function<void(store::NodeId, int)> run_one = [&](store::NodeId n, int left) {
    if (left == 0) {
      active--;
      return;
    }
    TxnRequest req;
    store::Key a = rng.NextBounded(kKeys);
    store::Key b = (a + 1 + rng.NextBounded(kKeys - 1)) % kKeys;
    store::Key c = 0;
    while (c == a || c == b) {
      c++;
    }
    req.reads = {{0, a}, {0, b}, {0, c}};
    req.writes = {{0, a}, {0, b}};
    req.execute = [](ExecRound& er) {
      for (size_t i = 0; i < er.writes->size(); ++i) {
        store::Value v = (*er.reads)[i].value;
        store::PutI64(v, 0, store::GetI64(v, 0) + 1);
        (*er.writes)[i].value = v;
      }
    };
    cluster.node(n).Submit(std::move(req), [&, n, left](TxnOutcome) { run_one(n, left - 1); });
  };
  for (store::NodeId n = 0; n < 3; ++n) {
    for (int c = 0; c < 4; ++c) {
      active++;
      run_one(n, 30);
    }
  }
  while (active > 0 && !cluster.engine().idle()) {
    cluster.engine().RunFor(100 * sim::kNsPerUs);
  }
  cluster.StopWorkers();
  cluster.engine().Run();
  return cluster.TotalStats();
}

uint64_t ValidateMsgs(const TxnStats& s) {
  return s.by_type.msgs[static_cast<size_t>(net::MsgType::kValidate)];
}

TEST(CcPolicyTest, WoundWaitEngineWounds) {
  const TxnStats s = RunContended(CcPolicyKind::kWoundWait, 33);
  EXPECT_GT(s.committed, 0u);
  EXPECT_GT(s.cc_waits + s.cc_wounds, 0u);
}

// 2PL reads every value under its lock, so no VALIDATE round is ever sent.
TEST(CcPolicyTest, WoundWaitEngineSkipsValidation) {
  const TxnStats s = RunContended(CcPolicyKind::kWoundWait, 35);
  EXPECT_GT(s.committed, 0u);
  EXPECT_EQ(ValidateMsgs(s), 0u);
  EXPECT_EQ(s.abort_validate, 0u);
}

// OCC reads without locking and checks the read set with VALIDATE, so a
// concurrent writer of a read-only key aborts the reader at validation.
TEST(CcPolicyTest, OccValidatesAndNeverLocksReads) {
  const TxnStats s = RunContended(CcPolicyKind::kOcc, 34);
  EXPECT_GT(s.committed, 0u);
  EXPECT_GT(ValidateMsgs(s), 0u);
  EXPECT_GT(s.abort_validate, 0u);
}

TEST(CcPolicyTest, OccEngineUsesNoCcMachinery) {
  const TxnStats s = RunContended(CcPolicyKind::kOcc, 34);
  EXPECT_GT(s.committed, 0u);
  EXPECT_EQ(s.cc_waits, 0u);
  EXPECT_EQ(s.cc_wounds, 0u);
  EXPECT_EQ(s.abort_wounded, 0u);
}

}  // namespace
}  // namespace xenic::txn
