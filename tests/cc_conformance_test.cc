// CC-conformance matrix (DESIGN.md §13): both concurrency-control policies
// (OCC, wound-wait) × {Smallbank, Retwis RMW mix, skewed YCSB} × 8 seeds
// must produce a serializable history. The HistoryRecorder wraps each
// generated request to capture versions read and keys written;
// CheckSerializability rebuilds the per-key version chains and verifies the
// precedence graph is acyclic with no lost updates. The crash/recovery half
// of the matrix (the same policies under armed fault schedules) runs as the
// chaos_woundwait_* / chaos_cc_* ctest entries in tools/CMakeLists.txt;
// together with this file they carry the `cc` label: `ctest -L cc` runs the
// whole matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/history.h"
#include "src/common/rng.h"
#include "src/txn/xenic_cluster.h"
#include "src/workload/retwis.h"
#include "src/workload/smallbank.h"
#include "src/workload/ycsb.h"

namespace xenic {
namespace {

enum class Wl { kSmallbank, kRetwis, kYcsb };

const char* WlName(Wl w) {
  switch (w) {
    case Wl::kSmallbank:
      return "Smallbank";
    case Wl::kRetwis:
      return "Retwis";
    case Wl::kYcsb:
      return "Ycsb";
  }
  return "?";
}

// Small, contended instances: few keys per node so every policy's conflict
// machinery actually fires within a short closed-loop run.
std::unique_ptr<workload::Workload> BuildWorkload(Wl which) {
  switch (which) {
    case Wl::kSmallbank: {
      workload::Smallbank::Options o;
      o.num_nodes = 3;
      o.accounts_per_node = 40;
      return std::make_unique<workload::Smallbank>(o);
    }
    case Wl::kRetwis: {
      workload::Retwis::Options o;
      o.num_nodes = 3;
      o.keys_per_node = 60;
      // RMW-only mix (Follow / GetTimeline): AddUser and PostTweet write
      // keys they never read, which the lost-update checker cannot order.
      o.mix = {0, 50, 0, 50};
      return std::make_unique<workload::Retwis>(o);
    }
    case Wl::kYcsb: {
      workload::Ycsb::Options o;
      o.num_nodes = 3;
      o.keys_per_node = 12;  // 36 keys at theta .99: heavy hot-key overlap
      o.zipf_theta = 0.99;
      o.read_ratio = 0.5;
      o.ops_per_txn = 3;
      o.value_size = 16;
      return std::make_unique<workload::Ycsb>(o);
    }
  }
  return nullptr;
}

void RunConformance(txn::CcPolicyKind cc, Wl which, uint64_t seed) {
  auto wl = BuildWorkload(which);
  txn::XenicClusterOptions o;
  o.num_nodes = 3;
  o.replication = 2;
  o.features.cc = cc;
  for (const auto& def : wl->Tables()) {
    o.tables.push_back(
        store::TableSpec{def.id, def.name, def.capacity_log2, def.value_size,
                         def.max_displacement, 8});
  }
  txn::XenicCluster cluster(o, &wl->partitioner());
  wl->Load([&](store::TableId t, store::Key k, const store::Value& v) {
    cluster.LoadReplicated(t, k, v);
  });
  cluster.StartWorkers();

  chaos::HistoryRecorder recorder;
  Rng rng(seed * 7919 + static_cast<uint64_t>(which));
  int active = 0;
  std::function<void(store::NodeId, int)> run_one = [&](store::NodeId n, int left) {
    if (left == 0) {
      active--;
      return;
    }
    txn::TxnRequest req = wl->NextTxn(n, rng);
    auto obs = recorder.Instrument(req);
    cluster.node(n).Submit(std::move(req), [&, n, left, obs](txn::TxnOutcome out) {
      if (out == txn::TxnOutcome::kCommitted) {
        recorder.Commit(obs);
      }
      run_one(n, left - 1);
    });
  };
  for (store::NodeId n = 0; n < 3; ++n) {
    for (int c = 0; c < 3; ++c) {
      active++;
      run_one(n, 30);
    }
  }
  while (active > 0 && !cluster.engine().idle()) {
    cluster.engine().RunFor(100 * sim::kNsPerUs);
  }
  cluster.StopWorkers();
  cluster.engine().Run();

  // 270 submissions per seed; even the abort-heavy hot-key instances land
  // well above this floor, which only guards against a vacuous run.
  ASSERT_GT(recorder.history().size(), 30u)
      << txn::CcPolicyName(cc) << "/" << WlName(which) << " seed " << seed;
  const chaos::CheckResult result = recorder.Check();
  EXPECT_TRUE(result.ok()) << [&] {
    std::string all = std::string(txn::CcPolicyName(cc)) + "/" + WlName(which) +
                      " seed " + std::to_string(seed) + ":\n";
    for (const auto& v : result.violations) {
      all += v + "\n";
    }
    return all;
  }();
  // Fault-free runs recover nothing behind the recorder's back: every read
  // version must trace to a recorded writer or the initial load.
  EXPECT_EQ(result.version_gaps, 0u);

  // No lock may outlive the run under any policy -- 2PL read locks and
  // wound/wait park queues included.
  for (store::NodeId n = 0; n < 3; ++n) {
    const auto& ds = cluster.datastore(n);
    for (store::TableId t = 0; t < ds.num_tables(); ++t) {
      EXPECT_EQ(ds.index(t).LockedKeys().size(), 0u)
          << txn::CcPolicyName(cc) << "/" << WlName(which) << " seed " << seed
          << " node " << n;
    }
  }
}

struct Param {
  txn::CcPolicyKind cc;
  Wl wl;
};

class CcConformanceTest : public ::testing::TestWithParam<Param> {};

TEST_P(CcConformanceTest, HistoryIsSerializableAcrossEightSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunConformance(GetParam().cc, GetParam().wl, seed);
  }
}

std::vector<Param> Matrix() {
  std::vector<Param> out;
  for (auto cc : {txn::CcPolicyKind::kOcc, txn::CcPolicyKind::kWoundWait}) {
    for (auto wl : {Wl::kSmallbank, Wl::kRetwis, Wl::kYcsb}) {
      out.push_back(Param{cc, wl});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(PolicyByWorkload, CcConformanceTest, ::testing::ValuesIn(Matrix()),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           std::string name = txn::CcPolicyName(info.param.cc);
                           name[0] = static_cast<char>(std::toupper(name[0]));
                           return name + WlName(info.param.wl);
                         });

}  // namespace
}  // namespace xenic
