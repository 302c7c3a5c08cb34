// Transaction protocol types shared by the Xenic engine and the RDMA
// baselines: transaction requests, execution-logic interface, cluster
// layout (partitioning + replication), feature flags, and per-node
// statistics. Message kinds and wire sizes live in src/net/message.h (the
// transport layer's message catalogue).

#ifndef SRC_TXN_TYPES_H_
#define SRC_TXN_TYPES_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/message.h"
#include "src/sim/engine.h"
#include "src/store/commit_log.h"
#include "src/store/types.h"

namespace xenic::txn {

using store::Key;
using store::NodeId;
using store::Seq;
using store::TableId;
using store::TxnId;
using store::Value;

struct KeyRef {
  TableId table = 0;
  Key key = 0;
  bool operator==(const KeyRef& o) const { return table == o.table && key == o.key; }
};

struct KeyRefHash {
  size_t operator()(const KeyRef& k) const {
    return static_cast<size_t>(xenic::ScrambleKey(k.key * 0x9e3779b97f4a7c15ull + k.table));
  }
};

struct ReadResult {
  bool found = false;
  Seq seq = 0;
  Value value;
};

struct WriteIntent {
  Value value;
  bool is_delete = false;
};

// One round of application execution logic. The engine fills `reads`
// (aligned with the transaction's read set, including keys added in earlier
// rounds) and the app fills `writes` (aligned with the write set). Adding
// keys triggers another EXECUTE round (multi-shot transactions, paper
// section 4.2 step 3).
struct ExecRound {
  int round = 0;
  const std::vector<KeyRef>* read_keys = nullptr;
  const std::vector<ReadResult>* reads = nullptr;
  const std::vector<KeyRef>* write_keys = nullptr;
  std::vector<WriteIntent>* writes = nullptr;
  std::vector<KeyRef>* add_reads = nullptr;
  std::vector<KeyRef>* add_writes = nullptr;
  bool* abort = nullptr;
};

using ExecuteFn = std::function<void(ExecRound&)>;

struct TxnRequest {
  std::vector<KeyRef> reads;   // read set (may overlap the write set)
  std::vector<KeyRef> writes;  // write set keys; values produced by execute
  ExecuteFn execute;
  sim::Tick exec_cost = 200;     // host-core ns per execution round
  uint32_t external_bytes = 16;  // application state shipped with the txn
  bool allow_ship = true;        // user annotation: may run on NIC / remote NIC
  uint8_t tag = 0;               // workload-defined transaction type

  // Workload-managed local writes (e.g. TPC-C B+tree rows) that must be
  // replicated to the local shard's backups. Fixed at request creation;
  // backup workers apply them through the node's WorkerApplyHook.
  std::vector<store::LogWrite> local_log_writes;
  // Host work performed after commit on the application thread (B+tree
  // manipulation; paper 5.6 notes TPC-C keeps this on the host).
  sim::Tick host_finish_cost = 0;
  std::function<void()> host_finish;
};

// Outcome reported to the application.
enum class TxnOutcome : uint8_t {
  kCommitted = 0,
  kAborted,       // lock conflict or validation failure: retry
  kAppAborted,    // execution logic chose to abort: do not retry
};

// Where an abort was detected in the pipeline (for --abort-breakdown).
enum class AbortReason : uint8_t {
  kNone = 0,
  kLockExecute,  // lock denied during a remote EXECUTE/LOCK round
  kLockLocal,    // lock denied on the local-write fast path
  kLockShip,     // lock denied on a shipped-execution hop
  kValidate,     // read-set validation failed
  kGap,          // read/write-gap check failed (key read after lock window)
  kWounded,      // aborted by an older transaction's wound (WOUND_WAIT)
  kEpochFence,   // 2PL txn outlived a membership change; its locks may be gone
  kOther,        // anything else (log rejection, forced abort, ...)
};

// Concurrency control of the Xenic engine. kOcc is the paper's protocol
// and the default: write locks are taken inside the combined EXECUTE, reads
// are optimistic, VALIDATE re-checks read versions, and a lock conflict
// denies. kWoundWait is two-phase locking: EXECUTE locks the read set as
// well as the write set, VALIDATE is skipped, and a lock conflict parks
// the requester in the key's NIC wait queue, first wounding (aborting at
// its coordinator) a younger holder. Waits-for edges therefore only point
// from younger to older transactions, so no deadlock can form; a request
// that has parked too often denies instead. kWoundWait changes event
// schedules, so -- like hot_key_fastpath -- it is opt-in.
enum class CcPolicyKind : uint8_t {
  kOcc = 0,
  kWoundWait,
};

// The --cc spelling of a policy.
constexpr const char* CcPolicyName(CcPolicyKind kind) {
  return kind == CcPolicyKind::kWoundWait ? "woundwait" : "occ";
}

// Total-order age of a transaction; smaller == older. MakeTxnId puts the
// node in the high bits, so ids from different nodes do not compare by
// submission order: re-key as (seq, node). Sequence-major approximates
// global submission age (every node's closed-loop contexts advance their
// sequence at commit rate) and the node id breaks ties. A retried
// transaction draws a fresh, younger id.
inline uint64_t CcPriority(TxnId id) {
  const uint64_t seq = id & ((1ull << 40) - 1);
  const auto node = static_cast<uint64_t>(store::TxnNode(id));
  return (seq << 16) | (node & 0xffff);
}

// Wound-wait: an older requester wounds the lock holder; a younger one waits.
inline bool WoundsHolder(TxnId requester, TxnId holder) {
  return CcPriority(requester) < CcPriority(holder);
}

using CommitCallback = std::function<void(TxnOutcome)>;

// Xenic protocol feature flags (Figure 9 ablations). All on by default.
struct XenicFeatures {
  // Combined remote commit operations (lock+read in one EXECUTE, batched
  // VALIDATE) instead of DrTM+H-style one-op-per-request.
  bool smart_remote_ops = true;
  // Ship execution logic from the host to the coordinator-side NIC.
  bool nic_execution = true;
  // Multi-hop OCC: ship eligible transactions to the remote primary NIC
  // and let backups acknowledge directly to the coordinator NIC.
  bool occ_multihop = true;
  // Route single-shard transactions on sketch-flagged hot keys through a
  // serialized per-key queue on the NIC instead of the optimistic race.
  // Off by default: changes event schedules, so the golden chaos
  // transcript and all existing seeds stay byte-identical.
  bool hot_key_fastpath = false;
  // NIC-ARM-hosted continuous backup apply (repl::LogApplier): replicated
  // LOG records are applied by the NIC ARM cores once their commit point
  // is known (kLogCommit stability gate) instead of by host workers.
  // Off by default: adds kLogCommit traffic and changes event schedules,
  // so the golden chaos transcript and all existing seeds stay identical.
  bool nic_log_apply = false;
  // Concurrency-control policy. kOcc (default) is the unmodified paper
  // pipeline; kWoundWait disables the shipped/hot-key routes, locks the
  // read set at EXECUTE time, and skips VALIDATE (see CcPolicyKind).
  CcPolicyKind cc = CcPolicyKind::kOcc;
};

// Key -> primary node placement. Workloads provide an implementation
// (hash-based for Retwis/Smallbank, warehouse-based for TPC-C).
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual NodeId PrimaryOf(TableId table, Key key) const = 0;
};

class HashPartitioner : public Partitioner {
 public:
  explicit HashPartitioner(uint32_t num_nodes) : num_nodes_(num_nodes) {}
  NodeId PrimaryOf(TableId table, Key key) const override {
    return static_cast<NodeId>(xenic::ScrambleKey(key * 0x9e3779b9u + table) % num_nodes_);
  }

 private:
  uint32_t num_nodes_;
};

// Cluster layout: placement plus primary-backup replica chains. With
// replication factor f, shard p is backed up on nodes p+1 .. p+f-1 (mod n).
// `failed` is the membership view: once failure detection evicts a node
// (epoch bump), BackupsOf stops returning it, so commit-time LOG fan-out
// never waits on a dead backup's ack. Until re-replication the affected
// shards simply run at reduced redundancy.
struct ClusterMap {
  uint32_t num_nodes = 1;
  uint32_t replication = 1;  // total copies including the primary
  const Partitioner* partitioner = nullptr;
  std::vector<bool> failed;  // sized lazily by MarkFailed; empty = all live
  // Bumped once per membership change, after recovery rolls the failed
  // node's shards forward. 2PL transactions fence on it at commit time: a
  // lock granted by a node that has since been evicted no longer exists
  // anywhere (the promoted primary rebuilt only swept state), so a txn that
  // started under an older version must abort rather than write unlocked.
  // OCC needs no fence -- VALIDATE re-checks read versions.
  uint64_t version = 0;

  bool IsFailed(NodeId node) const { return node < failed.size() && failed[node]; }
  void MarkFailed(NodeId node) {
    if (failed.size() < num_nodes) {
      failed.resize(num_nodes, false);
    }
    failed[node] = true;
    version++;
  }

  NodeId PrimaryOf(TableId table, Key key) const { return partitioner->PrimaryOf(table, key); }
  std::vector<NodeId> BackupsOf(NodeId primary) const {
    std::vector<NodeId> out;
    for (uint32_t i = 1; i < replication; ++i) {
      const NodeId b = (primary + i) % num_nodes;
      if (!IsFailed(b)) {
        out.push_back(b);
      }
    }
    return out;
  }
  bool IsReplicaOf(NodeId node, NodeId primary) const {
    for (uint32_t i = 0; i < replication; ++i) {
      if ((primary + i) % num_nodes == node) {
        return true;
      }
    }
    return false;
  }
};

// Summed value payload of a read-result set (wire:: formulas take scalar
// byte counts; these keep the summations next to the types they walk).
inline uint64_t ValueBytes(const std::vector<ReadResult>& reads) {
  uint64_t b = 0;
  for (const auto& r : reads) {
    b += r.value.size();
  }
  return b;
}
inline uint64_t ValueBytes(const std::vector<std::pair<uint32_t, ReadResult>>& reads) {
  uint64_t b = 0;
  for (const auto& [i, r] : reads) {
    (void)i;
    b += r.value.size();
  }
  return b;
}
inline uint64_t ValueBytes(const std::vector<WriteIntent>& writes) {
  uint64_t b = 0;
  for (const auto& w : writes) {
    b += w.value.size();
  }
  return b;
}
inline uint64_t ValueBytes(const std::vector<store::LogWrite>& writes) {
  uint64_t b = 0;
  for (const auto& w : writes) {
    b += w.value.size();
  }
  return b;
}

// Per-node protocol statistics. `by_type` breaks `messages` (and the
// payload bytes behind them) down by net::MsgType; the transport layer
// maintains both together, so sum(by_type.msgs) == messages always
// (pinned by transport_test.cc).
struct TxnStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t app_aborted = 0;
  uint64_t local_fastpath = 0;
  uint64_t shipped_multihop = 0;
  uint64_t remote_rounds = 0;  // network roundtrip-phases executed
  uint64_t messages = 0;
  net::MsgCounters by_type;

  // Abort-reason breakdown (--abort-breakdown). Sums to `aborted`; app
  // aborts are counted separately above.
  uint64_t abort_lock_execute = 0;
  uint64_t abort_lock_local = 0;
  uint64_t abort_lock_ship = 0;
  uint64_t abort_validate = 0;
  uint64_t abort_gap = 0;
  uint64_t abort_wounded = 0;
  uint64_t abort_epoch_fence = 0;
  uint64_t abort_other = 0;

  // 2PL concurrency-control accounting (zero under OCC).
  uint64_t cc_waits = 0;   // lock requests parked in a wait queue
  uint64_t cc_wounds = 0;  // WOUND messages sent to younger lock holders

  // Hot-key fast path accounting.
  uint64_t hot_path = 0;   // committed/aborted txns routed via the hot path
  uint64_t hot_waits = 0;  // times a hot-path txn parked behind the holder
  uint64_t hot_remote_parks = 0;  // remote lock denials parked at the primary

  // Replication subsystem accounting (repl::, zero at default config).
  uint64_t nic_log_applied = 0;  // records applied by the NIC-ARM applier

  void Reset() { *this = TxnStats{}; }
};

}  // namespace xenic::txn

#endif  // SRC_TXN_TYPES_H_
