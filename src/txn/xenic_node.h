// XenicNode: one server's transaction engine (paper section 4.2).
//
// Each node is simultaneously a transaction coordinator, the primary of one
// shard, and a backup for other shards. The engine is split between the
// host (application threads, Robinhood worker threads) and the SmartNIC
// (coordinator-side transaction state machines, server-side
// EXECUTE / VALIDATE / LOG / COMMIT handlers).
//
// Paths, selected per transaction:
//  * Local fast path (4.2.4): all keys on this shard. Read-only commits on
//    the host with no NIC involvement; read-write executes optimistically
//    on the host and uses the NIC only for locking, replication and commit.
//  * Standard distributed path (4.2): EXECUTE (combined lock+read) ->
//    [execution on coordinator NIC or host] -> VALIDATE -> LOG -> COMMIT.
//  * Multi-hop shipped path (4.2.3): single-round transactions touching at
//    most {local shard, one remote shard} execute at the remote primary
//    NIC; LOG requests fan out from there and backups acknowledge directly
//    to the coordinator NIC, eliminating one message delay.
//
// Feature flags (XenicFeatures) gate the smart combined operations, NIC
// execution, and the multi-hop optimization for the Figure 9 ablations.

#ifndef SRC_TXN_XENIC_NODE_H_
#define SRC_TXN_XENIC_NODE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/net/transport.h"
#include "src/nicmodel/smart_nic.h"
#include "src/repl/log_applier.h"
#include "src/repl/replication_group.h"
#include "src/store/commit_log.h"
#include "src/store/datastore.h"
#include "src/txn/hot_key_sketch.h"
#include "src/txn/types.h"

namespace xenic::txn {

class XenicNode {
 public:
  // `peers` is the cluster registry, filled by XenicCluster before use.
  // `repl` owns every replication decision (fan-out targets, ack quorums);
  // this node never walks the replica chain itself.
  XenicNode(nicmodel::SmartNic* nic, store::Datastore* ds, const ClusterMap* map,
            const XenicFeatures* features, std::vector<XenicNode*>* peers,
            const repl::ReplicationGroup* repl);

  // Application entry point (called in host context): run one transaction.
  // Returns the transaction's id (0 if the node is crashed and the request
  // was silently dropped) so callers can correlate trace spans -- the
  // closed-loop runner links retry attempts through it.
  TxnId Submit(TxnRequest req, CommitCallback done);

  // Start `count` Robinhood worker threads polling the commit log every
  // `poll_interval` ns (paper step 7).
  void StartWorkers(uint32_t count, sim::Tick poll_interval);
  void StopWorkers();

  // Workload hook: applies log writes whose table id is outside the
  // Robinhood datastore (workload-managed structures, e.g. TPC-C B+trees
  // replicated to backups). Returns extra host ns to charge.
  using WorkerApplyHook = std::function<sim::Tick(const store::LogWrite&)>;
  void set_worker_apply_hook(WorkerApplyHook hook) { worker_apply_hook_ = std::move(hook); }

  NodeId id() const { return nic_->id(); }
  store::Datastore& datastore() { return *ds_; }
  nicmodel::SmartNic& nic() { return *nic_; }
  TxnStats& stats() { return stats_; }
  const TxnStats& stats() const { return stats_; }
  // Typed message transport (the only way anything leaves this node).
  // Exposed so the chaos layer can arm typed per-MsgType fault hooks.
  net::Transport& transport() { return transport_; }

  // --- Recovery support (paper 4.2.1) ---
  // Rebuild NIC lock state for in-flight transactions found in the log
  // (called on a backup promoted to primary). Returns keys re-locked.
  size_t RebuildLocksFromLog(const std::vector<store::LogRecord>& unacked);
  // Drop all transaction state (simulates NIC lock-state loss on failure).
  void ClearNicState();

  // Fail-stop this node: no submissions, no served requests, no outbound
  // messages, workers halt. In-flight engine events targeting the node
  // become no-ops. Coordinator state is kept (not freed) so that raw
  // TxnState pointers held by in-flight shipped executions stay valid.
  void Crash();
  bool crashed() const { return crashed_; }

  // Epoch-change sweep surface. A wedged transaction is an unreported
  // in-flight transaction coordinated here that involves `failed` (as
  // primary of a touched key or backup of a written shard) and therefore
  // can never finish on its own. The sweep (recovery.cc) decides per
  // transaction: if its LOG fan-out already reached every *live* backup it
  // is committed (the dead node's acks are synthesized), otherwise it is
  // aborted and tombstoned.
  struct WedgedTxn {
    TxnId id = store::kNoTxn;
    bool logs_sent = false;            // LOG fan-out happened (write set final)
    std::vector<KeyRef> keys;          // read ∪ write set (lock sweep surface)
    // Per written shard, the LOG record the fan-out sent (set iff logs_sent).
    std::vector<std::pair<NodeId, store::LogRecord>> records;
  };
  // `backup_touch` additionally flags transactions whose only involvement
  // with `failed` is a written shard replicated there -- needed for crash
  // sweeps (the dead backup's acks never arrive) but not for planned
  // handoff, where the departing node stays live and keeps acking.
  std::vector<WedgedTxn> WedgedOn(NodeId failed, bool backup_touch = true) const;
  // Whether this coordinator reported `txn` committed to its application.
  // Recovery consults live coordinators before discarding an in-doubt
  // record: a reported commit must always be rolled forward, even when the
  // log-scan evidence is incomplete (records already applied and reclaimed
  // elsewhere leave no trace to enumerate).
  bool HasReportedCommit(TxnId txn) const { return reported_committed_.count(txn) > 0; }
  // Synthesize the LOG acks the failed node will never send. Returns the
  // number synthesized; the transaction commits once (and if) the remaining
  // live acks arrive -- for a sweep-verified-complete transaction they are
  // already in flight.
  size_t ForceCommitWedged(TxnId txn, NodeId failed);
  // Planned failover (repl::PlannedHandoff): the departing primary's lease
  // lands here. State transfer already happened through the replicated
  // log; this just charges the NIC handler for installing the lease.
  void ServeLeaseHandoff(NodeId from);
  // Abort a wedged transaction (caller has already tombstoned its records
  // and released its locks cluster-wide, so the normal release fan-out is
  // suppressed).
  void ForceAbortWedged(TxnId txn);

 private:
  // ---- Per-transaction coordinator state (lives on the coordinator NIC).
  struct ShardGroup {
    NodeId primary = 0;
    std::vector<uint32_t> read_idx;   // indexes into TxnState::read_keys
    std::vector<uint32_t> write_idx;  // indexes into TxnState::write_keys
  };
  struct TxnState {
    TxnId id = store::kNoTxn;
    TxnRequest req;
    CommitCallback done;
    // Current key/read/write views (grow across execution rounds).
    std::vector<KeyRef> read_keys;
    std::vector<KeyRef> write_keys;
    std::vector<ReadResult> reads;      // aligned with read_keys
    std::vector<Seq> write_seqs;        // current seq per write key
    std::vector<WriteIntent> writes;    // aligned with write_keys (after exec)
    int round = 0;
    uint32_t pending = 0;     // outstanding responses in the current phase
    bool abort = false;
    bool app_abort = false;
    std::vector<NodeId> locked_shards;  // primaries holding our locks
    bool local_locked = false;          // shipped path: local keys locked
    bool lock_all = false;              // shipped path: read keys locked too
    uint32_t new_exec_read_base = 0;    // first read index of current round
    uint32_t new_exec_write_base = 0;
    sim::Tick coord_start = 0;          // distributed path: NIC start time
    sim::Tick phase_start = 0;          // current phase start time
    // LOG phase: which senders we are still waiting on, one entry per
    // expected ack (a backup id, or kShipExecSignal for the shipped path's
    // EXEC result). Kept in lockstep with `pending` so an epoch sweep can
    // synthesize a dead backup's acks exactly once -- a late real ack whose
    // sender is no longer listed is ignored instead of double-counted.
    std::vector<NodeId> log_waiting;
    // Quorum replication only (repl::ReplicationGroup::QuorumArmed): the
    // shard each outstanding ack replicates (lockstep with log_waiting;
    // kShipExecSignal entries carry the sentinel itself) and the per-shard
    // ack counts still required before the commit point may fire. Both
    // stay empty at the default wait-for-all quorum, keeping that path
    // byte-identical.
    std::vector<NodeId> log_shards;
    std::map<NodeId, uint32_t> log_needed;
    bool logs_sent = false;             // LOG fan-out happened
    AbortReason abort_reason = AbortReason::kNone;  // first abort cause wins
    // 2PL (CcPolicyKind::kWoundWait): read-set keys are locked at EVERY shard
    // that acknowledged EXECUTE, so commit/abort must release them there
    // (under OCC only the local/shipped paths lock reads -- see lock_all).
    bool cc_read_locks = false;
    // ClusterMap::version at submit time. 2PL commits fence on it: if the
    // membership changed while we ran, a lock granted by the evicted node
    // is gone and our "stable by construction" reads are not.
    uint64_t map_version = 0;
    // OCC hot-key route: the sketch-flagged write key whose conflicts may
    // park the transaction (a conflict on any other key aborts it).
    KeyRef hot_key;
  };

  // Sentinel "sender" for the shipped path's EXEC-result completion signal.
  static constexpr NodeId kShipExecSignal = static_cast<NodeId>(-1);

  using StatePtr = std::unique_ptr<TxnState>;

  // ---- Coordinator-side phases.
  void SubmitOnHost(StatePtr st);
  void LocalReadOnlyPath(StatePtr st);
  void LocalWritePath(StatePtr st);
  void CoordStartOnNic(TxnId id);
  // A local fast-path execution discovered remote keys: restart the
  // transaction through the distributed path.
  void EscalateToDistributed(TxnId txn);
  bool ShipEligible(const TxnState& st, NodeId* remote_out) const;
  void ShippedPath(TxnState* st, NodeId remote);
  void ExecutePhase(TxnState* st);
  void OnExecuteResp(TxnId id, NodeId shard, bool ok,
                     std::vector<std::pair<uint32_t, ReadResult>> reads,
                     std::vector<std::pair<uint32_t, Seq>> write_seqs,
                     std::vector<KeyRef> locked_keys);
  void AfterExecuteRound(TxnState* st);
  // Separate lock round used when smart_remote_ops is disabled (the
  // one-op-per-request ablation baseline): one LOCK request per write key,
  // issued after execution completes, DrTM-style.
  void LockRound(TxnState* st);
  void OnLockResp(TxnId id, NodeId shard, bool ok,
                  std::vector<std::pair<uint32_t, Seq>> write_seqs,
                  std::vector<KeyRef> locked_keys);
  // A lock grant arrived for a transaction that no longer exists (the epoch
  // sweep resolved it while the response was in flight): release the
  // orphaned locks at their shard.
  void ReleaseOrphanedLocks(TxnId txn, NodeId shard, std::vector<KeyRef> keys);
  // Version-gap check for keys both read and written; aborts and returns
  // false on a mismatch.
  bool CheckReadWriteGap(TxnState* st);
  void RunExecuteLogic(TxnState* st, sim::Engine::Callback next);
  void ValidatePhase(TxnState* st);
  void OnValidateResp(TxnId id, bool ok);
  void LogPhase(TxnState* st);
  void OnLogAck(TxnId id, bool ok, NodeId from);
  void OnShipFailure(TxnId id);
  void CommitPhase(TxnState* st);
  void ReportAndFinish(TxnState* st, TxnOutcome outcome);
  void AbortCleanup(TxnState* st, TxnOutcome outcome);
  void EraseState(TxnId id);
  TxnState* FindState(TxnId id);

  // Group the transaction's current keys by primary shard.
  std::vector<ShardGroup> GroupByShard(const TxnState& st, bool new_only) const;
  // Collect the write set of one shard as (key, intent, new seq) triples.
  std::vector<store::LogWrite> ShardWrites(const TxnState& st, NodeId shard) const;

  // ---- Server-side handlers (invoked on this node by peers' closures).
  struct ExecReply {
    bool ok = false;
    std::vector<std::pair<uint32_t, ReadResult>> reads;
    std::vector<std::pair<uint32_t, Seq>> write_seqs;
  };
  void ServeExecute(TxnId txn, NodeId coord, std::vector<std::pair<uint32_t, KeyRef>> reads,
                    std::vector<std::pair<uint32_t, KeyRef>> writes,
                    std::function<void(ExecReply)> reply);
  void ServeValidate(std::vector<std::pair<KeyRef, Seq>> checks,
                     std::function<void(bool)> reply);
  void ServeLog(store::LogRecord record, std::function<void(bool)> reply);
  // Commit-point notification (features.nic_log_apply): stabilizes the
  // transaction's LOG records so the NIC applier may apply and reclaim
  // them. Fire-and-forget; no reply.
  void ServeLogCommit(TxnId txn);
  void ServeCommit(TxnId txn, std::vector<store::LogWrite> writes,
                   std::vector<KeyRef> release_keys, sim::Engine::Callback ack);
  void ServeRelease(TxnId txn, std::vector<KeyRef> keys);
  void ServeShipExec(TxnId txn, NodeId coord, TxnState* coord_state);

  // Lock all given keys in the NIC index; on conflict release those taken
  // and return false. A conflict is recorded in the hot-key sketch; when
  // `conflict` is given it receives the first key that was denied.
  bool LockAll(TxnId txn, const std::vector<KeyRef>& keys, KeyRef* conflict = nullptr);
  void UnlockAll(TxnId txn, const std::vector<KeyRef>& keys);
  // Single release point for every node-path unlock: drops the lock, then
  // hands the key to one of its parked waiters (if any).
  void ReleaseOne(TxnId txn, const KeyRef& key);

  // True under wound-wait 2PL: read sets lock at EXECUTE time, the VALIDATE
  // phase is skipped, and the shipped/hot-key routes are disabled.
  bool Cc2pl() const { return features_->cc == CcPolicyKind::kWoundWait; }

  // ---- NIC-locked local route. All-local write transactions under 2PL,
  // and under OCC those whose write set hits a sketch-flagged hot key
  // (XenicFeatures::hot_key_fastpath), skip the optimistic race: the NIC
  // locks the read+write set up front, executes under the locks, and
  // reuses LogPhase/CommitPhase -- no validation.
  void LockedLocalPath(StatePtr st);
  void LockedLocalStart(TxnId txn);
  void LockedLocalAcquire(TxnId txn, uint32_t parks);
  void LockedLocalExecute(TxnState* st);
  // The read set then the write set, each key once.
  static std::vector<KeyRef> LockSet(const TxnState& st);

  // ---- NIC lock-wait queue. A lock request denied at this node may park,
  // holding zero locks here, until a release hands it the key or a
  // fallback timer fires; either way `resume` re-attempts the request's
  // whole lock set. Who may park:
  //  * 2PL: any request (a wound first aborts a younger holder); the
  //    oldest live waiter is woken first.
  //  * OCC with hot_key_fastpath: a local-route transaction whose hot key
  //    is taken, and a remote EXECUTE / shipped execution denied on a
  //    sketch-hot key (once per request, a shallow queue) instead of
  //    bouncing an abort-retry cycle through its coordinator. Local waiters
  //    are woken before remote ones, FIFO within each group.
  // Returns false when the request must deny (the caller aborts it).
  // `parks` counts the request's earlier parks; `remote` marks a request
  // a coordinator sent here. `resume` becomes a std::function only when
  // the request parks, so a deny allocates nothing.
  template <typename Resume>
  bool ParkOnConflict(TxnId txn, const KeyRef& key, uint32_t parks, bool remote,
                      Resume&& resume);
  // One parked request. A wake grants the lowest `rank`, in park order
  // among equals: CcPriority under 2PL, local before remote under OCC.
  // `id` lets the fallback timer find its own entry after wakes reordered
  // the queue. Under 2PL a waiter may hold locks at OTHER shards
  // (hold-and-wait is safe: wound-wait keeps the global waits-for graph
  // acyclic).
  struct Waiter {
    uint64_t id;
    TxnId txn;
    uint64_t rank;
    std::function<void()> resume;
  };
  using WaiterQueues = std::unordered_map<KeyRef, std::deque<Waiter>, KeyRefHash>;
  void Park(const KeyRef& key, TxnId txn, uint64_t rank, std::function<void()> resume);
  // Removes `pos` from the queue `it`, dropping the queue once empty.
  Waiter Unpark(WaiterQueues::iterator it, std::deque<Waiter>::iterator pos);
  void WakeWaiter(const KeyRef& key);
  // Run `resume` in a fresh event under `txn`'s trace context: a release
  // may happen inside another transaction's lock rollback, mid-iteration
  // over its key list.
  void ResumeSoon(TxnId txn, std::function<void()> resume);
  // Coordinator-side WOUND handler: abort `victim` unless it already
  // passed its commit point (logs sent / outcome reported) or is gone.
  void ServeWound(TxnId victim);

  // Read one key at the server-side NIC, charging DMA costs; calls `done`
  // with the result.
  void NicReadKey(const KeyRef& ref, bool metadata_only,
                  std::function<void(ReadResult, store::TxnId)> done);
  // Charge `stats` worth of DMA reads, then `done`.
  void ChargeDmaReads(const store::NicIndex::LookupStats& stats, sim::Engine::Callback done);

  // One NIC-index lookup with its DMA cost folded into `agg` (for a later
  // single ChargeDmaReads). `fetch_value` selects the full value read
  // (LookupRemote) over the metadata probe (ReadMetadata).
  std::optional<store::NicIndex::RemoteObject> LookupAccum(const KeyRef& k, bool fetch_value,
                                                           store::NicIndex::LookupStats* agg);

  // Shipped/local execution prologue shared by ShippedPath and
  // ServeShipExec: fetch the values of the read-set indices in `read_idx`
  // and refresh the current seqs of write keys homed on this node, folding
  // all DMA costs into `agg`.
  void ReadLocalSets(TxnState* st, const std::vector<uint32_t>& read_idx,
                     store::NicIndex::LookupStats* agg);

  // Append a record to the host log via DMA write, waiting (back-pressure)
  // while the bounded ring is full; `appended` runs after the DMA lands.
  void AppendWhenSpace(store::LogRecord record, sim::Engine::Callback appended);

  // Commit application at the primary NIC for `writes` (cache update, pin,
  // unlock); used by both ServeCommit and the local path.
  void ApplyCommitAtNic(TxnId txn, const std::vector<store::LogWrite>& writes,
                        sim::Engine::Callback done);

  // Robinhood worker iteration. `epoch` guards against stale ticks after a
  // stop/start cycle (chaos back-pressure windows restart workers).
  void WorkerTick(uint32_t worker, sim::Tick interval, uint64_t epoch);

  // NIC-core cost helpers.
  sim::Tick NicOpCost(size_t n_keys) const;
  sim::Tick NicExecCost(sim::Tick host_cost) const;

  // Emit a txn phase span / instant on this node's trace lane when an
  // engine trace sink is attached (pure recording; no simulation effect).
  void TracePhase(const char* name, sim::Tick start, sim::Tick end, TxnId id);
  void TraceInstant(const char* name, TxnId id);

  nicmodel::SmartNic* nic_;
  store::Datastore* ds_;
  const ClusterMap* map_;
  const XenicFeatures* features_;
  std::vector<XenicNode*>* peers_;
  const repl::ReplicationGroup* repl_;
  // NIC-ARM log applier (features.nic_log_apply): replaces the host
  // Robinhood workers for this node's commit log. Created on first
  // StartWorkers with the feature armed.
  std::unique_ptr<repl::LogApplier> applier_;
  std::unordered_map<TxnId, StatePtr> txns_;
  // Commit outcomes this coordinator reported (recovery oracle; see
  // HasReportedCommit). Lost with the node on a crash, like any host state.
  std::unordered_set<TxnId> reported_committed_;
  uint64_t next_txn_seq_ = 1;
  TxnStats stats_;
  // Per-shard conflict sketch feeding hot-key routing.
  HotKeySketch sketch_;
  // Per-key lock-wait queues (see ParkOnConflict).
  WaiterQueues waiters_;
  uint64_t waiter_seq_ = 0;
  net::Transport transport_;
  WorkerApplyHook worker_apply_hook_;
  bool workers_running_ = false;
  bool crashed_ = false;
  uint32_t workers_ = 0;
  uint64_t worker_epoch_ = 0;
  // Cached trace registration (lazily refreshed when a new sink appears).
  sim::TraceSink* trace_sink_ = nullptr;
  uint32_t trace_track_ = 0;
};

}  // namespace xenic::txn

#endif  // SRC_TXN_XENIC_NODE_H_
