#include "src/txn/xenic_node.h"

#include <algorithm>
#include <cassert>

namespace xenic::txn {

namespace {

// Host-core costs (ns) for transaction initiation and local data access.
constexpr sim::Tick kHostInitCost = 100;
constexpr sim::Tick kHostKeyCost = 60;
constexpr sim::Tick kHostFinishBase = 80;

// NIC-core handler costs: per-message base plus per-key work. The base
// matches the measured minimal-RPC handler (section 3.3).
constexpr sim::Tick kNicOpBase = 150;
constexpr sim::Tick kNicKeyCost = 60;

// Lock-wait queue: fallback wakeup for parked waiters (covers lock
// releases that bypass the node's release paths, e.g. recovery sweeps) and
// the cap on how often one request may re-park before it denies and falls
// back to a normal abort-and-retry.
constexpr sim::Tick kParkTimeout = 30 * sim::kNsPerUs;
constexpr uint32_t kMaxParks = 8;
// Under OCC, remote lock requests park far more conservatively than local
// hot-route txns: every park delays a coordinator that may hold locks at
// OTHER shards. One park per request bounds the cross-shard blocking chain
// to a single timeout (then the deny resolves any distributed cycle), and
// a shallow per-key cap on remote waiters keeps hot keys from building
// convoys -- a deep FIFO serializes waiters across several lock
// generations, which costs more in idle coordinator contexts than the
// saved retry work.
constexpr uint32_t kRemoteMaxParks = 1;
constexpr size_t kRemoteQueueCap = 2;
// Wake ranks of OCC waiters: local-route transactions before remote
// requests.
constexpr uint64_t kLocalRank = 0;
constexpr uint64_t kRemoteRank = 1;

// Robinhood worker costs.
constexpr sim::Tick kWorkerPollCost = 80;
constexpr sim::Tick kWorkerRecordCost = 150;
constexpr sim::Tick kWorkerWriteCost = 120;
constexpr int kWorkerBatch = 16;

bool ContainsKey(const std::vector<KeyRef>& v, const KeyRef& k) {
  return std::find(v.begin(), v.end(), k) != v.end();
}

}  // namespace

XenicNode::XenicNode(nicmodel::SmartNic* nic, store::Datastore* ds, const ClusterMap* map,
                     const XenicFeatures* features, std::vector<XenicNode*>* peers,
                     const repl::ReplicationGroup* repl)
    : nic_(nic),
      ds_(ds),
      map_(map),
      features_(features),
      peers_(peers),
      repl_(repl),
      transport_(nic, &crashed_, &stats_.messages, &stats_.by_type) {}

sim::Tick XenicNode::NicOpCost(size_t n_keys) const {
  return kNicOpBase + kNicKeyCost * static_cast<sim::Tick>(n_keys);
}

sim::Tick XenicNode::NicExecCost(sim::Tick host_cost) const {
  return static_cast<sim::Tick>(static_cast<double>(host_cost) /
                                nic_->model().arm_multithread_ratio);
}

std::optional<store::NicIndex::RemoteObject> XenicNode::LookupAccum(
    const KeyRef& k, bool fetch_value, store::NicIndex::LookupStats* agg) {
  store::NicIndex::LookupStats s;
  auto r = fetch_value ? ds_->index(k.table).LookupRemote(k.key, &s)
                       : ds_->index(k.table).ReadMetadata(k.key, &s);
  agg->dma_reads += s.dma_reads;
  agg->bytes_read += s.bytes_read;
  return r;
}

void XenicNode::ReadLocalSets(TxnState* st, const std::vector<uint32_t>& read_idx,
                              store::NicIndex::LookupStats* agg) {
  for (uint32_t i : read_idx) {
    auto r = LookupAccum(st->read_keys[i], /*fetch_value=*/true, agg);
    if (r) {
      st->reads[i] = ReadResult{true, r->seq, std::move(r->value)};
    }
  }
  for (size_t i = 0; i < st->write_keys.size(); ++i) {
    const auto& k = st->write_keys[i];
    if (map_->PrimaryOf(k.table, k.key) != id()) {
      continue;
    }
    auto m = LookupAccum(k, /*fetch_value=*/false, agg);
    st->write_seqs[i] = m ? m->seq : 0;
  }
}

// ---------------------------------------------------------------------------
// Submission and path selection.
// ---------------------------------------------------------------------------

TxnId XenicNode::Submit(TxnRequest req, CommitCallback done) {
  if (crashed_) {
    return 0;  // the application died with the node; no outcome is reported
  }
  auto st = std::make_unique<TxnState>();
  st->id = store::MakeTxnId(id(), next_txn_seq_++);
  st->req = std::move(req);
  st->done = std::move(done);
  st->read_keys = st->req.reads;
  st->write_keys = st->req.writes;
  st->reads.resize(st->read_keys.size());
  st->write_seqs.assign(st->write_keys.size(), 0);
  st->writes.resize(st->write_keys.size());
  st->map_version = map_->version;
  const TxnId id = st->id;
  // Root of this transaction's causal event chain: everything scheduled
  // from here on (host compute, NIC hops, DMA, wire) inherits the id.
  nic_->engine()->set_trace_ctx(id);
  SubmitOnHost(std::move(st));
  return id;
}

void XenicNode::SubmitOnHost(StatePtr st) {
  bool all_local = true;
  for (const auto& k : st->read_keys) {
    all_local &= map_->PrimaryOf(k.table, k.key) == id();
  }
  for (const auto& k : st->write_keys) {
    all_local &= map_->PrimaryOf(k.table, k.key) == id();
  }

  if (all_local && st->write_keys.empty() && st->req.local_log_writes.empty()) {
    LocalReadOnlyPath(std::move(st));
    return;
  }
  if (all_local) {
    if (Cc2pl()) {
      // 2PL: no optimistic race -- every local write takes the NIC-locked
      // route (subsumes the hot-key route).
      stats_.local_fastpath++;
      LockedLocalPath(std::move(st));
      return;
    }
    if (features_->hot_key_fastpath) {
      const sim::Tick now = nic_->engine()->now();
      for (const auto& k : st->write_keys) {
        if (sketch_.IsHot(k, now)) {
          st->hot_key = k;
          stats_.hot_path++;
          LockedLocalPath(std::move(st));
          return;
        }
      }
    }
    LocalWritePath(std::move(st));
    return;
  }

  // Distributed: ship the transaction state to the coordinator-side NIC.
  const TxnId txn = st->id;
  TxnState* raw = st.get();
  txns_[txn] = std::move(st);
  const uint32_t bytes = net::wire::TxnDescriptor(raw->read_keys.size(), raw->write_keys.size(),
                                                  raw->req.external_bytes);
  nic_->HostCompute(kHostInitCost, [this, txn, bytes] {
    nic_->HostToNic(bytes, [this, txn] { CoordStartOnNic(txn); });
  });
}

// ---------------------------------------------------------------------------
// Local fast paths (paper 4.2.4).
// ---------------------------------------------------------------------------

void XenicNode::LocalReadOnlyPath(StatePtr st) {
  stats_.local_fastpath++;
  // All reads and execution rounds happen on the host against the local
  // tables within one charged block: atomic, so no validation is needed.
  TxnState* raw = st.get();
  const TxnId txn = raw->id;
  txns_[txn] = std::move(st);

  sim::Tick cost = kHostInitCost + raw->req.exec_cost;
  cost += kHostKeyCost * static_cast<sim::Tick>(raw->read_keys.size());
  nic_->HostCompute(cost, [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr || crashed_) {
      return;
    }
    bool app_abort = false;
    int round = 0;
    while (true) {
      for (size_t i = 0; i < st->read_keys.size(); ++i) {
        if (st->reads[i].found) {
          continue;
        }
        const auto& k = st->read_keys[i];
        auto r = ds_->FreshLookup(k.table, k.key);
        if (r) {
          st->reads[i] = ReadResult{true, r->seq, std::move(r->value)};
        }
      }
      std::vector<KeyRef> add_reads;
      std::vector<KeyRef> add_writes;
      bool abort_flag = false;
      ExecRound er;
      er.round = round++;
      er.read_keys = &st->read_keys;
      er.reads = &st->reads;
      er.write_keys = &st->write_keys;
      er.writes = &st->writes;
      er.add_reads = &add_reads;
      er.add_writes = &add_writes;
      er.abort = &abort_flag;
      if (st->req.execute) {
        st->req.execute(er);
      }
      if (abort_flag) {
        app_abort = true;
        break;
      }
      assert(add_writes.empty() && "read-only transaction added writes");
      if (add_reads.empty()) {
        break;
      }
      bool all_local = true;
      for (const auto& k : add_reads) {
        all_local &= map_->PrimaryOf(k.table, k.key) == id();
      }
      if (!all_local) {
        // Execution discovered remote keys: escalate to the distributed
        // path (restart from the original key set; nothing was locked).
        EscalateToDistributed(txn);
        return;
      }
      for (const auto& k : add_reads) {
        st->read_keys.push_back(k);
        st->reads.emplace_back();
      }
    }
    auto done = std::move(st->done);
    if (app_abort) {
      stats_.app_aborted++;
    } else {
      stats_.committed++;
    }
    const TxnOutcome outcome = app_abort ? TxnOutcome::kAppAborted : TxnOutcome::kCommitted;
    EraseState(txn);
    done(outcome);
  });
}

void XenicNode::LocalWritePath(StatePtr st) {
  stats_.local_fastpath++;
  TxnState* raw = st.get();
  const TxnId txn = raw->id;
  txns_[txn] = std::move(st);

  // Optimistic host execution: read local values + run all rounds in one
  // charged block, producing the write set.
  sim::Tick cost = kHostInitCost + raw->req.exec_cost;
  cost += kHostKeyCost *
          static_cast<sim::Tick>(raw->read_keys.size() + raw->write_keys.size());
  nic_->HostCompute(cost, [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr || crashed_) {
      return;
    }
    bool app_abort = false;
    int round = 0;
    while (true) {
      for (size_t i = 0; i < st->read_keys.size(); ++i) {
        if (st->reads[i].found) {
          continue;
        }
        const auto& k = st->read_keys[i];
        auto r = ds_->FreshLookup(k.table, k.key);
        if (r) {
          st->reads[i] = ReadResult{true, r->seq, std::move(r->value)};
        }
      }
      for (size_t i = 0; i < st->write_keys.size(); ++i) {
        if (st->write_seqs[i] == 0) {
          const auto& k = st->write_keys[i];
          st->write_seqs[i] = ds_->FreshSeq(k.table, k.key).value_or(0);
        }
      }
      std::vector<KeyRef> add_reads;
      std::vector<KeyRef> add_writes;
      bool abort_flag = false;
      ExecRound er;
      er.round = round++;
      er.read_keys = &st->read_keys;
      er.reads = &st->reads;
      er.write_keys = &st->write_keys;
      er.writes = &st->writes;
      er.add_reads = &add_reads;
      er.add_writes = &add_writes;
      er.abort = &abort_flag;
      if (st->req.execute) {
        st->req.execute(er);
      }
      if (abort_flag) {
        app_abort = true;
        break;
      }
      if (add_reads.empty() && add_writes.empty()) {
        break;
      }
      bool all_local = true;
      for (const auto& k : add_reads) {
        all_local &= map_->PrimaryOf(k.table, k.key) == id();
      }
      for (const auto& k : add_writes) {
        all_local &= map_->PrimaryOf(k.table, k.key) == id();
      }
      if (!all_local) {
        EscalateToDistributed(txn);
        return;
      }
      for (const auto& k : add_reads) {
        st->read_keys.push_back(k);
        st->reads.emplace_back();
      }
      for (const auto& k : add_writes) {
        st->write_keys.push_back(k);
        st->write_seqs.push_back(0);
        st->writes.emplace_back();
      }
    }
    if (app_abort) {
      AbortCleanup(st, TxnOutcome::kAppAborted);
      return;
    }

    // Ship the transaction state to the local NIC: acquire write locks and
    // re-validate the optimistic reads, then replicate.
    const uint32_t bytes =
        net::wire::WriteImages(st->writes.size(), txn::ValueBytes(st->writes));
    const TxnId id2 = st->id;
    nic_->HostToNic(bytes, [this, id2] {
      TxnState* st = FindState(id2);
      if (st == nullptr || crashed_) {
        return;
      }
      nic_->NicCompute(NicOpCost(st->write_keys.size() + st->read_keys.size()), [this, id2] {
        TxnState* st = FindState(id2);
        if (st == nullptr || crashed_) {
          return;
        }
        if (!LockAll(st->id, st->write_keys)) {
          st->abort_reason = AbortReason::kLockLocal;
          AbortCleanup(st, TxnOutcome::kAborted);
          return;
        }
        st->locked_shards.push_back(id());
        // Validate: every read and write key's version must still match
        // what the host saw (writes are now locked, reads are not).
        bool ok = true;
        store::NicIndex::LookupStats agg;
        const sim::Tick now = nic_->engine()->now();
        for (size_t i = 0; i < st->read_keys.size() && ok; ++i) {
          auto m = LookupAccum(st->read_keys[i], /*fetch_value=*/false, &agg);
          const Seq cur = m ? m->seq : 0;
          const TxnId owner = m ? m->lock_owner : store::kNoTxn;
          if (cur != st->reads[i].seq || (owner != store::kNoTxn && owner != st->id)) {
            ok = false;
            sketch_.RecordConflict(st->read_keys[i], now);
          }
        }
        for (size_t i = 0; i < st->write_keys.size() && ok; ++i) {
          auto m = LookupAccum(st->write_keys[i], /*fetch_value=*/false, &agg);
          if ((m ? m->seq : 0) != st->write_seqs[i]) {
            ok = false;
            sketch_.RecordConflict(st->write_keys[i], now);
          }
        }
        ChargeDmaReads(agg, [this, id2, ok] {
          TxnState* st = FindState(id2);
          if (st == nullptr || crashed_) {
            return;
          }
          if (!ok) {
            st->abort_reason = AbortReason::kValidate;
            AbortCleanup(st, TxnOutcome::kAborted);
            return;
          }
          LogPhase(st);
        });
      });
    });
  });
}

// ---------------------------------------------------------------------------
// NIC-locked local route: every all-local write under 2PL, and under OCC
// (XenicFeatures::hot_key_fastpath, p4db-style is_hot routing) one whose
// write set hits a sketch-flagged hot key. The transaction skips the
// optimistic host execution: the NIC locks the full read+write set up
// front, executes under locks, and goes straight to LOG/COMMIT -- no
// validation race, hence no redo. On a lock conflict the transaction may
// park in the key's wait queue *holding zero locks* (no hold-and-wait, so
// no deadlock) until a release wakes it.
// ---------------------------------------------------------------------------

void XenicNode::LockedLocalPath(StatePtr st) {
  TxnState* raw = st.get();
  const TxnId txn = raw->id;
  txns_[txn] = std::move(st);
  // Same host->NIC handoff as the local write path, minus the optimistic
  // host execution: the work happens on the NIC under locks.
  const uint32_t bytes = net::wire::TxnDescriptor(raw->read_keys.size(), raw->write_keys.size(),
                                                  raw->req.external_bytes);
  nic_->HostCompute(kHostInitCost, [this, txn, bytes] {
    nic_->HostToNic(bytes, [this, txn] { LockedLocalStart(txn); });
  });
}

void XenicNode::LockedLocalStart(TxnId txn) {
  TxnState* st = FindState(txn);
  if (st == nullptr || crashed_) {
    return;
  }
  nic_->NicCompute(NicOpCost(st->read_keys.size() + st->write_keys.size()),
                   [this, txn] { LockedLocalAcquire(txn, 0); });
}

std::vector<KeyRef> XenicNode::LockSet(const TxnState& st) {
  std::vector<KeyRef> keys;
  for (const auto* set : {&st.read_keys, &st.write_keys}) {
    for (const auto& k : *set) {
      if (!ContainsKey(keys, k)) {
        keys.push_back(k);
      }
    }
  }
  return keys;
}

void XenicNode::LockedLocalAcquire(TxnId txn, uint32_t parks) {
  TxnState* st = FindState(txn);
  if (st == nullptr || crashed_) {
    return;  // wounded / swept while parked; the waiter just dies
  }
  // Lock reads and writes together: everything is read under locks, so
  // there is no separate validation phase.
  KeyRef conflict;
  if (!LockAll(txn, LockSet(*st), &conflict)) {
    // Under OCC only the hot key's holder is worth waiting for; a conflict
    // on a cold key aborts and lets the submitter's retry policy decide.
    if ((Cc2pl() || conflict == st->hot_key) &&
        ParkOnConflict(txn, conflict, parks, /*remote=*/false,
                       [this, txn, parks] { LockedLocalAcquire(txn, parks + 1); })) {
      return;  // parked (zero locks held) until release, timeout, or wound
    }
    if (st->abort_reason == AbortReason::kNone) {
      st->abort_reason = AbortReason::kLockLocal;
    }
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  st->lock_all = true;
  st->local_locked = true;
  st->cc_read_locks = Cc2pl();
  st->locked_shards.push_back(id());
  // Read the full read set and current write seqs under the locks.
  std::vector<uint32_t> read_idx(st->read_keys.size());
  for (uint32_t i = 0; i < read_idx.size(); ++i) {
    read_idx[i] = i;
  }
  store::NicIndex::LookupStats agg;
  ReadLocalSets(st, read_idx, &agg);
  ChargeDmaReads(agg, [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr || crashed_) {
      return;
    }
    LockedLocalExecute(st);
  });
}

void XenicNode::LockedLocalExecute(TxnState* st) {
  const TxnId txn = st->id;
  nic_->NicCompute(NicExecCost(st->req.exec_cost), [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr || crashed_) {
      return;
    }
    std::vector<KeyRef> add_reads;
    std::vector<KeyRef> add_writes;
    bool abort_flag = false;
    ExecRound er;
    er.round = st->round++;
    er.read_keys = &st->read_keys;
    er.reads = &st->reads;
    er.write_keys = &st->write_keys;
    er.writes = &st->writes;
    er.add_reads = &add_reads;
    er.add_writes = &add_writes;
    er.abort = &abort_flag;
    if (st->req.execute) {
      st->req.execute(er);
    }
    if (abort_flag) {
      AbortCleanup(st, TxnOutcome::kAppAborted);
      return;
    }
    if (add_reads.empty() && add_writes.empty()) {
      LogPhase(st);
      return;
    }
    bool all_local = true;
    for (const auto& k : add_reads) {
      all_local &= map_->PrimaryOf(k.table, k.key) == id();
    }
    for (const auto& k : add_writes) {
      all_local &= map_->PrimaryOf(k.table, k.key) == id();
    }
    if (!all_local) {
      // Execution discovered remote keys: drop every lock and restart
      // through the distributed path (nothing is held while distributed
      // EXECUTE rounds run, so no cross-path deadlock is possible).
      UnlockAll(txn, LockSet(*st));
      st->locked_shards.clear();
      st->local_locked = false;
      st->lock_all = false;
      st->cc_read_locks = false;
      EscalateToDistributed(txn);
      return;
    }
    // Lock the newly added local keys in place (no parking mid-execution:
    // a conflict aborts and the submitter retries).
    std::vector<KeyRef> new_keys;
    auto held_already = [&](const KeyRef& k) {
      return ContainsKey(st->read_keys, k) || ContainsKey(st->write_keys, k);
    };
    for (const auto& k : add_reads) {
      if (!held_already(k) && !ContainsKey(new_keys, k)) {
        new_keys.push_back(k);
      }
    }
    for (const auto& k : add_writes) {
      if (!held_already(k) && !ContainsKey(new_keys, k)) {
        new_keys.push_back(k);
      }
    }
    const auto read_base = static_cast<uint32_t>(st->read_keys.size());
    for (const auto& k : add_reads) {
      st->read_keys.push_back(k);
      st->reads.emplace_back();
    }
    for (const auto& k : add_writes) {
      st->write_keys.push_back(k);
      st->write_seqs.push_back(0);
      st->writes.emplace_back();
    }
    if (!new_keys.empty() && !LockAll(txn, new_keys)) {
      if (st->abort_reason == AbortReason::kNone) {
        st->abort_reason = AbortReason::kLockLocal;
      }
      AbortCleanup(st, TxnOutcome::kAborted);
      return;
    }
    std::vector<uint32_t> new_read_idx;
    for (uint32_t i = read_base; i < st->read_keys.size(); ++i) {
      new_read_idx.push_back(i);
    }
    store::NicIndex::LookupStats agg;
    ReadLocalSets(st, new_read_idx, &agg);
    ChargeDmaReads(agg, [this, txn] {
      TxnState* st = FindState(txn);
      if (st == nullptr || crashed_) {
        return;
      }
      LockedLocalExecute(st);
    });
  });
}

// ---------------------------------------------------------------------------
// Distributed path: coordinator side.
// ---------------------------------------------------------------------------

void XenicNode::EscalateToDistributed(TxnId txn) {
  TxnState* st = FindState(txn);
  if (st == nullptr || crashed_) {
    return;
  }
  // Reset the optimistic local progress and restart through the NIC.
  st->read_keys = st->req.reads;
  st->write_keys = st->req.writes;
  st->reads.assign(st->read_keys.size(), ReadResult{});
  st->write_seqs.assign(st->write_keys.size(), 0);
  st->writes.assign(st->write_keys.size(), WriteIntent{});
  st->round = 0;
  st->new_exec_read_base = 0;
  st->new_exec_write_base = 0;
  const uint32_t bytes = net::wire::TxnDescriptor(st->read_keys.size(), st->write_keys.size(),
                                                  st->req.external_bytes);
  nic_->HostToNic(bytes, [this, txn] { CoordStartOnNic(txn); });
}

void XenicNode::CoordStartOnNic(TxnId id) {
  TxnState* st = FindState(id);
  if (st == nullptr || crashed_) {
    return;
  }
  st->coord_start = nic_->engine()->now();
  st->phase_start = st->coord_start;
  nic_->NicCompute(NicOpCost(st->read_keys.size() + st->write_keys.size()), [this, id] {
    TxnState* st = FindState(id);
    if (st == nullptr || crashed_) {
      return;
    }
    NodeId remote = 0;
    // The multi-hop shipped path is OCC-specific (it never wounds and its
    // locks are owned by two nodes at once); under 2PL every distributed
    // transaction takes the EXECUTE pipeline, which locks the read set and
    // wounds or waits on conflict.
    if (!Cc2pl() && features_->smart_remote_ops && features_->nic_execution &&
        features_->occ_multihop && st->req.allow_ship && ShipEligible(*st, &remote)) {
      ShippedPath(st, remote);
      return;
    }
    ExecutePhase(st);
  });
}

bool XenicNode::ShipEligible(const TxnState& st, NodeId* remote_out) const {
  if (st.write_keys.empty()) {
    return false;  // read-only: the normal path already commits in one RTT
  }
  bool has_remote = false;
  NodeId remote = 0;
  auto check = [&](const KeyRef& k) {
    const NodeId p = map_->PrimaryOf(k.table, k.key);
    if (p == id()) {
      return true;
    }
    if (!has_remote) {
      has_remote = true;
      remote = p;
      return true;
    }
    return p == remote;
  };
  for (const auto& k : st.read_keys) {
    if (!check(k)) {
      return false;
    }
  }
  for (const auto& k : st.write_keys) {
    if (!check(k)) {
      return false;
    }
  }
  if (!has_remote) {
    return false;  // fully local: handled by the local path already
  }
  *remote_out = remote;
  return true;
}

std::vector<XenicNode::ShardGroup> XenicNode::GroupByShard(const TxnState& st,
                                                           bool new_only) const {
  std::vector<ShardGroup> groups;
  auto group_of = [&](NodeId p) -> ShardGroup& {
    for (auto& g : groups) {
      if (g.primary == p) {
        return g;
      }
    }
    groups.push_back(ShardGroup{p, {}, {}});
    return groups.back();
  };
  const uint32_t rbase = new_only ? st.new_exec_read_base : 0;
  const uint32_t wbase = new_only ? st.new_exec_write_base : 0;
  for (uint32_t i = rbase; i < st.read_keys.size(); ++i) {
    group_of(map_->PrimaryOf(st.read_keys[i].table, st.read_keys[i].key)).read_idx.push_back(i);
  }
  for (uint32_t i = wbase; i < st.write_keys.size(); ++i) {
    group_of(map_->PrimaryOf(st.write_keys[i].table, st.write_keys[i].key))
        .write_idx.push_back(i);
  }
  return groups;
}

void XenicNode::ExecutePhase(TxnState* st) {
  stats_.remote_rounds++;
  if (Cc2pl()) {
    // 2PL: the EXECUTE handlers lock read-set keys too, so commit/abort
    // must release them at every granted shard (cc_read_locks) and
    // CommitPhase's release_keys machinery engages (lock_all).
    st->cc_read_locks = true;
    st->lock_all = true;
  }
  const bool new_only = st->round > 0;
  std::vector<ShardGroup> groups = GroupByShard(*st, new_only);

  // Without the combined "smart" remote operations, each read is its own
  // request and write locks move to a separate post-execution round (the
  // one-sided-RDMA-style baseline in Figure 9). 2PL overrides the
  // ablation: locking at execute time requires the combined operation.
  if (!features_->smart_remote_ops && !Cc2pl()) {
    std::vector<ShardGroup> split;
    for (const auto& g : groups) {
      for (uint32_t r : g.read_idx) {
        split.push_back(ShardGroup{g.primary, {r}, {}});
      }
    }
    groups = std::move(split);
  }

  st->pending = static_cast<uint32_t>(groups.size());
  if (st->pending == 0) {
    AfterExecuteRound(st);
    return;
  }
  const TxnId txn = st->id;
  for (const auto& g : groups) {
    std::vector<std::pair<uint32_t, KeyRef>> reads;
    std::vector<std::pair<uint32_t, KeyRef>> writes;
    for (uint32_t i : g.read_idx) {
      reads.emplace_back(i, st->read_keys[i]);
    }
    for (uint32_t i : g.write_idx) {
      writes.emplace_back(i, st->write_keys[i]);
    }
    const uint32_t req_bytes = net::wire::ExecuteReq(reads.size(), writes.size());
    XenicNode* server = (*peers_)[g.primary];
    const NodeId shard = g.primary;
    // Keys the server will lock (mirrors ServeExecute): tracked so a grant
    // that races an abort can be released as orphaned.
    std::vector<KeyRef> lock_keys;
    for (const auto& [i, k] : writes) {
      (void)i;
      lock_keys.push_back(k);
    }
    if (Cc2pl()) {
      for (const auto& [i, k] : reads) {
        (void)i;
        if (!ContainsKey(lock_keys, k)) {
          lock_keys.push_back(k);
        }
      }
    }
    transport_.Send(
        net::MsgType::kExecute, shard, req_bytes,
        [this, server, txn, shard, reads = std::move(reads), writes = std::move(writes),
         lock_keys = std::move(lock_keys)]() mutable {
          server->ServeExecute(
              txn, id(), std::move(reads), std::move(writes),
              [this, server, txn, shard, lock_keys = std::move(lock_keys)](ExecReply r) mutable {
                const uint32_t bytes = net::wire::ExecuteReply(r.reads.size(), ValueBytes(r.reads),
                                                               r.write_seqs.size());
                server->transport().Send(net::MsgType::kExecReply, id(), bytes,
                                         [this, txn, shard, r = std::move(r),
                                          lock_keys = std::move(lock_keys)]() mutable {
                                           OnExecuteResp(txn, shard, r.ok, std::move(r.reads),
                                                         std::move(r.write_seqs),
                                                         std::move(lock_keys));
                                         },
                                         txn);
              });
        },
        txn);
  }
}

void XenicNode::OnExecuteResp(TxnId id, NodeId shard, bool ok,
                              std::vector<std::pair<uint32_t, ReadResult>> reads,
                              std::vector<std::pair<uint32_t, Seq>> write_seqs,
                              std::vector<KeyRef> locked_keys) {
  TxnState* st = FindState(id);
  if (st == nullptr || crashed_) {
    // Raced with an abort (or this coordinator failed). If the server
    // granted locks, nobody will ever release them through the normal
    // paths: do it here. (`locked_keys` is the write set under OCC -- the
    // same keys `write_seqs` covers -- plus the read set under 2PL.)
    if (st == nullptr && !crashed_ && ok && !locked_keys.empty()) {
      ReleaseOrphanedLocks(id, shard, std::move(locked_keys));
    }
    return;
  }
  if (ok) {
    for (auto& [i, r] : reads) {
      st->reads[i] = std::move(r);
    }
    for (auto& [i, s] : write_seqs) {
      st->write_seqs[i] = s;
    }
    const bool holds_locks = st->cc_read_locks ? !locked_keys.empty() : !write_seqs.empty();
    if (holds_locks &&
        std::find(st->locked_shards.begin(), st->locked_shards.end(), shard) ==
            st->locked_shards.end()) {
      st->locked_shards.push_back(shard);
    }
  } else {
    st->abort = true;
    if (st->abort_reason == AbortReason::kNone) {
      st->abort_reason = AbortReason::kLockExecute;
    }
  }
  assert(st->pending > 0);
  if (--st->pending > 0) {
    return;
  }
  if (st->abort) {
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  AfterExecuteRound(st);
}

bool XenicNode::CheckReadWriteGap(TxnState* st) {
  // Version-gap check for keys both read and written: with the combined
  // EXECUTE operation the lock and read happen atomically in one handler,
  // so the versions trivially match; with smart_remote_ops disabled
  // (separate read and lock requests, the Figure 9 baseline) a concurrent
  // commit can slip between them and must abort this transaction.
  for (size_t j = 0; j < st->write_keys.size(); ++j) {
    for (size_t i = 0; i < st->read_keys.size(); ++i) {
      if (st->read_keys[i] == st->write_keys[j] && st->reads[i].found &&
          st->reads[i].seq != st->write_seqs[j]) {
        if (st->abort_reason == AbortReason::kNone) {
          st->abort_reason = AbortReason::kGap;
        }
        AbortCleanup(st, TxnOutcome::kAborted);
        return false;
      }
    }
  }
  return true;
}

void XenicNode::AfterExecuteRound(TxnState* st) {
  if ((features_->smart_remote_ops || Cc2pl()) && !CheckReadWriteGap(st)) {
    return;
  }
  const TxnId txn = st->id;
  RunExecuteLogic(st, [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    if (st->app_abort) {
      AbortCleanup(st, TxnOutcome::kAppAborted);
      return;
    }
    if (st->new_exec_read_base < st->read_keys.size() ||
        st->new_exec_write_base < st->write_keys.size()) {
      // Execution added keys: another EXECUTE round (multi-shot).
      st->round++;
      ExecutePhase(st);
      return;
    }
    if (!features_->smart_remote_ops && !Cc2pl() && !st->write_keys.empty()) {
      LockRound(st);
      return;
    }
    ValidatePhase(st);
  });
}

void XenicNode::LockRound(TxnState* st) {
  stats_.remote_rounds++;
  const TxnId txn = st->id;
  st->pending = static_cast<uint32_t>(st->write_keys.size());
  if (st->pending == 0) {
    ValidatePhase(st);
    return;
  }
  for (uint32_t i = 0; i < st->write_keys.size(); ++i) {
    const NodeId shard = map_->PrimaryOf(st->write_keys[i].table, st->write_keys[i].key);
    std::vector<std::pair<uint32_t, KeyRef>> writes = {{i, st->write_keys[i]}};
    std::vector<KeyRef> lock_keys = {st->write_keys[i]};
    const uint32_t req_bytes = net::wire::ExecuteReq(0, 1);
    XenicNode* server = (*peers_)[shard];
    transport_.Send(
        net::MsgType::kExecute, shard, req_bytes,
        [this, server, txn, shard, writes = std::move(writes),
         lock_keys = std::move(lock_keys)]() mutable {
          server->ServeExecute(txn, id(), {}, std::move(writes),
                               [this, server, txn, shard,
                                lock_keys = std::move(lock_keys)](ExecReply r) mutable {
                                 const uint32_t bytes = net::wire::SeqList(r.write_seqs.size());
                                 server->transport().Send(
                                     net::MsgType::kExecReply, id(), bytes,
                                     [this, txn, shard, r = std::move(r),
                                      lock_keys = std::move(lock_keys)]() mutable {
                                       OnLockResp(txn, shard, r.ok, std::move(r.write_seqs),
                                                  std::move(lock_keys));
                                     },
                                     txn);
                               });
        },
        txn);
  }
}

void XenicNode::OnLockResp(TxnId id, NodeId shard, bool ok,
                           std::vector<std::pair<uint32_t, Seq>> write_seqs,
                           std::vector<KeyRef> locked_keys) {
  TxnState* st = FindState(id);
  if (st == nullptr || crashed_) {
    if (st == nullptr && !crashed_ && ok) {
      ReleaseOrphanedLocks(id, shard, std::move(locked_keys));
    }
    return;
  }
  if (ok) {
    for (auto& [i, s] : write_seqs) {
      st->write_seqs[i] = s;
    }
    if (std::find(st->locked_shards.begin(), st->locked_shards.end(), shard) ==
        st->locked_shards.end()) {
      st->locked_shards.push_back(shard);
    }
  } else {
    st->abort = true;
    if (st->abort_reason == AbortReason::kNone) {
      st->abort_reason = AbortReason::kLockExecute;
    }
  }
  assert(st->pending > 0);
  if (--st->pending > 0) {
    return;
  }
  if (st->abort) {
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  if (!CheckReadWriteGap(st)) {
    return;
  }
  ValidatePhase(st);
}

void XenicNode::RunExecuteLogic(TxnState* st, sim::Engine::Callback next) {
  const TxnId txn = st->id;
  auto run_logic = [this, txn] {
    TxnState* st = FindState(txn);
    if (st == nullptr || crashed_) {
      return;
    }
    std::vector<KeyRef> add_reads;
    std::vector<KeyRef> add_writes;
    bool abort_flag = false;
    ExecRound er;
    er.round = st->round;
    er.read_keys = &st->read_keys;
    er.reads = &st->reads;
    er.write_keys = &st->write_keys;
    er.writes = &st->writes;
    er.add_reads = &add_reads;
    er.add_writes = &add_writes;
    er.abort = &abort_flag;
    if (st->req.execute) {
      st->req.execute(er);
    }
    st->app_abort = abort_flag;
    st->new_exec_read_base = static_cast<uint32_t>(st->read_keys.size());
    st->new_exec_write_base = static_cast<uint32_t>(st->write_keys.size());
    for (const auto& k : add_reads) {
      st->read_keys.push_back(k);
      st->reads.emplace_back();
    }
    for (const auto& k : add_writes) {
      st->write_keys.push_back(k);
      st->write_seqs.push_back(0);
      st->writes.emplace_back();
    }
  };

  if (features_->nic_execution && st->req.allow_ship) {
    nic_->NicCompute(NicExecCost(st->req.exec_cost),
                     [run_logic = std::move(run_logic), next = std::move(next)]() mutable {
                       run_logic();
                       next();
                     });
    return;
  }

  // Host execution: ship read values up, compute, ship write values down
  // (two extra PCIe crossings on the critical path).
  const uint32_t up_bytes = net::wire::ReadSet(st->reads.size(), ValueBytes(st->reads));
  const sim::Tick exec_cost = st->req.exec_cost;
  nic_->NicToHost(up_bytes, [this, txn, exec_cost, run_logic = std::move(run_logic),
                             next = std::move(next)]() mutable {
    nic_->HostCompute(exec_cost, [this, txn, run_logic = std::move(run_logic),
                                  next = std::move(next)]() mutable {
      run_logic();
      TxnState* st = FindState(txn);
      if (st == nullptr || crashed_) {
        return;
      }
      const uint32_t down_bytes =
          net::wire::WriteImages(st->writes.size(), ValueBytes(st->writes));
      nic_->HostToNic(down_bytes, std::move(next));
    });
  });
}

void XenicNode::ValidatePhase(TxnState* st) {
  if (st->coord_start != 0) {
    const sim::Tick now = nic_->engine()->now();
    TracePhase("EXECUTE", st->phase_start, now, st->id);
    st->phase_start = now;
  }
  if (Cc2pl()) {
    // 2PL: every read happened under its lock inside EXECUTE, so the read
    // versions are stable by construction -- no validation round. Read-only
    // transactions commit here; CommitPhase releases the read locks at
    // every granted shard (cc_read_locks) and erases the state.
    //
    // "By construction" assumes the grantors are still in the cluster. If
    // the membership changed since submit, a lock we took at the evicted
    // node evaporated with it (recovery only rebuilds locks for swept
    // log records, and we have not logged yet), so a post-recovery txn may
    // be racing us on those keys right now. OCC's VALIDATE would catch the
    // torn read; 2PL has no second look, so fence on the map version.
    if (st->map_version != map_->version) {
      if (st->abort_reason == AbortReason::kNone) {
        st->abort_reason = AbortReason::kEpochFence;
      }
      AbortCleanup(st, TxnOutcome::kAborted);
      return;
    }
    if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
      ReportAndFinish(st, TxnOutcome::kCommitted);
      CommitPhase(st);
      return;
    }
    LogPhase(st);
    return;
  }
  // Keys to validate: read-set keys that are not written (written keys are
  // locked since EXECUTE).
  struct ShardChecks {
    NodeId primary;
    std::vector<std::pair<KeyRef, Seq>> checks;
  };
  std::vector<ShardChecks> shards;
  std::vector<NodeId> involved;
  auto note_shard = [&](NodeId p) {
    if (std::find(involved.begin(), involved.end(), p) == involved.end()) {
      involved.push_back(p);
    }
  };
  for (const auto& k : st->read_keys) {
    note_shard(map_->PrimaryOf(k.table, k.key));
  }
  for (const auto& k : st->write_keys) {
    note_shard(map_->PrimaryOf(k.table, k.key));
  }

  for (size_t i = 0; i < st->read_keys.size(); ++i) {
    const auto& k = st->read_keys[i];
    if (ContainsKey(st->write_keys, k)) {
      continue;
    }
    const NodeId p = map_->PrimaryOf(k.table, k.key);
    auto it = std::find_if(shards.begin(), shards.end(),
                           [&](const ShardChecks& s) { return s.primary == p; });
    if (it == shards.end()) {
      shards.push_back(ShardChecks{p, {}});
      it = shards.end() - 1;
    }
    it->checks.emplace_back(k, st->reads[i].seq);
  }

  // Single-shard, single-round transactions read atomically inside one
  // EXECUTE handler; with the combined operations enabled, read-only ones
  // need no validation round.
  const bool atomic_snapshot = features_->smart_remote_ops && st->round == 0 &&
                               involved.size() == 1 && st->write_keys.empty();
  if (shards.empty() || atomic_snapshot) {
    if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
      ReportAndFinish(st, TxnOutcome::kCommitted);
      return;
    }
    LogPhase(st);
    return;
  }

  if (!features_->smart_remote_ops) {
    // One VALIDATE request per key.
    std::vector<ShardChecks> split;
    for (auto& s : shards) {
      for (auto& c : s.checks) {
        split.push_back(ShardChecks{s.primary, {c}});
      }
    }
    shards = std::move(split);
  }

  stats_.remote_rounds++;
  st->pending = static_cast<uint32_t>(shards.size());
  const TxnId txn = st->id;
  for (auto& s : shards) {
    const uint32_t bytes = net::wire::ValidateReq(s.checks.size());
    XenicNode* server = (*peers_)[s.primary];
    transport_.Send(
        net::MsgType::kValidate, s.primary, bytes,
        [this, server, txn, checks = std::move(s.checks)]() mutable {
          server->ServeValidate(std::move(checks), [this, server, txn](bool ok) {
            server->transport().SendAck(net::MsgType::kValidate, id(),
                                        [this, txn, ok] { OnValidateResp(txn, ok); }, txn);
          });
        },
        txn);
  }
}

void XenicNode::OnValidateResp(TxnId id, bool ok) {
  TxnState* st = FindState(id);
  if (st == nullptr || crashed_) {
    return;
  }
  if (!ok) {
    st->abort = true;
    if (st->abort_reason == AbortReason::kNone) {
      st->abort_reason = AbortReason::kValidate;
    }
  }
  assert(st->pending > 0);
  if (--st->pending > 0) {
    return;
  }
  if (st->abort) {
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  if (st->write_keys.empty() && st->req.local_log_writes.empty()) {
    ReportAndFinish(st, TxnOutcome::kCommitted);
    return;
  }
  LogPhase(st);
}

std::vector<store::LogWrite> XenicNode::ShardWrites(const TxnState& st, NodeId shard) const {
  std::vector<store::LogWrite> out;
  for (size_t i = 0; i < st.write_keys.size(); ++i) {
    const auto& k = st.write_keys[i];
    if (map_->PrimaryOf(k.table, k.key) != shard) {
      continue;
    }
    store::LogWrite w;
    w.table = k.table;
    w.key = k.key;
    w.seq = st.write_seqs[i] + 1;
    w.value = st.writes[i].value;
    w.is_delete = st.writes[i].is_delete;
    out.push_back(std::move(w));
  }
  if (shard == id()) {
    for (const auto& w : st.req.local_log_writes) {
      out.push_back(w);
    }
  }
  return out;
}

void XenicNode::LogPhase(TxnState* st) {
  if (st->coord_start != 0) {
    const sim::Tick now = nic_->engine()->now();
    TracePhase("VALIDATE", st->phase_start, now, st->id);
    st->phase_start = now;
  }
  // One LOG record per written shard, sent to each of that shard's backups.
  std::vector<NodeId> shards;
  for (const auto& k : st->write_keys) {
    const NodeId p = map_->PrimaryOf(k.table, k.key);
    if (std::find(shards.begin(), shards.end(), p) == shards.end()) {
      shards.push_back(p);
    }
  }
  if (!st->req.local_log_writes.empty() &&
      std::find(shards.begin(), shards.end(), id()) == shards.end()) {
    shards.push_back(id());
  }

  uint32_t pending = 0;
  const TxnId txn = st->id;
  std::vector<std::pair<NodeId, store::LogRecord>> to_send;
  for (NodeId shard : shards) {
    store::LogRecord rec;
    rec.type = store::LogRecordType::kLog;
    rec.txn = txn;
    rec.total_shards = static_cast<uint32_t>(shards.size());
    rec.shard = shard;
    rec.writes = ShardWrites(*st, shard);
    for (NodeId backup : repl_->BackupsOf(shard)) {
      to_send.emplace_back(backup, rec);
      pending++;
    }
  }
  if (pending == 0) {
    // Replication factor 1: commit point reached immediately.
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
    return;
  }
  st->pending = pending;
  st->logs_sent = true;
  st->log_waiting.clear();
  st->log_shards.clear();
  st->log_needed.clear();
  for (const auto& [backup, rec] : to_send) {
    st->log_waiting.push_back(backup);
    st->log_shards.push_back(rec.shard);
  }
  if (repl_->QuorumArmed()) {
    for (NodeId shard : shards) {
      st->log_needed[shard] = repl_->AcksRequired(shard);
    }
  } else {
    st->log_shards.clear();  // wait-for-all: per-shard attribution unused
  }
  stats_.remote_rounds++;
  for (auto& [backup, rec] : to_send) {
    const uint32_t bytes = net::wire::LogAppend(rec.ByteSize());
    XenicNode* server = (*peers_)[backup];
    transport_.Send(
        net::MsgType::kLog, backup, bytes,
        [this, server, txn, rec = std::move(rec)]() mutable {
          server->ServeLog(std::move(rec), [this, server, txn](bool ok) {
            const NodeId from = server->id();
            server->transport().SendAck(net::MsgType::kLog, id(),
                                        [this, txn, ok, from] { OnLogAck(txn, ok, from); }, txn);
          });
        },
        txn);
  }
  if (!st->log_needed.empty()) {
    bool met = true;
    for (const auto& [shard, needed] : st->log_needed) {
      if (needed > 0) {
        met = false;
        break;
      }
    }
    if (met) {
      // Quorum of one (the primary's own copy suffices): the commit point
      // is reached the moment the fan-out is on the wire. Clearing the
      // waiting lists turns every eventual ack into a late-arrival no-op.
      st->log_waiting.clear();
      st->log_shards.clear();
      st->log_needed.clear();
      ReportAndFinish(st, TxnOutcome::kCommitted);
      CommitPhase(st);
    }
  }
}

void XenicNode::OnLogAck(TxnId id, bool ok, NodeId from) {
  TxnState* st = FindState(id);
  if (st == nullptr || crashed_) {
    return;
  }
  // Consume one expected ack from `from`. If none is listed, an epoch sweep
  // already synthesized it (the sender was declared failed) or the quorum
  // commit point already fired: ignore the late arrival instead of
  // double-counting.
  auto it = std::find(st->log_waiting.begin(), st->log_waiting.end(), from);
  if (it == st->log_waiting.end()) {
    return;
  }
  const size_t idx = static_cast<size_t>(it - st->log_waiting.begin());
  st->log_waiting.erase(it);
  if (!st->log_shards.empty()) {
    // Quorum mode: retire this ack against its shard's remaining count.
    const NodeId shard = st->log_shards[idx];
    st->log_shards.erase(st->log_shards.begin() + static_cast<ptrdiff_t>(idx));
    auto ni = st->log_needed.find(shard);
    if (ni != st->log_needed.end() && ni->second > 0) {
      ni->second--;
    }
  }
  if (!ok) {
    st->abort = true;
    if (st->abort_reason == AbortReason::kNone) {
      st->abort_reason = AbortReason::kOther;
    }
  }
  assert(st->pending > 0);
  --st->pending;
  if (!st->log_needed.empty()) {
    // Quorum mode. An abort still waits for the full fan-out to drain (the
    // cleanup must not race stragglers); a commit fires as soon as every
    // written shard has its required ack count.
    if (st->abort) {
      if (st->pending > 0) {
        return;
      }
      AbortCleanup(st, TxnOutcome::kAborted);
      return;
    }
    for (const auto& [shard, needed] : st->log_needed) {
      if (needed > 0) {
        return;  // some shard below quorum: keep waiting
      }
    }
    // Commit point: every written shard reached its quorum. Stragglers hit
    // the late-arrival ignore path above; CommitPhase may safely reuse
    // st->pending for its own ack counting.
    st->log_waiting.clear();
    st->log_shards.clear();
    st->log_needed.clear();
    ReportAndFinish(st, TxnOutcome::kCommitted);
    CommitPhase(st);
    return;
  }
  if (st->pending > 0) {
    return;
  }
  if (st->abort) {
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  // Commit point: all backups hold the record. Report to the application,
  // then apply at the primaries in the background.
  ReportAndFinish(st, TxnOutcome::kCommitted);
  CommitPhase(st);
}

void XenicNode::CommitPhase(TxnState* st) {
  if (features_->nic_log_apply && st->logs_sent) {
    // Stability notice for the NIC appliers: each backup parks a LOG
    // record until it learns the transaction reached its commit point
    // (otherwise a quorum straggler could apply a record whose transaction
    // later aborts). Fire-and-forget -- commit progress never waits on it.
    std::vector<NodeId> logged;
    for (const auto& k : st->write_keys) {
      const NodeId p = map_->PrimaryOf(k.table, k.key);
      if (std::find(logged.begin(), logged.end(), p) == logged.end()) {
        logged.push_back(p);
      }
    }
    if (!st->req.local_log_writes.empty() &&
        std::find(logged.begin(), logged.end(), id()) == logged.end()) {
      logged.push_back(id());
    }
    const TxnId stable_txn = st->id;
    for (NodeId shard : logged) {
      for (NodeId backup : repl_->BackupsOf(shard)) {
        XenicNode* server = (*peers_)[backup];
        transport_.Send(
            net::MsgType::kLogCommit, backup, net::wire::LogCommit(),
            [server, stable_txn] { server->ServeLogCommit(stable_txn); }, stable_txn);
      }
    }
  }
  std::vector<NodeId> shards;
  for (const auto& k : st->write_keys) {
    const NodeId p = map_->PrimaryOf(k.table, k.key);
    if (std::find(shards.begin(), shards.end(), p) == shards.end()) {
      shards.push_back(p);
    }
  }
  if (!st->req.local_log_writes.empty() &&
      std::find(shards.begin(), shards.end(), id()) == shards.end()) {
    shards.push_back(id());
  }
  if (st->cc_read_locks || st->lock_all) {
    // Read locks can be held at shards with no writes at all: always under
    // 2PL (cc_read_locks), and on the OCC shipped path whenever the local
    // or executor shard's keys are read-only (e.g. a YCSB mix where the
    // coordinator's key isn't updated). Those shards get a release-only
    // COMMIT; shards already present from the write set are unaffected.
    for (const auto& k : st->read_keys) {
      const NodeId p = map_->PrimaryOf(k.table, k.key);
      if (std::find(shards.begin(), shards.end(), p) == shards.end()) {
        shards.push_back(p);
      }
    }
  }
  st->pending = static_cast<uint32_t>(shards.size());
  const TxnId txn = st->id;
  if (st->pending == 0) {
    EraseState(txn);
    return;
  }
  for (NodeId shard : shards) {
    std::vector<store::LogWrite> writes = ShardWrites(*st, shard);
    // The primary's COMMIT record covers datastore writes only:
    // workload-managed writes are applied by host_finish on the
    // coordinator and by the worker hook at backups (via LOG records).
    std::erase_if(writes,
                  [this](const store::LogWrite& w) { return w.table >= ds_->num_tables(); });
    // Shipped transactions locked their read-set keys too; release them
    // with the commit message.
    std::vector<KeyRef> release_keys;
    if (st->lock_all) {
      for (const auto& k : st->read_keys) {
        if (map_->PrimaryOf(k.table, k.key) == shard && !ContainsKey(st->write_keys, k)) {
          release_keys.push_back(k);
        }
      }
    }
    if (writes.empty() && release_keys.empty()) {
      if (--st->pending == 0) {
        EraseState(txn);
        return;
      }
      continue;
    }
    const uint32_t bytes =
        net::wire::CommitMsg(writes.size(), ValueBytes(writes), release_keys.size());
    XenicNode* server = (*peers_)[shard];
    transport_.Send(
        net::MsgType::kCommit, shard, bytes,
        [this, server, txn, writes = std::move(writes),
         release_keys = std::move(release_keys)]() mutable {
          server->ServeCommit(
              txn, std::move(writes), std::move(release_keys), [this, server, txn] {
                server->transport().SendAck(
                    net::MsgType::kCommit, id(),
                    [this, txn] {
                      TxnState* st = FindState(txn);
                      if (st == nullptr) {
                        return;
                      }
                      assert(st->pending > 0);
                      if (--st->pending == 0) {
                        EraseState(txn);
                      }
                    },
                    txn);
              });
        },
        txn);
  }
}

void XenicNode::ReportAndFinish(TxnState* st, TxnOutcome outcome) {
  if (crashed_) {
    // The application died with the node: drop the callback (marking the
    // outcome as reported so later events cannot double-finish) and skip
    // stats -- a crashed node publishes nothing.
    st->done = nullptr;
    return;
  }
  if (st->coord_start != 0 && outcome == TxnOutcome::kCommitted) {
    const sim::Tick now = nic_->engine()->now();
    TracePhase("LOG", st->phase_start, now, st->id);
    TracePhase("txn", st->coord_start, now, st->id);
  }
  if (outcome == TxnOutcome::kCommitted) {
    stats_.committed++;
    reported_committed_.insert(st->id);
  } else if (outcome == TxnOutcome::kAppAborted) {
    stats_.app_aborted++;
  } else {
    stats_.aborted++;
    switch (st->abort_reason) {
      case AbortReason::kLockExecute:
        stats_.abort_lock_execute++;
        break;
      case AbortReason::kLockLocal:
        stats_.abort_lock_local++;
        break;
      case AbortReason::kLockShip:
        stats_.abort_lock_ship++;
        break;
      case AbortReason::kValidate:
        stats_.abort_validate++;
        break;
      case AbortReason::kGap:
        stats_.abort_gap++;
        break;
      case AbortReason::kWounded:
        stats_.abort_wounded++;
        break;
      case AbortReason::kEpochFence:
        stats_.abort_epoch_fence++;
        break;
      default:
        stats_.abort_other++;
        break;
    }
  }
  auto done = std::move(st->done);
  st->done = nullptr;
  const sim::Tick finish_cost = st->req.host_finish_cost;
  auto host_finish = st->req.host_finish;
  nic_->NicToHost(net::wire::Descriptor(), [this, finish_cost, host_finish = std::move(host_finish),
                                     done = std::move(done), outcome]() mutable {
    // The commit point was the log acks; the application learns the
    // outcome now. Post-commit local work (B+tree maintenance etc.) is
    // deferred host work off the latency path, serialized behind this
    // completion on the host thread pool.
    nic_->HostCompute(kHostFinishBase, [done = std::move(done), outcome]() mutable {
      done(outcome);
    });
    if (host_finish && outcome == TxnOutcome::kCommitted) {
      nic_->HostCompute(finish_cost,
                        [host_finish = std::move(host_finish)]() mutable { host_finish(); });
    }
  });
}

void XenicNode::ReleaseOrphanedLocks(TxnId txn, NodeId shard, std::vector<KeyRef> keys) {
  if (keys.empty()) {
    return;
  }
  XenicNode* server = (*peers_)[shard];
  const uint32_t bytes = net::wire::KeyList(keys.size());
  transport_.Send(
      net::MsgType::kRelease, shard, bytes,
      [server, txn, keys = std::move(keys)]() mutable {
        server->ServeRelease(txn, std::move(keys));
      },
      txn);
}

void XenicNode::AbortCleanup(TxnState* st, TxnOutcome outcome) {
  const TxnId txn = st->id;
  // Release locks at every shard that acknowledged EXECUTE (or the local
  // lock set for local/shipped paths).
  for (NodeId shard : st->locked_shards) {
    std::vector<KeyRef> keys;
    for (const auto& k : st->write_keys) {
      if (map_->PrimaryOf(k.table, k.key) == shard) {
        keys.push_back(k);
      }
    }
    if ((st->local_locked && shard == id()) || st->cc_read_locks) {
      for (const auto& k : st->read_keys) {
        if (map_->PrimaryOf(k.table, k.key) == shard && !ContainsKey(keys, k)) {
          keys.push_back(k);
        }
      }
    }
    if (keys.empty()) {
      continue;
    }
    XenicNode* server = (*peers_)[shard];
    const uint32_t bytes = net::wire::KeyList(keys.size());
    transport_.Send(
        net::MsgType::kRelease, shard, bytes,
        [server, txn, keys = std::move(keys)]() mutable {
          server->ServeRelease(txn, std::move(keys));
        },
        txn);
  }
  ReportAndFinish(st, outcome);
  EraseState(txn);
}

void XenicNode::EraseState(TxnId id) { txns_.erase(id); }

XenicNode::TxnState* XenicNode::FindState(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Multi-hop shipped execution (paper 4.2.3, Figure 7b).
// ---------------------------------------------------------------------------

void XenicNode::ShippedPath(TxnState* st, NodeId remote) {
  stats_.shipped_multihop++;
  const TxnId txn = st->id;

  // Lock ALL local keys (reads included: the shipped path has no separate
  // validation phase) and read local read-set values.
  std::vector<KeyRef> local_keys;
  std::vector<uint32_t> local_reads;
  for (uint32_t i = 0; i < st->read_keys.size(); ++i) {
    if (map_->PrimaryOf(st->read_keys[i].table, st->read_keys[i].key) == id()) {
      local_keys.push_back(st->read_keys[i]);
      local_reads.push_back(i);
    }
  }
  for (const auto& k : st->write_keys) {
    if (map_->PrimaryOf(k.table, k.key) == id() && !ContainsKey(local_keys, k)) {
      local_keys.push_back(k);
    }
  }

  st->lock_all = true;
  if (!LockAll(txn, local_keys)) {
    st->abort_reason = AbortReason::kLockShip;
    AbortCleanup(st, TxnOutcome::kAborted);
    return;
  }
  if (!local_keys.empty()) {
    st->local_locked = true;
    st->locked_shards.push_back(id());
  }

  // Read local read-set values and the current seqs of local write keys.
  store::NicIndex::LookupStats agg;
  ReadLocalSets(st, local_reads, &agg);

  ChargeDmaReads(agg, [this, txn, remote] {
    TxnState* st = FindState(txn);
    if (st == nullptr) {
      return;
    }
    const uint32_t bytes = net::wire::ShipExec(
        st->read_keys.size(), st->write_keys.size(), st->req.external_bytes,
        ValueBytes(st->reads), st->req.local_log_writes.size(),
        ValueBytes(st->req.local_log_writes));
    // Expected completion signals: one EXEC result plus one ack per backup
    // of every written shard (counted at the remote executor, which knows
    // the final shard set -- precomputed here since shipping fixes the key
    // set).
    std::vector<NodeId> shards;
    for (const auto& k : st->write_keys) {
      const NodeId p = map_->PrimaryOf(k.table, k.key);
      if (std::find(shards.begin(), shards.end(), p) == shards.end()) {
        shards.push_back(p);
      }
    }
    if (!st->req.local_log_writes.empty() &&
        std::find(shards.begin(), shards.end(), id()) == shards.end()) {
      shards.push_back(id());
    }
    st->pending = 1;  // EXEC result
    st->log_waiting.assign(1, kShipExecSignal);
    st->log_shards.clear();
    st->log_needed.clear();
    for (NodeId s : shards) {
      for (NodeId b : repl_->BackupsOf(s)) {
        st->pending++;
        st->log_waiting.push_back(b);
      }
    }
    if (repl_->QuorumArmed()) {
      // Lockstep shard attribution: the EXEC result is modeled as a
      // pseudo-shard requiring exactly one signal, so the quorum test in
      // OnLogAck cannot commit before the executor reports back.
      st->log_shards.assign(1, kShipExecSignal);
      st->log_needed[kShipExecSignal] = 1;
      for (NodeId s : shards) {
        for (NodeId b : repl_->BackupsOf(s)) {
          (void)b;
          st->log_shards.push_back(s);
        }
        st->log_needed[s] = repl_->AcksRequired(s);
      }
    }

    XenicNode* server = (*peers_)[remote];
    transport_.Send(
        net::MsgType::kShipExec, remote, bytes,
        [this, server, txn, st] { server->ServeShipExec(txn, id(), st); }, txn);
  });
}

void XenicNode::ServeShipExec(TxnId txn, NodeId coord, TxnState* st) {
  XenicNode* coordinator = (*peers_)[coord];
  // `st` is a raw pointer into the coordinator's state table. Before any
  // dereference, confirm this node is alive and the coordinator still owns
  // the transaction: a delayed delivery can arrive after an epoch change
  // aborted (and freed) the state.
  if (crashed_ || coordinator->FindState(txn) != st) {
    return;
  }
  // Lock all keys homed here (reads and writes), read read-set values,
  // execute, then fan out LOG records to every backup with acks converging
  // at the coordinator NIC.
  std::vector<KeyRef> my_keys;
  std::vector<uint32_t> my_reads;
  for (uint32_t i = 0; i < st->read_keys.size(); ++i) {
    if (map_->PrimaryOf(st->read_keys[i].table, st->read_keys[i].key) == id()) {
      my_keys.push_back(st->read_keys[i]);
      my_reads.push_back(i);
    }
  }
  for (const auto& k : st->write_keys) {
    if (map_->PrimaryOf(k.table, k.key) == id() && !ContainsKey(my_keys, k)) {
      my_keys.push_back(k);
    }
  }

  auto my_keys_ptr = std::make_shared<std::vector<KeyRef>>(std::move(my_keys));
  auto my_reads_ptr = std::make_shared<std::vector<uint32_t>>(std::move(my_reads));
  // NicOpCost(0), not NicOpCost(my_keys_ptr->size()): the historical code
  // passed `NicOpCost(my_keys.size())` alongside a lambda whose init-capture
  // moved `my_keys` in the same call, and argument evaluation order ran the
  // move first -- so shipped executions have always been charged the base op
  // cost only. Golden transcripts (including the pinned seed-3 schedule)
  // encode that timing; keep it explicit rather than re-derive it by
  // accident.
  nic_->NicCompute(NicOpCost(0), [this, txn, coord, coordinator, st,
                                  my_keys_ptr, my_reads_ptr]() {
    // Lock attempt, re-entered after each remote hot-key park (recursion
    // on a copy of itself, like the EXECUTE handler's read loop).
    auto attempt = [this, txn, coord, coordinator, st, my_keys_ptr, my_reads_ptr](
                       auto&& self, uint32_t parks) -> void {
      if (crashed_ || coordinator->FindState(txn) != st) {
        return;
      }
      // After a park, a crashed coordinator still has the state in its
      // table (crash keeps txns_ for exactly these in-flight pointers), so
      // the FindState guard alone can't see the crash: check it directly
      // rather than lock and execute for a node that will never commit.
      if (parks > 0 && coordinator->crashed()) {
        return;
      }
      KeyRef conflict{};
      if (!LockAll(txn, *my_keys_ptr, &conflict)) {
        if (ParkOnConflict(txn, conflict, parks, /*remote=*/true,
                           [self, parks] { self(self, parks + 1); })) {
          // Hot key: the shipped execution is parked behind the holder
          // (zero locks held) instead of failing back to the coordinator.
          return;
        }
        transport_.SendAck(
            net::MsgType::kShipExec, coord,
            [coordinator, txn] { coordinator->OnShipFailure(txn); }, txn);
        return;
      }

      store::NicIndex::LookupStats agg;
      ReadLocalSets(st, *my_reads_ptr, &agg);

      ChargeDmaReads(agg, [this, txn, coord, coordinator, st, my_keys_ptr]() mutable {
        if (crashed_ || coordinator->FindState(txn) != st) {
          UnlockAll(txn, *my_keys_ptr);
          return;
        }
        // Execute on this NIC.
        nic_->NicCompute(NicExecCost(st->req.exec_cost), [this, txn, coord, coordinator,
                                                          st, my_keys_ptr]() mutable {
          if (crashed_ || coordinator->FindState(txn) != st) {
            UnlockAll(txn, *my_keys_ptr);
            return;
          }
        std::vector<KeyRef> add_reads;
        std::vector<KeyRef> add_writes;
        bool abort_flag = false;
        ExecRound er;
        er.round = 0;
        er.read_keys = &st->read_keys;
        er.reads = &st->reads;
        er.write_keys = &st->write_keys;
        er.writes = &st->writes;
        er.add_reads = &add_reads;
        er.add_writes = &add_writes;
        er.abort = &abort_flag;
        if (st->req.execute) {
          st->req.execute(er);
        }
        assert(add_reads.empty() && add_writes.empty() &&
               "shipped transactions must be single-round (allow_ship misuse)");
        if (abort_flag) {
          UnlockAll(txn, *my_keys_ptr);
          transport_.SendAck(
              net::MsgType::kShipExec, coord,
              [coordinator, txn] {
                TxnState* cst = coordinator->FindState(txn);
                if (cst != nullptr) {
                  cst->app_abort = true;
                }
                coordinator->OnShipFailure(txn);
              },
              txn);
          return;
        }

        // LOG fan-out to all backups of all written shards; acks go
        // straight to the coordinator NIC (the multi-hop pattern).
        std::vector<NodeId> shards;
        for (const auto& k : st->write_keys) {
          const NodeId p = map_->PrimaryOf(k.table, k.key);
          if (std::find(shards.begin(), shards.end(), p) == shards.end()) {
            shards.push_back(p);
          }
        }
        if (!st->req.local_log_writes.empty() &&
            std::find(shards.begin(), shards.end(), coord) == shards.end()) {
          shards.push_back(coord);
        }
        st->logs_sent = true;
        for (NodeId shard : shards) {
          store::LogRecord rec;
          rec.type = store::LogRecordType::kLog;
          rec.txn = txn;
          rec.total_shards = static_cast<uint32_t>(shards.size());
          rec.shard = shard;
          rec.writes = coordinator->ShardWrites(*st, shard);
          for (NodeId backup : repl_->BackupsOf(shard)) {
            const uint32_t bytes = net::wire::LogAppend(rec.ByteSize());
            XenicNode* bnode = (*peers_)[backup];
            transport_.Send(
                net::MsgType::kLog, backup, bytes,
                [coordinator, bnode, txn, rec]() mutable {
                  bnode->ServeLog(std::move(rec), [coordinator, bnode, txn](bool ok) {
                    const NodeId from = bnode->id();
                    bnode->transport().SendAck(net::MsgType::kLog, coordinator->id(),
                                               [coordinator, txn, ok, from] {
                                                 coordinator->OnLogAck(txn, ok, from);
                                               },
                                               txn);
                  });
                },
                txn);
          }
        }

        // EXEC result back to the coordinator (write values for its local
        // commit); counts as one of the pending completion signals.
        const uint32_t result_bytes =
            net::wire::ExecResult(st->writes.size(), ValueBytes(st->writes));
        transport_.Send(
            net::MsgType::kExecReply, coord, result_bytes,
            [coordinator, txn] { coordinator->OnLogAck(txn, true, kShipExecSignal); }, txn);
        });
      });
    };
    attempt(attempt, 0);
  });
}

void XenicNode::OnShipFailure(TxnId txn) {
  TxnState* st = FindState(txn);
  if (st == nullptr || crashed_) {
    return;
  }
  const TxnOutcome outcome = st->app_abort ? TxnOutcome::kAppAborted : TxnOutcome::kAborted;
  if (outcome == TxnOutcome::kAborted && st->abort_reason == AbortReason::kNone) {
    st->abort_reason = AbortReason::kLockShip;
  }
  AbortCleanup(st, outcome);
}

// ---------------------------------------------------------------------------
// Server-side handlers.
// ---------------------------------------------------------------------------

bool XenicNode::LockAll(TxnId txn, const std::vector<KeyRef>& keys, KeyRef* conflict) {
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!ds_->index(keys[i].table).AcquireLock(keys[i].key, txn).ok()) {
      sketch_.RecordConflict(keys[i], nic_->engine()->now());
      if (conflict != nullptr) {
        *conflict = keys[i];
      }
      for (size_t j = 0; j < i; ++j) {
        ReleaseOne(txn, keys[j]);
      }
      return false;
    }
  }
  return true;
}

void XenicNode::UnlockAll(TxnId txn, const std::vector<KeyRef>& keys) {
  for (const auto& k : keys) {
    ReleaseOne(txn, k);
  }
}

void XenicNode::ReleaseOne(TxnId txn, const KeyRef& key) {
  ds_->index(key.table).ReleaseLock(key.key, txn);
  WakeWaiter(key);
}

// ---------------------------------------------------------------------------
// Lock-wait queue and WOUND delivery.
// ---------------------------------------------------------------------------

template <typename Resume>
bool XenicNode::ParkOnConflict(TxnId txn, const KeyRef& key, uint32_t parks, bool remote,
                               Resume&& resume) {
  if (!Cc2pl()) {
    // OCC: only the hot-key path parks.
    if (remote) {
      if (!features_->hot_key_fastpath || parks >= kRemoteMaxParks ||
          !sketch_.IsHot(key, nic_->engine()->now())) {
        return false;
      }
      auto it = waiters_.find(key);
      if (it != waiters_.end() &&
          std::count_if(it->second.begin(), it->second.end(), [](const Waiter& w) {
            return w.rank == kRemoteRank;
          }) >= static_cast<std::ptrdiff_t>(kRemoteQueueCap)) {
        return false;  // convoy forming: deny instead of queueing behind it
      }
      stats_.hot_remote_parks++;
    } else {
      if (parks >= kMaxParks) {
        return false;  // the queue is not making progress
      }
      stats_.hot_waits++;
    }
    Park(key, txn, remote ? kRemoteRank : kLocalRank, std::forward<Resume>(resume));
    return true;
  }
  // Wound-wait.
  const TxnId holder = ds_->index(key.table).LockOwner(key.key);
  if (holder != store::kNoTxn && parks >= kMaxParks) {
    return false;  // deny: the coordinator aborts (and retries) the requester
  }
  stats_.cc_waits++;
  if (holder == store::kNoTxn) {
    // The holder released between the failed acquire and this decision
    // (lock rollbacks run inline). Re-attempt in a fresh event.
    ResumeSoon(txn, std::forward<Resume>(resume));
    return true;
  }
  if (WoundsHolder(txn, holder)) {
    // Abort the younger holder at its coordinator so the lock frees; the
    // message rides the transport (a self-wound schedules locally). The
    // holder may already be past its commit point, in which case the wound
    // is a no-op and we fall back to waiting for its release.
    stats_.cc_wounds++;
    const NodeId vcoord = store::TxnNode(holder);
    XenicNode* victim = (*peers_)[vcoord];
    transport_.Send(
        net::MsgType::kWound, vcoord, net::wire::Wound(),
        [victim, holder] { victim->ServeWound(holder); }, txn);
  }
  Park(key, txn, CcPriority(txn), std::forward<Resume>(resume));
  return true;
}

void XenicNode::Park(const KeyRef& key, TxnId txn, uint64_t rank,
                     std::function<void()> resume) {
  const uint64_t id = ++waiter_seq_;
  waiters_[key].push_back(Waiter{id, txn, rank, std::move(resume)});
  // Fallback wakeup: a release that bypasses this node's release paths
  // (recovery sweeps drop locks directly in the index) must not strand a
  // waiter. The entry id keeps a fired timer from double-waking a request
  // a release already resumed.
  nic_->engine()->ScheduleAfter(kParkTimeout, [this, key, id] {
    if (crashed_) {
      return;
    }
    auto it = waiters_.find(key);
    if (it == waiters_.end()) {
      return;
    }
    auto pos = std::find_if(it->second.begin(), it->second.end(),
                            [id](const Waiter& w) { return w.id == id; });
    if (pos == it->second.end()) {
      return;
    }
    Waiter w = Unpark(it, pos);
    nic_->engine()->set_trace_ctx(w.txn);
    w.resume();
  });
}

XenicNode::Waiter XenicNode::Unpark(WaiterQueues::iterator it, std::deque<Waiter>::iterator pos) {
  Waiter w = std::move(*pos);
  it->second.erase(pos);
  if (it->second.empty()) {
    waiters_.erase(it);
  }
  return w;
}

void XenicNode::WakeWaiter(const KeyRef& key) {
  if (waiters_.empty()) {
    return;  // the common case: nobody parks under OCC without the hot path
  }
  for (auto it = waiters_.find(key); it != waiters_.end(); it = waiters_.find(key)) {
    Waiter w = Unpark(it, std::min_element(it->second.begin(), it->second.end(),
                                           [](const Waiter& a, const Waiter& b) {
                                             return a.rank < b.rank;
                                           }));
    // Skip a waiter whose transaction died while parked (wounded, swept by
    // recovery, or its coordinator crashed): hand the release to the next
    // one instead of letting it go unused until a timeout fires. An OCC
    // remote waiter is resumed regardless; its resume re-checks the
    // coordinator and drops a dead request.
    XenicNode* coord = (*peers_)[store::TxnNode(w.txn)];
    if ((!Cc2pl() && w.rank == kRemoteRank) ||
        (!coord->crashed() && coord->FindState(w.txn) != nullptr)) {
      ResumeSoon(w.txn, std::move(w.resume));
      return;
    }
  }
}

void XenicNode::ResumeSoon(TxnId txn, std::function<void()> resume) {
  nic_->engine()->ScheduleAfter(0, [this, txn, resume = std::move(resume)] {
    if (crashed_) {
      return;
    }
    nic_->engine()->set_trace_ctx(txn);
    resume();
  });
}

void XenicNode::ServeWound(TxnId victim) {
  if (crashed_) {
    return;
  }
  TraceInstant("hop.wound", victim);
  nic_->NicCompute(NicOpCost(0), [this, victim] {
    if (crashed_) {
      return;
    }
    TxnState* st = FindState(victim);
    if (st == nullptr || st->done == nullptr || st->logs_sent) {
      // Already finished, restarted under a new id, or past the commit
      // point (logs out): a wound must not undo a commit decision.
      return;
    }
    if (st->abort_reason == AbortReason::kNone) {
      st->abort_reason = AbortReason::kWounded;
    }
    st->abort = true;
    // Abort NOW rather than lazily flagging: the victim may itself be
    // parked on a lock the wounder holds, and only an immediate release
    // breaks that cycle. In-flight responses tolerate the erased state
    // (ReleaseOrphanedLocks / FindState re-checks on every wake).
    AbortCleanup(st, TxnOutcome::kAborted);
  });
}

void XenicNode::ChargeDmaReads(const store::NicIndex::LookupStats& stats,
                               sim::Engine::Callback done) {
  if (stats.dma_reads == 0) {
    done();
    return;
  }
  const uint64_t per_read = stats.bytes_read / stats.dma_reads;
  auto remaining = std::make_shared<uint32_t>(stats.dma_reads);
  auto shared_done = std::make_shared<sim::Engine::Callback>(std::move(done));
  // The reads of one operation are issued as one vector: they proceed in
  // parallel on the DMA engine; completion is when the last one lands.
  for (uint32_t i = 0; i < stats.dma_reads; ++i) {
    nic_->DmaRead(per_read, [remaining, shared_done] {
      if (--*remaining == 0) {
        (*shared_done)();
      }
    });
  }
}

void XenicNode::NicReadKey(const KeyRef& ref, bool metadata_only,
                           std::function<void(ReadResult, store::TxnId)> done) {
  store::NicIndex::LookupStats s;
  std::optional<store::NicIndex::RemoteObject> r;
  if (metadata_only) {
    r = ds_->index(ref.table).ReadMetadata(ref.key, &s);
  } else {
    r = ds_->index(ref.table).LookupRemote(ref.key, &s);
  }
  ReadResult result;
  TxnId owner = store::kNoTxn;
  if (r) {
    result = ReadResult{true, r->seq, std::move(r->value)};
    owner = r->lock_owner;
  }
  ChargeDmaReads(s, [done = std::move(done), result = std::move(result), owner]() mutable {
    done(std::move(result), owner);
  });
}

void XenicNode::ServeExecute(TxnId txn, NodeId coord,
                             std::vector<std::pair<uint32_t, KeyRef>> reads,
                             std::vector<std::pair<uint32_t, KeyRef>> writes,
                             std::function<void(ExecReply)> reply) {
  if (crashed_) {
    return;  // request lost with the node; the coordinator times out
  }
  TraceInstant("hop.execute", txn);
  // NicOpCost(0), pinned: the historical code passed
  // `NicOpCost(reads.size() + writes.size())` alongside a lambda whose
  // init-captures moved `reads`/`writes` in the same call, and argument
  // evaluation order ran the moves first -- so EXECUTE handlers have always
  // been charged the base op cost only. Golden transcripts (including the
  // pinned seed-3 schedule) encode that timing; keep it explicit rather
  // than re-derive it by accident (regression-pinned by
  // serve_execute_cost_test.cc, like ServeShipExec below).
  nic_->NicCompute(
      NicOpCost(0),
      [this, txn, coord, reads = std::move(reads), writes = std::move(writes),
       reply = std::move(reply)]() mutable {
        if (crashed_) {
          return;
        }
        // Lock the write set first (all-or-nothing at this shard); a 2PL
        // policy locks the read set in the same step, making the reads
        // below stable without a validation round.
        std::vector<KeyRef> lock_keys;
        for (const auto& [i, k] : writes) {
          (void)i;
          lock_keys.push_back(k);
        }
        if (Cc2pl()) {
          for (const auto& [i, k] : reads) {
            (void)i;
            if (!ContainsKey(lock_keys, k)) {
              lock_keys.push_back(k);
            }
          }
        }
        auto reads_ptr = std::make_shared<std::vector<std::pair<uint32_t, KeyRef>>>(
            std::move(reads));
        auto writes_ptr = std::make_shared<std::vector<std::pair<uint32_t, KeyRef>>>(
            std::move(writes));
        auto lock_keys_ptr = std::make_shared<std::vector<KeyRef>>(std::move(lock_keys));
        auto reply_ptr = std::make_shared<std::function<void(ExecReply)>>(std::move(reply));

        // Lock attempt, re-entered after each remote hot-key park (the
        // recursion-on-a-copy idiom `step` below also uses).
        auto attempt = [this, txn, coord, reads_ptr, writes_ptr, lock_keys_ptr, reply_ptr](
                           auto&& self, uint32_t parks) -> void {
          if (crashed_) {
            return;  // the node died while this request was parked
          }
          // A wake after a park must re-check the coordinator: if it
          // crashed, or recovery swept the transaction while we waited,
          // granting locks now would strand them (nobody will release).
          // Dropping the reply is what a lost request looks like, which
          // both of those paths already handle.
          if (parks > 0 && ((*peers_)[coord]->crashed() ||
                            (*peers_)[coord]->FindState(txn) == nullptr)) {
            return;
          }
          KeyRef conflict{};
          if (!LockAll(txn, *lock_keys_ptr, &conflict)) {
            // The pending reply may park behind the holder (zero locks
            // held); a deny -- immediate, or after a timeout or an
            // exhausted park budget -- makes the coordinator abort.
            if (ParkOnConflict(txn, conflict, parks, /*remote=*/true,
                               [self, parks] { self(self, parks + 1); })) {
              return;
            }
            (*reply_ptr)(ExecReply{false, {}, {}});
            return;
          }

          // Abort when a read-set key is locked by another transaction
          // (paper 4.2 step 2).
          auto state = std::make_shared<ExecReply>();
          state->ok = true;

          // Sequentially read each read-set key (charging DMA costs), then
          // fetch current versions for the write set, then reply.
          auto finish = [this, txn, state, writes_ptr, lock_keys_ptr, reply_ptr]() {
            if (!state->ok) {
              UnlockAll(txn, *lock_keys_ptr);
              (*reply_ptr)(ExecReply{false, {}, {}});
              return;
            }
            // Current versions for the write set (from NIC metadata; absent
            // keys are inserts with seq 0).
            store::NicIndex::LookupStats agg;
            for (const auto& [i, k] : *writes_ptr) {
              auto m = LookupAccum(k, /*fetch_value=*/false, &agg);
              state->write_seqs.emplace_back(i, m ? m->seq : 0);
            }
            ChargeDmaReads(agg, [state, reply_ptr] { (*reply_ptr)(std::move(*state)); });
          };

          // Recurses on a copy of itself; a shared_ptr<function> capturing
          // itself would be a reference cycle leaking once per EXECUTE.
          auto step = [this, txn, state, reads_ptr, finish](auto&& self,
                                                            size_t idx) -> void {
            if (idx >= reads_ptr->size()) {
              finish();
              return;
            }
            const auto& [i, k] = (*reads_ptr)[idx];
            const uint32_t read_idx = i;
            const KeyRef key = k;
            NicReadKey(k, /*metadata_only=*/false,
                       [this, state, self, idx, read_idx, txn, key](ReadResult r,
                                                                   TxnId owner) mutable {
                         if (owner != store::kNoTxn && owner != txn) {
                           state->ok = false;
                           sketch_.RecordConflict(key, nic_->engine()->now());
                         } else {
                           state->reads.emplace_back(read_idx, std::move(r));
                         }
                         self(self, idx + 1);
                       });
          };
          step(step, 0);
        };
        attempt(attempt, 0);
      });
}

void XenicNode::ServeValidate(std::vector<std::pair<KeyRef, Seq>> checks,
                              std::function<void(bool)> reply) {
  if (crashed_) {
    return;
  }
  // The VALIDATE wire message doesn't carry the txn id in-band; the causal
  // trace context delivered with the message names it for the span tree.
  TraceInstant("hop.validate", nic_->engine()->trace_ctx());
  nic_->NicCompute(NicOpCost(checks.size()), [this, checks = std::move(checks),
                                              reply = std::move(reply)]() mutable {
    if (crashed_) {
      return;
    }
    bool ok = true;
    store::NicIndex::LookupStats agg;
    const sim::Tick now = nic_->engine()->now();
    for (const auto& [k, expected] : checks) {
      auto m = LookupAccum(k, /*fetch_value=*/false, &agg);
      const Seq cur = m ? m->seq : 0;
      const TxnId owner = m ? m->lock_owner : store::kNoTxn;
      if (cur != expected || owner != store::kNoTxn) {
        ok = false;
        sketch_.RecordConflict(k, now);
      }
    }
    ChargeDmaReads(agg, [ok, reply = std::move(reply)]() mutable { reply(ok); });
  });
}

void XenicNode::AppendWhenSpace(store::LogRecord record, sim::Engine::Callback appended) {
  if (crashed_) {
    return;  // the DMA target is gone; retry loops die with the node
  }
  if (ds_->log().Full()) {
    // Host has fallen behind: back-pressure by retrying until workers free
    // ring space. Commit-point decisions never observe a failed append.
    nic_->engine()->ScheduleAfter(
        2 * sim::kNsPerUs, [this, record = std::move(record),
                            appended = std::move(appended)]() mutable {
          AppendWhenSpace(std::move(record), std::move(appended));
        });
    return;
  }
  const auto bytes = static_cast<uint32_t>(record.ByteSize());
  // The record becomes host-visible when the DMA completes: append then,
  // in the same event as the caller's continuation, so the host workers
  // can never observe the record before the NIC's own bookkeeping (cache
  // pinning) is in place.
  nic_->DmaWrite(bytes, [this, record = std::move(record),
                         appended = std::move(appended)]() mutable {
    if (crashed_) {
      return;
    }
    if (ds_->log().Full()) {
      AppendWhenSpace(std::move(record), std::move(appended));
      return;
    }
    auto result = ds_->Append(std::move(record));
    assert(result.ok());
    (void)result;
    appended();
  });
}

void XenicNode::ServeLog(store::LogRecord record, std::function<void(bool)> reply) {
  if (crashed_) {
    return;
  }
  TraceInstant("hop.log", record.txn);
  nic_->NicCompute(NicOpCost(record.writes.size()), [this, record = std::move(record),
                                                     reply = std::move(reply)]() mutable {
    if (crashed_) {
      return;
    }
    AppendWhenSpace(std::move(record),
                    [reply = std::move(reply)]() mutable { reply(true); });
  });
}

void XenicNode::ApplyCommitAtNic(TxnId txn, const std::vector<store::LogWrite>& writes,
                                 sim::Engine::Callback done) {
  if (crashed_) {
    return;
  }
  for (const auto& w : writes) {
    if (w.table >= ds_->num_tables()) {
      continue;  // workload-managed: applied by host workers only
    }
    if (w.is_delete) {
      // Deletes are applied to the host structure synchronously at commit
      // time (no stale-read window via the cache).
      ds_->table(w.table).Erase(w.key);
    } else {
      ds_->index(w.table).ApplyCommit(w.key, w.value, w.seq);
    }
    ReleaseOne(txn, KeyRef{w.table, w.key});
  }
  done();
}

void XenicNode::ServeCommit(TxnId txn, std::vector<store::LogWrite> writes,
                            std::vector<KeyRef> release_keys, sim::Engine::Callback ack) {
  if (crashed_) {
    return;
  }
  nic_->NicCompute(NicOpCost(writes.size()), [this, txn, writes = std::move(writes),
                                              release_keys = std::move(release_keys),
                                              ack = std::move(ack)]() mutable {
    if (crashed_) {
      return;
    }
    store::LogRecord rec;
    rec.type = store::LogRecordType::kCommit;
    rec.txn = txn;
    rec.shard = id();
    rec.writes = writes;
    // The commit record is applied by the host workers; cache entries are
    // updated and pinned now, and locks release once the DMA completes.
    AppendWhenSpace(std::move(rec), [this, txn, writes = std::move(writes),
                                     release_keys = std::move(release_keys),
                                     ack = std::move(ack)]() mutable {
      for (const auto& k : release_keys) {
        ReleaseOne(txn, k);
      }
      ApplyCommitAtNic(txn, writes, std::move(ack));
    });
  });
}

void XenicNode::ServeRelease(TxnId txn, std::vector<KeyRef> keys) {
  if (crashed_) {
    return;
  }
  nic_->NicCompute(NicOpCost(keys.size()), [this, txn, keys = std::move(keys)] {
    if (crashed_) {
      return;
    }
    UnlockAll(txn, keys);
  });
}

void XenicNode::ServeLogCommit(TxnId txn) {
  if (crashed_) {
    return;
  }
  nic_->NicCompute(NicOpCost(0), [this, txn] {
    if (crashed_) {
      return;
    }
    ds_->log().MarkStable(txn);
  });
}

void XenicNode::ServeLeaseHandoff(NodeId from) {
  if (crashed_) {
    return;
  }
  (void)from;  // the routing flip itself happens in repl::PlannedHandoff
  nic_->NicCompute(NicOpCost(0), [] {});
}

// ---------------------------------------------------------------------------
// Robinhood workers (paper step 7).
// ---------------------------------------------------------------------------

void XenicNode::StartWorkers(uint32_t count, sim::Tick poll_interval) {
  if (crashed_) {
    return;  // dead nodes stay dead
  }
  if (features_->nic_log_apply) {
    // Replication subsystem: the commit log is drained by NIC-ARM applier
    // contexts (repl::LogApplier) instead of host Robinhood workers. Same
    // loop and batch shape; the cycles land on the NIC cores and kLog
    // records wait for the coordinator's stability notice.
    if (applier_ == nullptr) {
      applier_ = std::make_unique<repl::LogApplier>(nic_, ds_, &stats_.nic_log_applied);
    }
    applier_->set_apply_hook(worker_apply_hook_);
    applier_->Start(count, poll_interval);
    return;
  }
  workers_running_ = true;
  // Bump the generation so stale ticks from a previous start/stop cycle
  // die instead of doubling the worker pool on restart.
  worker_epoch_++;
  const uint64_t epoch = worker_epoch_;
  workers_ = count;
  for (uint32_t w = 0; w < count; ++w) {
    // Stagger the workers across the poll interval.
    nic_->engine()->ScheduleAfter(
        poll_interval * (w + 1) / count,
        [this, w, poll_interval, epoch] { WorkerTick(w, poll_interval, epoch); });
  }
}

void XenicNode::StopWorkers() {
  workers_running_ = false;
  worker_epoch_++;
  if (applier_ != nullptr) {
    applier_->Stop();
  }
}

void XenicNode::TracePhase(const char* name, sim::Tick start, sim::Tick end, TxnId txn) {
  sim::TraceSink* t = nic_->engine()->trace();
  if (t == nullptr) {
    return;
  }
  if (t != trace_sink_) {
    trace_sink_ = t;
    trace_track_ = t->RegisterTrack("txn_phases", "n" + std::to_string(id()));
  }
  t->Span(trace_track_, name, start, end, txn);
}

void XenicNode::TraceInstant(const char* name, TxnId txn) {
  sim::TraceSink* t = nic_->engine()->trace();
  if (t == nullptr) {
    return;
  }
  if (t != trace_sink_) {
    trace_sink_ = t;
    trace_track_ = t->RegisterTrack("txn_phases", "n" + std::to_string(id()));
  }
  t->Instant(trace_track_, name, nic_->engine()->now(), txn);
}

void XenicNode::WorkerTick(uint32_t worker, sim::Tick interval, uint64_t epoch) {
  if (!workers_running_ || crashed_ || epoch != worker_epoch_) {
    return;
  }
  // Charge the poll, then apply up to a batch of records (charging the
  // apply work before the next poll). The poll is ambient infrastructure,
  // not any transaction's work: mark it so attribution sinks don't count
  // its host_cores span as a lost-context anomaly (obs::TxnTraceSink).
  nic_->engine()->set_trace_ctx(sim::kAmbientTraceCtx);
  nic_->HostCompute(kWorkerPollCost, [this, worker, interval, epoch] {
    if (!workers_running_ || crashed_ || epoch != worker_epoch_) {
      return;
    }
    int applied = 0;
    sim::Tick extra = 0;
    while (applied < kWorkerBatch) {
      const store::LogRecord* rec = ds_->log().Peek();
      if (rec == nullptr) {
        break;
      }
      const uint64_t lsn = rec->lsn;
      if (ds_->IsTombstoned(rec->txn)) {
        // Epoch-aborted transaction: consume the record without applying.
        // Any NIC-side state from the append must be torn down too -- a
        // commit record pinned its cached objects until host apply, and
        // the cached values were never (and will never be) applied here.
        for (const auto& w : rec->writes) {
          if (w.table < ds_->num_tables()) {
            auto& t = ds_->table(w.table);
            const size_t seg = t.SegmentOfKey(w.key);
            ds_->index(w.table).OnHostApplied(w.key, t.SegmentMaxDisp(seg),
                                              t.SegmentHasOverflow(seg));
            ds_->index(w.table).Invalidate(w.key);
          }
        }
        ds_->ClearPending(*rec);
        ds_->log().PopApplied();
        ds_->log().Reclaim(lsn + 1);
        applied++;
        continue;
      }
      extra += kWorkerRecordCost;
      TraceInstant("apply", rec->txn);
      for (const auto& w : rec->writes) {
        extra += kWorkerWriteCost;
        if (w.table < ds_->num_tables()) {
          auto& t = ds_->table(w.table);
          if (w.is_delete) {
            t.Erase(w.key);
          } else {
            t.Apply(w.key, w.value, w.seq);
          }
          const size_t seg = t.SegmentOfKey(w.key);
          // Ack piggybacked on host-to-NIC traffic: unpin + refresh hint.
          ds_->index(w.table).OnHostApplied(w.key, t.SegmentMaxDisp(seg),
                                            t.SegmentHasOverflow(seg));
        } else if (worker_apply_hook_) {
          extra += worker_apply_hook_(w);
        }
      }
      if (rec->type == store::LogRecordType::kLog) {
        ds_->NoteLogApplied(rec->txn, rec->shard);
      }
      ds_->ClearPending(*rec);
      ds_->log().PopApplied();
      ds_->log().Reclaim(lsn + 1);
      applied++;
    }
    if (extra > 0) {
      // Charge the apply work before the next poll.
      nic_->HostCompute(extra, [this, worker, interval, epoch] {
        nic_->engine()->ScheduleAfter(interval, [this, worker, interval, epoch] {
          WorkerTick(worker, interval, epoch);
        });
      });
    } else {
      nic_->engine()->ScheduleAfter(interval, [this, worker, interval, epoch] {
        WorkerTick(worker, interval, epoch);
      });
    }
  });
}

// ---------------------------------------------------------------------------
// Recovery support.
// ---------------------------------------------------------------------------

size_t XenicNode::RebuildLocksFromLog(const std::vector<store::LogRecord>& unacked) {
  size_t locked = 0;
  for (const auto& rec : unacked) {
    for (const auto& w : rec.writes) {
      if (w.table >= ds_->num_tables()) {
        continue;
      }
      if (ds_->index(w.table).AcquireLock(w.key, rec.txn).ok()) {
        locked++;
      }
    }
  }
  return locked;
}

void XenicNode::ClearNicState() {
  txns_.clear();
  waiters_.clear();
}

void XenicNode::Crash() {
  crashed_ = true;
  workers_running_ = false;
  worker_epoch_++;
  if (applier_ != nullptr) {
    applier_->Stop();  // the NIC cores die with the node
  }
  // Parked requests die with the node: local ones with their state, and a
  // remote one's reply is never sent, which is exactly what a request lost
  // with the node looks like to its coordinator (recovery's wedged-txn
  // sweep resolves it).
  waiters_.clear();
  // txns_ is intentionally NOT cleared: shipped executions at remote nodes
  // hold raw pointers into it and guard against a vanished coordinator by
  // re-looking the state up -- freeing it here would leave them dangling
  // for the events already in flight.
}

std::vector<XenicNode::WedgedTxn> XenicNode::WedgedOn(NodeId failed, bool backup_touch) const {
  std::vector<WedgedTxn> out;
  if (crashed_) {
    return out;
  }
  for (const auto& [tid, st] : txns_) {
    if (st->done == nullptr) {
      continue;  // outcome already reported; the commit phase finishes on its own
    }
    bool touches = false;
    for (const auto& k : st->read_keys) {
      touches |= map_->PrimaryOf(k.table, k.key) == failed;
    }
    for (const auto& k : st->write_keys) {
      const NodeId p = map_->PrimaryOf(k.table, k.key);
      touches |= p == failed;
      // A written shard whose backup died can never collect all LOG acks.
      // A planned handoff (backup_touch=false) only wedges transactions
      // whose PRIMARY is departing: the node stays live as a backup, so
      // its acks keep flowing.
      if (backup_touch && !touches) {
        for (NodeId b : repl_->BackupsOf(p)) {
          touches |= b == failed;
        }
      }
    }
    if (!touches) {
      continue;
    }
    WedgedTxn w;
    w.id = tid;
    w.logs_sent = st->logs_sent;
    w.keys = st->read_keys;
    for (const auto& k : st->write_keys) {
      if (!ContainsKey(w.keys, k)) {
        w.keys.push_back(k);
      }
    }
    if (st->logs_sent) {
      // Reconstruct the LOG fan-out (one record per written shard) so the
      // sweep can check which live backups already hold or applied it.
      std::vector<NodeId> shards;
      for (const auto& k : st->write_keys) {
        const NodeId p = map_->PrimaryOf(k.table, k.key);
        if (std::find(shards.begin(), shards.end(), p) == shards.end()) {
          shards.push_back(p);
        }
      }
      if (!st->req.local_log_writes.empty() &&
          std::find(shards.begin(), shards.end(), id()) == shards.end()) {
        shards.push_back(id());
      }
      for (NodeId shard : shards) {
        store::LogRecord rec;
        rec.type = store::LogRecordType::kLog;
        rec.txn = tid;
        rec.total_shards = static_cast<uint32_t>(shards.size());
        rec.shard = shard;
        rec.writes = ShardWrites(*st, shard);
        w.records.emplace_back(shard, std::move(rec));
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

size_t XenicNode::ForceCommitWedged(TxnId txn, NodeId failed) {
  TxnState* st = FindState(txn);
  if (st == nullptr || crashed_ || st->done == nullptr) {
    return 0;
  }
  size_t synthesized = 0;
  while (FindState(txn) == st &&
         std::find(st->log_waiting.begin(), st->log_waiting.end(), failed) !=
             st->log_waiting.end()) {
    OnLogAck(txn, true, failed);
    synthesized++;
  }
  return synthesized;
}

void XenicNode::ForceAbortWedged(TxnId txn) {
  TxnState* st = FindState(txn);
  if (st == nullptr || crashed_ || st->done == nullptr) {
    return;
  }
  // The sweep released every lock synchronously; suppress the release
  // fan-out (the messages would be harmless owner-checked no-ops, but a
  // dead shard's would be dropped anyway).
  st->locked_shards.clear();
  st->local_locked = false;
  AbortCleanup(st, TxnOutcome::kAborted);
}

}  // namespace xenic::txn
