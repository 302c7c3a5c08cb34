// LogApplier: NIC-ARM-hosted continuous backup apply (ROADMAP item 3 /
// "Reliable Replication Protocols on SmartNICs"). Instead of host worker
// threads draining the commit log, the NIC ARM cores poll it and apply
// replicated LOG records into the backup tables as they stabilize -- the
// work is charged to the NIC compute resource, so it books under `nic_arm`
// in --attrib, and backup state stays continuously fresh enough to serve
// planned failover without a recovery scan.
//
// Stability gate: a kLog record is applied only once its transaction's
// commit point is known (CommitLog::IsStable, set by the coordinator's
// post-commit kLogCommit notification or by recovery roll-forward) or the
// transaction was tombstoned by an epoch sweep (consumed without
// applying). This keeps writes of transactions that later abort after
// replication out of the backup tables -- the invariant planned failover
// depends on. kCommit records are the primary's own post-commit-point
// appends and are always stable.

#ifndef SRC_REPL_LOG_APPLIER_H_
#define SRC_REPL_LOG_APPLIER_H_

#include <cstdint>
#include <functional>

#include "src/nicmodel/smart_nic.h"
#include "src/store/datastore.h"

namespace xenic::repl {

class LogApplier {
 public:
  // `applied_counter` (optional) is bumped once per applied record so the
  // owning node can surface the applier's throughput in its TxnStats.
  LogApplier(nicmodel::SmartNic* nic, store::Datastore* ds, uint64_t* applied_counter = nullptr)
      : nic_(nic), ds_(ds), applied_counter_(applied_counter) {}

  // Start `appliers` polling contexts (mirrors workers_per_node), staggered
  // like the host workers so a node's appliers do not tick in lockstep.
  void Start(uint32_t appliers, sim::Tick poll_interval);
  void Stop();
  bool running() const { return running_; }

  // Out-of-range tables are workload-virtual: the owning node's apply hook
  // handles them (same contract as XenicNode::set_worker_apply_hook). The
  // returned host-tick cost is rescaled onto the ARM cores.
  void set_apply_hook(std::function<sim::Tick(const store::LogWrite&)> hook) {
    apply_hook_ = std::move(hook);
  }

  uint64_t applied() const { return applied_; }
  uint64_t stable_waits() const { return stable_waits_; }

 private:
  void Tick(uint32_t applier, sim::Tick interval, uint64_t epoch);
  sim::Tick ArmCost(sim::Tick host_cost) const;

  nicmodel::SmartNic* nic_;
  store::Datastore* ds_;
  std::function<sim::Tick(const store::LogWrite&)> apply_hook_;
  uint64_t* applied_counter_ = nullptr;
  bool running_ = false;
  uint64_t epoch_ = 0;  // invalidates in-flight ticks across stop/start
  uint64_t applied_ = 0;
  uint64_t stable_waits_ = 0;
};

}  // namespace xenic::repl

#endif  // SRC_REPL_LOG_APPLIER_H_
