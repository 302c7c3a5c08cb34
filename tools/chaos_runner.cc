// Seeded chaos runner CLI.
//
// Runs one deterministic chaos schedule per seed -- crashes + recovery,
// wire faults, NIC-index eviction storms, commit-log back-pressure -- and
// audits the surviving history (serializability, money conservation, leaked
// locks/pins, log drain). Output is a pure function of the flags: the same
// seed prints the same verdict and the same simulator event count on every
// run and for every --jobs value, which tools/check_determinism.sh relies
// on. Exit status is 0 iff every seed's verdict is PASS.
//
// `chaos_runner --help` lists the flags (built from the table in main).
// Notes the help lines leave out:
// - --cc policies other than occ and --workload ycsb change event
//   schedules, so their transcripts are separate from the per-seed goldens;
//   YCSB has no money invariant, so its summary omits the money line.
// - --retry-policy arms backoff between a submitter's transactions. It is
//   off by default because arming draws extra Rng values.
// - --drop-type takes a net::MsgType name ("validate") or "<x>_reply" for
//   the ACKs of <x>; matching messages are redelivered by link-layer
//   retransmit. Xenic systems only.
// - --handoffs moves a live primary's role to its first live backup
//   without a crash or log sweep (Xenic only; baselines count them skipped).
// - --timeline lines all start with "timeline ", and the summaries are
//   byte-identical with the flag on or off (check_determinism.sh).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/chaos/chaos_run.h"
#include "src/common/flags.h"
#include "src/harness/cli.h"
#include "src/harness/sweep.h"

namespace {

using xenic::chaos::ChaosConfig;
using xenic::chaos::ChaosVerdict;
using xenic::chaos::RunChaos;

}  // namespace

int main(int argc, char** argv) {
  ChaosConfig base;
  base.faults.crashes = 1;
  base.faults.eviction_storms = 2;
  base.faults.stall_windows = 1;
  base.faults.drop_prob = 0.01;
  base.faults.dup_prob = 0.01;
  base.faults.delay_prob = 0.02;

  uint64_t seed = 1;
  uint64_t seed_lo = 0;
  uint64_t seed_hi = 0;
  bool seed_range = false;
  uint32_t jobs = 1;
  // Microsecond flags, converted to Ticks after parsing.
  uint64_t horizon_us = base.horizon / xenic::sim::kNsPerUs;
  uint64_t detect_us = base.faults.detection_delay / xenic::sim::kNsPerUs;
  uint64_t timeline_window_us = base.timeline_window / xenic::sim::kNsPerUs;
  xenic::harness::ObservabilityOptions obs;
  xenic::harness::ContentionOptions contention;

  xenic::Flags flags(
      "Run one deterministic chaos schedule per seed and audit the surviving history.\n"
      "Exit status is 0 iff every seed's verdict is PASS.");
  xenic::harness::AddSeedFlag(flags, &seed, "chaos seed (default 1)");
  flags.Custom("--seeds", "A-B", "run every seed in the inclusive range A..B",
               [&](const std::string& v) {
                 const size_t dash = v.find('-');
                 seed_range = dash != std::string::npos &&
                              xenic::Flags::ParseUint(v.substr(0, dash), &seed_lo) &&
                              xenic::Flags::ParseUint(v.substr(dash + 1), &seed_hi);
                 return seed_range;
               });
  xenic::harness::AddSystemFlag(flags, &base.system);
  xenic::harness::AddJobsFlag(flags, &jobs);
  flags.Positive("--nodes", &base.system.num_nodes, "servers in the cluster (default 6)");
  flags.Uint("--epoch", &base.epoch, "fault-plan epoch");
  flags.Uint("--horizon-us", &horizon_us, "submission window in microseconds (default 600)");
  xenic::harness::AddReplicationFlags(flags, &base.system.replication, &base.system.quorum);
  flags.Uint("--handoffs", &base.faults.planned_handoffs,
             "planned lease handoffs (Xenic systems only)");
  // Crash detection (lease expiry) delay. The default 8us is almost
  // instant; realistic lease timeouts are tens of microseconds, which is
  // exactly the availability gap planned handoff closes.
  flags.Uint("--detect-us", &detect_us,
             "crash detection (lease expiry) delay in microseconds (default 8)");
  flags.Switch("--nic-log-apply", &base.system.features.nic_log_apply,
               "apply backup logs on the NIC ARM cores");
  flags.Switch("--replica-reads", &base.system.features.replica_reads,
               "serve single-shard read-only transactions at backups (implies --nic-log-apply)");
  flags.Uint("--crashes", &base.faults.crashes, "node crashes (default 1)");
  flags.Uint("--storms", &base.faults.eviction_storms, "NIC-index eviction storms (default 2)");
  flags.Uint("--stalls", &base.faults.stall_windows,
             "commit-log back-pressure windows (default 1)");
  flags.Real("--drop", &base.faults.drop_prob, "per-frame drop probability (default 0.01)");
  flags.Real("--dup", &base.faults.dup_prob, "per-frame duplicate probability (default 0.01)");
  flags.Real("--delay", &base.faults.delay_prob, "per-frame delay probability (default 0.02)");
  flags.Positive("--log-capacity", &base.system.log_capacity,
                 "commit-log ring records per node");
  flags.Custom("--drop-type", "NAME",
               "drop every message of this type sent by --drop-node (e.g. validate, "
               "validate_reply)",
               [&base](const std::string& v) {
                 if (!xenic::net::ParseMsgSelector(v.c_str(), &base.faults.typed_drop)) {
                   return false;
                 }
                 if (base.faults.typed_drop_node < 0) {
                   base.faults.typed_drop_node = 0;
                 }
                 return true;
               });
  flags.Uint("--drop-node", &base.faults.typed_drop_node,
             "sender of the --drop-type drops (default 0)");
  contention.Register(flags);
  flags.Choice("--workload", &base.workload,
               {{"bank", xenic::chaos::ChaosWorkload::kBank},
                {"ycsb", xenic::chaos::ChaosWorkload::kYcsb}},
               "workload (default bank)");
  flags.Switch("--timeline", &base.timeline,
               "windowed throughput/abort/latency series and availability dips");
  flags.Uint("--timeline-window-us", &timeline_window_us,
             "timeline bin width in microseconds (default 50)");
  obs.Register(flags, /*window_and_trace=*/false);
  flags.Parse(argc, argv);

  if (!seed_range) {
    seed_lo = seed_hi = seed;
  }
  if (base.system.features.replica_reads) {
    base.system.features.nic_log_apply = true;  // replica reads need the applier
  }
  base.horizon = horizon_us * xenic::sim::kNsPerUs;
  base.faults.detection_delay = detect_us * xenic::sim::kNsPerUs;
  base.timeline_window = timeline_window_us * xenic::sim::kNsPerUs;
  // --retry-policy arms retry backoff between a submitter's transactions.
  base.retry_aborts = contention.retry_policy.has_value();
  xenic::harness::ApplyContentionOptions(contention, &base.retry, &base.system);
  base.metrics = obs.metrics;
  base.slo = obs.slo;
  if (seed_hi < seed_lo) {
    std::fprintf(stderr, "empty seed range\n");
    return 2;
  }

  xenic::harness::SweepExecutor ex(jobs);

  std::vector<std::function<ChaosVerdict()>> tasks;
  for (uint64_t s = seed_lo; s <= seed_hi; ++s) {
    ChaosConfig config = base;
    config.seed = s;
    tasks.push_back([config] { return RunChaos(config); });
  }
  const std::vector<ChaosVerdict> verdicts = ex.Map(tasks);

  bool all_ok = true;
  for (const ChaosVerdict& v : verdicts) {
    std::fputs(v.Summary().c_str(), stdout);
    if (base.timeline) {
      std::fputs(v.Timeline().c_str(), stdout);
    }
    // "metrics " / "slo " lines are strippable by prefix, like "timeline ".
    std::fputs(v.metrics_text.c_str(), stdout);
    std::fputs(v.slo_text.c_str(), stdout);
    std::fputs("\n", stdout);
    all_ok = all_ok && v.ok();
  }
  std::printf("%zu seed(s): %s\n", verdicts.size(), all_ok ? "ALL PASS" : "FAILURES");
  return all_ok ? 0 : 1;
}
