// Availability-transient comparison: crash failover vs planned lease
// handoff, same seed, same fault instant.
//
// The paper's replication story is that a SmartNIC-hosted log applier keeps
// backups continuously up to date, so a PLANNED primary departure (drain,
// rebalance, rolling upgrade) needs no lease-expiry wait, no log scan, and
// no cluster-wide sweep -- the lease moves and service continues. A crash,
// by contrast, pays the full detection delay plus the epoch sweep. This
// bench makes that difference a number: it runs the chaos bank workload
// twice with identical seeds -- once with one crash, once with one planned
// handoff at the SAME (instant, victim) draw (FaultPlan::Generate draws
// handoff placements from the same Rng positions as crashes) -- and
// measures the commit-throughput dip around the fault from the run's
// timeline bins (depth, width, deficit-weighted degraded service time).
//
// The crash run uses a realistic lease-expiry detection delay (--detect-us,
// default 100us; the repo's chaos default of 8us is nearly instant and
// makes even crashes invisible at timeline resolution). The handoff run
// inherits the same spec but never waits on detection. Both runs enable the
// NIC log applier, the subsystem that makes instant promotion sound.
//
// Output: a table plus BENCH_avail.json (per-scenario dip depth/width and
// degraded_service_seconds) for EXPERIMENTS.md and regression tracking.
//
// Flags: [--seed N] [--detect-us N] [--window-us N] [--replicas N] [--jobs N]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/chaos/chaos_run.h"
#include "src/common/flags.h"
#include "src/common/table_printer.h"
#include "src/harness/cli.h"
#include "src/harness/sweep.h"

namespace {

using namespace xenic;
using chaos::AvailabilityReport;
using chaos::ChaosConfig;
using chaos::ChaosVerdict;

struct Scenario {
  const char* name = nullptr;
  ChaosVerdict verdict;
  AvailabilityReport avail;
};

Scenario RunScenario(const char* name, const ChaosConfig& config) {
  Scenario s;
  s.name = name;
  s.verdict = chaos::RunChaos(config);
  s.avail = chaos::ComputeAvailability(s.verdict.timeline, s.verdict.timeline_faults,
                                       s.verdict.timeline_horizon);
  return s;
}

std::string Seconds(uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%06llu", static_cast<unsigned long long>(us / 1000000),
                static_cast<unsigned long long>(us % 1000000));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 3;
  uint64_t detect_us = 100;
  uint64_t window_us = 20;
  uint32_t replicas = 3;
  uint32_t jobs = 1;
  Flags flags("Crash failover vs planned lease handoff at the same seed and fault instant.");
  harness::AddSeedFlag(flags, &seed, "chaos seed of both runs");
  flags.Uint("--detect-us", &detect_us, "crash detection (lease expiry) delay in microseconds");
  flags.Positive("--window-us", &window_us, "timeline bin width in microseconds");
  harness::AddReplicationFlags(flags, &replicas, nullptr);
  harness::AddJobsFlag(flags, &jobs);
  flags.Parse(argc, argv);

  ChaosConfig base;
  base.seed = seed;
  base.system.replication = replicas;
  base.system.features.nic_log_apply = true;
  base.faults.crashes = 0;
  base.faults.eviction_storms = 0;
  base.faults.stall_windows = 0;
  base.faults.drop_prob = 0;
  base.faults.dup_prob = 0;
  base.faults.delay_prob = 0;
  base.faults.detection_delay = detect_us * sim::kNsPerUs;
  base.timeline = true;
  base.timeline_window = window_us * sim::kNsPerUs;

  ChaosConfig crash = base;
  crash.faults.crashes = 1;
  ChaosConfig handoff = base;
  handoff.faults.planned_handoffs = 1;

  harness::SweepExecutor ex(jobs);
  const std::vector<Scenario> scenarios = ex.Map<Scenario>({
      [&crash] { return RunScenario("crash", crash); },
      [&handoff] { return RunScenario("planned_handoff", handoff); },
  });

  TablePrinter tp({"scenario", "fault_at_us", "committed", "dip_depth_pct", "dip_width_us",
                   "degraded_service_s", "verdict"});
  std::string json = "{\"bench\":\"availability\",\"workload\":\"chaos-bank\",\"seed\":" +
                     std::to_string(seed) + ",\"detect_us\":" + std::to_string(detect_us) +
                     ",\"window_us\":" + std::to_string(window_us) +
                     ",\"replicas\":" + std::to_string(replicas) + ",\"scenarios\":[";
  bool all_ok = true;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    all_ok = all_ok && s.verdict.ok();
    // One injected fault per run, but report the worst dip defensively.
    uint64_t at_us = 0;
    uint32_t depth = 0;
    uint64_t width = 0;
    for (const auto& a : s.avail.per_fault) {
      at_us = a.fault.at / sim::kNsPerUs;
      depth = std::max(depth, a.dip_depth_pct);
      width = std::max(width, a.dip_width_us);
    }
    tp.AddRow({s.name, std::to_string(at_us), std::to_string(s.verdict.committed),
               std::to_string(depth), std::to_string(width),
               Seconds(s.avail.degraded_service_us), s.verdict.ok() ? "PASS" : "FAIL"});
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"scenario\":\"%s\",\"fault_at_us\":%llu,\"committed\":%llu,"
                  "\"dip_depth_pct\":%u,\"dip_width_us\":%llu,"
                  "\"degraded_service_seconds\":%s}",
                  i == 0 ? "" : ",", s.name, static_cast<unsigned long long>(at_us),
                  static_cast<unsigned long long>(s.verdict.committed), depth,
                  static_cast<unsigned long long>(width),
                  Seconds(s.avail.degraded_service_us).c_str());
    json += buf;
  }
  json += "]}";

  std::printf("%s\n",
              tp.Render("Availability: crash vs planned handoff (same seed, same instant)")
                  .c_str());

  const std::string path = "BENCH_avail.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  return all_ok ? 0 : 1;
}
