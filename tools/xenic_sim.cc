// xenic_sim: command-line driver for the simulated cluster.
//
//   xenicsim --system xenic --workload smallbank --nodes 6 --contexts 64
//
// Prints a one-run summary (throughput per server, latency percentiles,
// abort rate, resource utilization); --csv emits a machine-readable line.
// --attrib adds the per-resource bottleneck-attribution table; --trace
// writes the run as Chrome trace-event JSON (about:tracing / Perfetto).
// `xenicsim --help` lists every flag.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/common/flags.h"
#include "src/common/table_printer.h"
#include "src/harness/cli.h"
#include "src/harness/runner.h"
#include "src/obs/attribution.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace_recorder.h"
#include "src/obs/txn_trace.h"
#include "src/workload/retwis.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"

namespace {

using namespace xenic;

struct Args {
  harness::SystemConfig system;  // --system, --replicas, --quorum, features
  std::string workload = "smallbank";
  uint32_t nodes = 6;
  uint32_t contexts = 32;
  uint64_t measure_us = 1000;
  uint64_t seed = 1;
  uint64_t scale = 0;  // per-node keys/accounts/warehouses; 0 = default
  bool csv = false;
  bool attrib = false;
  bool txn_attrib = false;
  bool abort_breakdown = false;
  harness::ObservabilityOptions obs;
  harness::ContentionOptions contention;
};

Args Parse(int argc, char** argv) {
  Args a;
  Flags flags("Run one closed-loop load point on the simulated cluster and print a summary.");
  harness::AddSystemFlag(flags, &a.system);
  flags.StringChoice("--workload", &a.workload, {"smallbank", "retwis", "tpcc", "tpcc-no"},
                     "workload (default smallbank)");
  flags.Positive("--nodes", &a.nodes, "servers in the cluster (default 6)");
  harness::AddReplicationFlags(flags, &a.system.replication, &a.system.quorum);
  flags.Positive("--contexts", &a.contexts, "closed-loop contexts per node (default 32)");
  flags.Positive("--measure-us", &a.measure_us,
                 "measurement window in microseconds (default 1000)");
  harness::AddSeedFlag(flags, &a.seed, "run seed (default 1)");
  flags.Uint("--scale", &a.scale, "per-node keys/accounts/warehouses (0 = workload default)");
  flags.Switch("--csv", &a.csv, "print one machine-readable CSV line");
  flags.Switch("--attrib", &a.attrib, "per-resource bottleneck-attribution table");
  flags.Switch("--txn-attrib", &a.txn_attrib, "p50-vs-tail critical-path waterfall");
  flags.Switch("--abort-breakdown", &a.abort_breakdown, "abort-reason table");
  a.obs.Register(flags);
  a.contention.Register(flags, /*with_cc=*/false);
  flags.Switch("--nic-log-apply", &a.system.features.nic_log_apply,
               "apply backup logs on the NIC ARM cores");
  flags.Parse(argc, argv);
  a.system.num_nodes = a.nodes;
  if (!a.obs.slo.empty()) {
    a.obs.metrics = true;  // objectives are evaluated over the metric windows
  }
  return a;
}

std::unique_ptr<workload::Workload> MakeWorkload(const Args& a) {
  if (a.workload == "smallbank") {
    workload::Smallbank::Options wo;
    wo.num_nodes = a.nodes;
    wo.accounts_per_node = a.scale != 0 ? a.scale : 60000;
    return std::make_unique<workload::Smallbank>(wo);
  }
  if (a.workload == "retwis") {
    workload::Retwis::Options wo;
    wo.num_nodes = a.nodes;
    wo.keys_per_node = a.scale != 0 ? a.scale : 60000;
    return std::make_unique<workload::Retwis>(wo);
  }
  if (a.workload == "tpcc" || a.workload == "tpcc-no") {
    workload::Tpcc::Options wo;
    wo.num_nodes = a.nodes;
    wo.warehouses_per_node = a.scale != 0 ? static_cast<uint32_t>(a.scale) : 24;
    wo.customers_per_district = 40;
    wo.items = 1000;
    wo.new_order_only = a.workload == "tpcc-no";
    wo.uniform_remote_items = a.workload == "tpcc-no";
    return std::make_unique<workload::Tpcc>(wo);
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = Parse(argc, argv);
  harness::SystemConfig cfg = a.system;
  auto wl = MakeWorkload(a);
  harness::ApplyContentionOptions(a.contention, nullptr, &cfg);

  auto system = harness::BuildSystem(cfg, *wl);
  std::fprintf(stderr, "loading %s...\n", wl->Name().c_str());
  harness::LoadWorkload(*system, *wl);

  harness::RunConfig rc;
  rc.contexts_per_node = a.contexts;
  rc.seed = a.seed;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = a.measure_us * sim::kNsPerUs;
  harness::ApplyContentionOptions(a.contention, &rc.retry, nullptr);
  obs::TraceRecorder rec;
  obs::TxnTraceSink txn_sink;
  obs::MetricRegistry reg;
  rc.metrics = a.obs.metrics ? &reg : nullptr;
  rc.metrics_window = a.obs.metrics_window_us * sim::kNsPerUs;
  rc.collect_resources = a.attrib;
  rc.trace = a.obs.trace_path.empty() ? nullptr : &rec;
  // --txn-attrib and --trace both need the engine's single trace slot;
  // --trace wins (RunWorkload prefers rc.trace when both are set).
  rc.txn_trace = a.txn_attrib ? &txn_sink : nullptr;
  std::fprintf(stderr, "running %s on %s (%u nodes, %u contexts/node)...\n", wl->Name().c_str(),
               system->Name().c_str(), a.nodes, a.contexts);
  harness::RunResult r = harness::RunWorkload(*system, *wl, rc);

  if (!a.obs.trace_path.empty()) {
    if (rec.WriteJson(a.obs.trace_path)) {
      std::fprintf(stderr, "wrote %s (%zu events, %zu tracks)\n", a.obs.trace_path.c_str(),
                   rec.num_events(), rec.num_tracks());
    } else {
      std::fprintf(stderr, "failed to write %s\n", a.obs.trace_path.c_str());
      return 1;
    }
  }

  if (a.obs.metrics) {
    // "metrics " / "slo " prefixes keep the default output strippable (the
    // check_determinism.sh idiom); the JSON and OpenMetrics twins go to
    // files next to the txn-attrib export.
    std::printf("%s", reg.Lines("metrics ").c_str());
    std::string slo_json;
    if (!a.obs.slo.empty()) {
      const obs::SloReport report = obs::EvaluateSlo(
          a.obs.slo, obs::SloInputsFromSeries(reg.series(), reg.FindCounter("txn_committed"),
                                              reg.FindCounter("txn_aborted"),
                                              reg.FindHistogram("txn_latency_ns")));
      std::printf("%s", report.Lines("slo ").c_str());
      slo_json = report.Json();
    }
    bench::WriteTextFile(
        "xenicsim.metrics.json",
        reg.Json("xenic_sim." + harness::SystemFlagName(cfg) + "." + a.workload, slo_json));
    bench::WriteTextFile("xenicsim.metrics.om", reg.OpenMetrics());
  }

  if (a.csv) {
    std::printf("system,workload,nodes,contexts,tput_per_server,median_us,p99_us,abort_rate,"
                "wire_util,host_util,nic_util\n");
    std::printf("%s,%s,%u,%u,%.0f,%.2f,%.2f,%.4f,%.3f,%.3f,%.3f\n", system->Name().c_str(),
                wl->Name().c_str(), a.nodes, a.contexts, r.tput_per_server, r.MedianLatencyUs(),
                r.P99LatencyUs(), r.abort_rate, r.wire_utilization, r.host_utilization,
                r.nic_utilization);
    return 0;
  }

  TablePrinter tp({"Metric", "Value"});
  tp.AddRow({"System", system->Name()});
  tp.AddRow({"Workload", wl->Name()});
  tp.AddRow({"Throughput/server", TablePrinter::FmtOps(r.tput_per_server) + " txn/s"});
  tp.AddRow({"Median latency", TablePrinter::Fmt(r.MedianLatencyUs(), 1) + " us"});
  tp.AddRow({"P99 latency", TablePrinter::Fmt(r.P99LatencyUs(), 1) + " us"});
  tp.AddRow({"Abort rate", TablePrinter::Fmt(r.abort_rate * 100, 2) + " %"});
  tp.AddRow({"Wire utilization", TablePrinter::Fmt(r.wire_utilization * 100, 1) + " %"});
  tp.AddRow({"Host utilization", TablePrinter::Fmt(r.host_utilization * 100, 1) + " %"});
  tp.AddRow({"NIC utilization", TablePrinter::Fmt(r.nic_utilization * 100, 1) + " %"});
  std::printf("%s", tp.Render("xenic_sim").c_str());
  if (a.abort_breakdown) {
    std::printf("\n");
    bench::PrintAbortBreakdown("abort breakdown", r);
  }
  if (a.attrib) {
    const obs::BottleneckReport report = obs::Attribute(r.resources);
    std::printf("\n%s", obs::RenderAttribution(report, "bottleneck attribution").c_str());
  }
  if (a.txn_attrib) {
    const obs::TailAttribution attrib = obs::AggregateTailAttribution(std::move(r.txn_paths));
    std::printf("\n%s", obs::RenderTxnWaterfall(attrib, "critical-path waterfall").c_str());
    std::printf("txn-trace audit: zero_id_spans=%llu orphan_instants=%llu late_spans=%llu\n",
                static_cast<unsigned long long>(txn_sink.zero_id_spans()),
                static_cast<unsigned long long>(txn_sink.orphan_instants()),
                static_cast<unsigned long long>(txn_sink.late_spans()));
    bench::WriteTextFile("xenicsim.txnattrib.json", obs::TxnAttribJson(attrib));
  }
  return 0;
}
