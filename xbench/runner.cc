// xbench_runner: one benchmark instance per process.
//
//   xbench_runner --workload retwis-large|ycsb-hot|tpcc-neworder-long
//                 --seed N [--trace 0|1]
//
// Builds the cluster, populates it and runs the closed-loop workload through
// the harness library API (harness::BuildSystem, Workload::Load ->
// SystemAdapter::LoadReplicated, harness::RunWorkload), then prints one JSON
// object of flat "name": number pairs on stdout. xbench/run.py launches it,
// checks the output and turns it into the benchmark's metrics.
//
// --trace 0 drives the plain library objects. --trace 1 wraps the workload
// and the system adapter in forwarding wrappers that time calls into each
// layer's public functions from the outside, and turns on the library's
// observer-only surfaces (resource monitor, critical-path sink, metric
// registry). Both modes print the same simulated scalars, so the caller can
// check the observer-only contract by comparing them.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/runner.h"
#include "src/harness/system_adapter.h"
#include "src/obs/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/txn_trace.h"
#include "src/workload/retwis.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace {

using namespace xenic;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Workloads

struct BenchSpec {
  std::unique_ptr<workload::Workload> workload;
  harness::RunConfig run;
};

bool MakeBench(const std::string& name, uint64_t seed, BenchSpec* spec) {
  harness::RunConfig& rc = spec->run;
  rc.seed = seed;
  rc.warmup = 150 * sim::kNsPerUs;
  if (name == "retwis-large") {
    // Library default of 100k keys/node: 600k keys, 1.8M replicated inserts.
    workload::Retwis::Options o;
    o.num_nodes = 6;
    spec->workload = std::make_unique<workload::Retwis>(o);
    rc.contexts_per_node = 64;
    rc.measure = 2000 * sim::kNsPerUs;
  } else if (name == "ycsb-hot") {
    // YCSB-A on a small zipfian keyspace: contention and retry dominate.
    workload::Ycsb::Options o;
    o.num_nodes = 6;
    o.keys_per_node = 1000;
    o.zipf_theta = 0.9;
    o.read_ratio = 0.5;
    o.ops_per_txn = 4;
    spec->workload = std::make_unique<workload::Ycsb>(o);
    rc.contexts_per_node = 12;
    rc.measure = 30000 * sim::kNsPerUs;
  } else if (name == "tpcc-neworder-long") {
    // The `xenicsim --workload=tpcc-no` configuration at 24 warehouses/node.
    workload::Tpcc::Options o;
    o.num_nodes = 6;
    o.warehouses_per_node = 24;
    o.customers_per_district = 40;
    o.items = 1000;
    o.new_order_only = true;
    o.uniform_remote_items = true;
    spec->workload = std::make_unique<workload::Tpcc>(o);
    rc.contexts_per_node = 32;
    rc.measure = 3000 * sim::kNsPerUs;
  } else {
    return false;
  }
  return true;
}

harness::SystemConfig MakeSystemConfig() {
  harness::SystemConfig cfg;
  cfg.kind = harness::SystemConfig::Kind::kXenic;
  cfg.num_nodes = 6;
  cfg.replication = 3;
  return cfg;
}

// ---------------------------------------------------------------------------
// Outside-in layer timers (traced runs only). Counts and summed host time are
// held in memory and printed once the run has ended.

struct LayerTimer {
  uint64_t calls = 0;
  int64_t ns = 0;

  double Seconds() const { return static_cast<double>(ns) / 1e9; }
  double MeanNs() const { return calls == 0 ? 0.0 : static_cast<double>(ns) / calls; }
};

class Timed {
 public:
  explicit Timed(LayerTimer* timer) : timer_(timer), start_(Clock::now()) {}
  ~Timed() {
    timer_->calls++;
    timer_->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
                      .count();
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  LayerTimer* timer_;
  Clock::time_point start_;
};

// Forwards every call to `inner`, timing Load and NextTxn.
class TimedWorkload : public workload::Workload {
 public:
  explicit TimedWorkload(workload::Workload& inner) : inner_(inner) {}

  std::string Name() const override { return inner_.Name(); }
  std::vector<workload::TableDef> Tables() const override { return inner_.Tables(); }
  const txn::Partitioner& partitioner() const override { return inner_.partitioner(); }
  void Load(const workload::LoadFn& load) override {
    Timed t(&load_);
    inner_.Load(load);
  }
  txn::TxnRequest NextTxn(store::NodeId coordinator, Rng& rng) override {
    Timed t(&next_txn_);
    return inner_.NextTxn(coordinator, rng);
  }
  std::function<sim::Tick(const store::LogWrite&)> WorkerHook(store::NodeId node) override {
    return inner_.WorkerHook(node);
  }
  bool CountsForThroughput(uint8_t tag) const override {
    return inner_.CountsForThroughput(tag);
  }

  const LayerTimer& load() const { return load_; }
  const LayerTimer& next_txn() const { return next_txn_; }

 private:
  workload::Workload& inner_;
  LayerTimer load_;
  LayerTimer next_txn_;
};

// Forwards every call to `inner`, timing LoadReplicated and Submit.
class TimedSystem : public harness::SystemAdapter {
 public:
  explicit TimedSystem(std::unique_ptr<harness::SystemAdapter> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  sim::Engine& engine() override { return inner_->engine(); }
  uint32_t num_nodes() const override { return inner_->num_nodes(); }
  uint64_t Submit(store::NodeId node, txn::TxnRequest req, txn::CommitCallback done) override {
    Timed t(&submit_);
    return inner_->Submit(node, std::move(req), std::move(done));
  }
  void LoadReplicated(store::TableId t, store::Key k, const store::Value& v) override {
    Timed timed(&load_replicated_);
    inner_->LoadReplicated(t, k, v);
  }
  void SetWorkerHook(store::NodeId node,
                     std::function<sim::Tick(const store::LogWrite&)> hook) override {
    inner_->SetWorkerHook(node, std::move(hook));
  }
  void StartWorkers() override { inner_->StartWorkers(); }
  void StopWorkers() override { inner_->StopWorkers(); }
  txn::TxnStats TotalStats() const override { return inner_->TotalStats(); }
  void ResetStats() override { inner_->ResetStats(); }
  double WireUtilization(sim::Tick window) const override {
    return inner_->WireUtilization(window);
  }
  double HostUtilization(sim::Tick window) const override {
    return inner_->HostUtilization(window);
  }
  double NicUtilization(sim::Tick window) const override {
    return inner_->NicUtilization(window);
  }
  uint64_t DmaOps() const override { return inner_->DmaOps(); }
  uint64_t DmaBytes() const override { return inner_->DmaBytes(); }
  void ForEachResource(const std::function<void(const obs::ResourceRef&)>& fn) override {
    inner_->ForEachResource(fn);
  }
  void ForEachWireChannel(const std::function<void(sim::Channel&)>& fn) override {
    inner_->ForEachWireChannel(fn);
  }
  void StopNodeWorkers(store::NodeId node) override { inner_->StopNodeWorkers(node); }
  void StartNodeWorkers(store::NodeId node) override { inner_->StartNodeWorkers(node); }
  txn::XenicCluster* xenic_cluster() override { return inner_->xenic_cluster(); }
  baseline::BaselineCluster* baseline_cluster() override { return inner_->baseline_cluster(); }

  const LayerTimer& load_replicated() const { return load_replicated_; }
  const LayerTimer& submit() const { return submit_; }

 private:
  std::unique_ptr<harness::SystemAdapter> inner_;
  LayerTimer load_replicated_;
  LayerTimer submit_;
};

// ---------------------------------------------------------------------------
// Output

class JsonOut {
 public:
  void Add(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Append(name, buf);
  }
  void Add(const std::string& name, uint64_t v) { Append(name, std::to_string(v)); }
  void AddRaw(const std::string& name, const std::string& json) { Append(name, json); }
  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  void Append(const std::string& name, const std::string& v) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + name + "\": " + v;
  }
  std::string body_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Fixed CPU-bound loop; its time per iteration tracks how fast this host is
// running right now, so a slow machine shows as slow calibration rather than
// as a code regression. Prints the loop's own elapsed time as well, which the
// caller takes out of the process's wall time.
void AddCalibration(JsonOut* out) {
  constexpr uint64_t kIters = 1ull << 24;
  const auto t0 = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double s = SecondsSince(t0);
  if (x == 0) {
    std::fprintf(stderr, "calibration produced 0\n");  // keeps the loop live
  }
  out->Add("host.calib_ns", s * 1e9 / static_cast<double>(kIters));
  out->Add("calib_s", s);
}

// The simulated end-to-end scalars plus the values the correctness checks
// need. Identical in traced and untraced runs (observer-only contract).
void AddSimulated(const harness::RunResult& r, JsonOut* out) {
  out->Add("tput_per_server", r.tput_per_server);
  out->Add("abort_rate", r.abort_rate);
  out->Add("latency_samples", r.latency.count());
  out->Add("committed", r.committed);
  out->Add("aborted", r.aborted);
  out->Add("messages", r.txn_stats.messages);
  out->Add("messages_by_type", r.txn_stats.by_type.TotalMsgs());
  out->Add("sim_events", r.sim_events);
  // Latency histogram as [bucket midpoint ns, count] pairs, so the caller
  // can pool the samples of several runs before taking percentiles.
  std::string hist;
  r.latency.VisitBuckets([&hist](uint64_t mid, uint64_t count) {
    hist += (hist.empty() ? "[" : ", [") + std::to_string(mid) + ", " + std::to_string(count) + "]";
  });
  out->AddRaw("latency_hist", "[" + hist + "]");
}

// Per-layer metrics the library computes itself (simulated counts, resource
// snapshots, critical paths).
void AddLayerCounts(const harness::RunResult& r, JsonOut* out) {
  const txn::TxnStats& s = r.txn_stats;
  const double commits = static_cast<double>(s.committed);
  out->Add("sim.events", r.sim_events);
  out->Add("sim.events_per_commit",
           Ratio(static_cast<double>(r.sim_events), static_cast<double>(r.committed)));
  out->Add("txn.msgs_per_commit", Ratio(static_cast<double>(s.messages), commits));
  out->Add("txn.remote_rounds_per_commit", Ratio(static_cast<double>(s.remote_rounds), commits));
  out->Add("txn.local_fastpath_ratio", Ratio(static_cast<double>(s.local_fastpath), commits));
  const double aborts = static_cast<double>(s.aborted);
  const uint64_t other = s.aborted - std::min(s.aborted, s.abort_lock_execute + s.abort_lock_local +
                                                            s.abort_validate + s.abort_gap);
  out->Add("txn.abort.lock_execute_share",
           Ratio(static_cast<double>(s.abort_lock_execute), aborts));
  out->Add("txn.abort.lock_local_share", Ratio(static_cast<double>(s.abort_lock_local), aborts));
  out->Add("txn.abort.validate_share", Ratio(static_cast<double>(s.abort_validate), aborts));
  out->Add("txn.abort.gap_share", Ratio(static_cast<double>(s.abort_gap), aborts));
  out->Add("txn.abort.other_share", Ratio(static_cast<double>(other), aborts));
  out->Add("repl.log_msgs_per_commit",
           Ratio(static_cast<double>(s.by_type.MsgCount(net::MsgType::kLog)), commits));
  out->Add("nicmodel.dma_ops_per_commit", Ratio(static_cast<double>(r.dma_ops), commits));
  out->Add("nicmodel.dma_bytes_per_commit", Ratio(static_cast<double>(r.dma_bytes), commits));

  // Resource rows; the wire_tx<port> rows fold into one wire_tx entry.
  std::map<std::string, std::pair<double, double>> res;  // name -> (util, wait ns)
  std::map<std::string, int> ports;
  for (const auto& snap : r.resources) {
    const std::string name = snap.name.rfind("wire_tx", 0) == 0 ? "wire_tx" : snap.name;
    res[name].first += snap.utilization;
    res[name].second += snap.mean_wait_ns;
    ports[name]++;
  }
  const std::pair<const char*, const char*> layered[] = {
      {"nicmodel", "dma_queues"}, {"nicmodel", "dma_submit"}, {"nicmodel", "nic_cores"},
      {"nicmodel", "host_cores"}, {"net", "wire_tx"},         {"net", "pcie_up"},
      {"net", "pcie_down"}};
  for (const auto& [layer, name] : layered) {
    const int n = std::max(ports[name], 1);
    const std::string key = std::string(layer) + "." + name;
    out->Add(key + ".util", res[name].first / n);
    out->Add(key + ".mean_wait_us", res[name].second / n / 1e3);
  }

  const obs::TailAttribution tail = obs::AggregateTailAttribution(r.txn_paths);
  for (int b = 0; b < obs::kNumBuckets; ++b) {
    const std::string key =
        std::string("path.") + obs::BucketName(static_cast<obs::CostBucket>(b));
    out->Add(key + ".p50_us", tail.p50_mean[b] / 1e3);
    out->Add(key + ".tail_us", tail.tail_mean[b] / 1e3);
  }
}

uint64_t SummedProbeSlots(harness::SystemAdapter& system, workload::Workload& wl) {
  txn::XenicCluster* cluster = system.xenic_cluster();
  if (cluster == nullptr) {
    return 0;
  }
  uint64_t slots = 0;
  for (uint32_t n = 0; n < cluster->size(); ++n) {
    for (const auto& t : wl.Tables()) {
      if (t.id < workload::kWorkloadTableBase) {
        slots += cluster->datastore(n).table(t.id).total_probe_slots();
      }
    }
  }
  return slots;
}

void RunPlain(BenchSpec& spec, JsonOut* out) {
  const harness::SystemConfig cfg = MakeSystemConfig();
  const auto t0 = Clock::now();
  auto system = harness::BuildSystem(cfg, *spec.workload);
  harness::LoadWorkload(*system, *spec.workload);
  const double setup_s = SecondsSince(t0);

  const auto t1 = Clock::now();
  const harness::RunResult r = harness::RunWorkload(*system, *spec.workload, spec.run);
  const double run_s = SecondsSince(t1);

  out->Add("setup_s", setup_s);
  out->Add("run_s", run_s);
  out->Add("sim.host_ns_per_event", Ratio(run_s * 1e9, static_cast<double>(r.sim_events)));
  AddSimulated(r, out);
}

void RunTraced(BenchSpec& spec, JsonOut* out) {
  const harness::SystemConfig cfg = MakeSystemConfig();
  TimedWorkload wl(*spec.workload);

  const auto t0 = Clock::now();
  TimedSystem system(harness::BuildSystem(cfg, wl));
  const double build_s = SecondsSince(t0);
  harness::LoadWorkload(system, wl);
  const double setup_s = SecondsSince(t0);
  const uint64_t probe_slots = SummedProbeSlots(system, wl);

  // Host time of the measurement window, from sample hooks that fire at
  // every metric-window close (the first fires one window after the window
  // opens, so the span between first and last hook is extrapolated by one
  // window).
  constexpr uint32_t kWindows = 50;
  obs::MetricRegistry reg;
  std::vector<Clock::time_point> closes;
  closes.reserve(kWindows + 1);
  reg.AddSampleHook([&closes] { closes.push_back(Clock::now()); });
  obs::TxnTraceSink txn_sink;
  harness::RunConfig rc = spec.run;
  rc.collect_resources = true;
  rc.txn_trace = &txn_sink;
  rc.metrics = &reg;
  rc.metrics_window = std::max<sim::Tick>(rc.measure / kWindows, 1);

  const auto t1 = Clock::now();
  const harness::RunResult r = harness::RunWorkload(system, wl, rc);
  const double run_s = SecondsSince(t1);

  double measure_s = 0;
  if (closes.size() >= 2) {
    const double span = std::chrono::duration<double>(closes.back() - closes.front()).count();
    measure_s = span * static_cast<double>(closes.size()) /
                static_cast<double>(closes.size() - 1);
  }

  const double records = static_cast<double>(system.load_replicated().calls);
  out->Add("setup_s", setup_s);
  out->Add("run_s", run_s);
  out->Add("store.load_s", system.load_replicated().Seconds());
  out->Add("store.load_ns_per_record", system.load_replicated().MeanNs());
  out->Add("store.records", system.load_replicated().calls);
  out->Add("store.probe_slots_per_record", Ratio(static_cast<double>(probe_slots), records));
  out->Add("workload.gen_s", wl.load().Seconds() - system.load_replicated().Seconds());
  out->Add("workload.next_txn_ns", wl.next_txn().MeanNs());
  out->Add("harness.build_s", build_s);
  out->Add("harness.measure_s", measure_s);
  out->Add("harness.warmup_drain_s", run_s - measure_s);
  out->Add("harness.latency_samples", r.latency.count());
  out->Add("txn.submit_ns", system.submit().MeanNs());
  AddLayerCounts(r, out);
  AddSimulated(r, out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload_name = v;
    } else if (flag == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
    return 2;
  }
  BenchSpec spec;
  if (!MakeBench(workload_name, seed, &spec)) {
    std::fprintf(stderr,
                 "usage: %s --workload retwis-large|ycsb-hot|tpcc-neworder-long --seed N "
                 "[--trace 0|1]\n",
                 argv[0]);
    return 2;
  }

  JsonOut out;
  AddCalibration(&out);
  if (trace != 0) {
    RunTraced(spec, &out);
  } else {
    RunPlain(spec, &out);
  }
  out.Add("peak_rss_mb", PeakRssMb());
  out.Print();
  return 0;
}
