// Figure 8c: Retwis throughput-per-server vs median latency. Paper result:
// Xenic 2.07x DrTM+H peak throughput, 42% lower median latency at low load;
// FaSST nears DrTM+H's peak without saturating the host CPU but with
// ~2.12x Xenic's minimum median latency.

#include "bench/bench_common.h"
#include "src/workload/retwis.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using namespace xenic::bench;

  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  SweepExecutor ex(opts.jobs);
  const uint32_t nodes = 6;
  auto make_wl = [&]() -> std::unique_ptr<workload::Workload> {
    workload::Retwis::Options wo;
    wo.num_nodes = nodes;
    wo.keys_per_node = 120000;  // paper: 1M/server (scaled)
    return std::make_unique<workload::Retwis>(wo);
  };

  RunConfig rc;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = 1200 * sim::kNsPerUs;

  const std::vector<uint32_t> loads = {1, 4, 16, 64, 128, 192};
  std::vector<SystemConfig> cfgs = Figure8Systems(nodes);
  ApplyContentionOptions(opts, &rc, &cfgs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  PrintCurves("Figure 8c: Retwis, throughput per server vs median latency", curves);
  FinishBench(opts, "fig8c_retwis", cfgs, make_wl, rc, curves);
  return 0;
}
