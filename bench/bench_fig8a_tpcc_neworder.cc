// Figure 8a: TPC-C new-order-only benchmark (DrTM+H's variant: supplying
// warehouses drawn uniformly at random -- a strenuous remote pattern).
// Paper result: Xenic 1.19M txn/s per server = 2.42x DrTM+H, 3.81x DrTM+H
// NC; FaSST limited to 232k txn/s by host-side B+tree compute; Xenic median
// latency 59% below DrTM+H at low load; network saturated at peak.

#include "bench/bench_common.h"
#include "src/workload/tpcc.h"

int main(int argc, char** argv) {
  using namespace xenic;
  using namespace xenic::bench;

  const BenchOptions opts = BenchOptions::Parse(argc, argv);
  SweepExecutor ex(opts.jobs);
  const uint32_t nodes = 6;
  auto make_wl = [&]() -> std::unique_ptr<workload::Workload> {
    workload::Tpcc::Options wo;
    wo.num_nodes = nodes;
    wo.warehouses_per_node = 36;  // paper: 72 (scaled)
    wo.customers_per_district = 40;
    wo.items = 1000;
    wo.new_order_only = true;
    wo.uniform_remote_items = true;
    return std::make_unique<workload::Tpcc>(wo);
  };

  RunConfig rc;
  rc.warmup = 200 * sim::kNsPerUs;
  rc.measure = 1500 * sim::kNsPerUs;

  const std::vector<uint32_t> loads = {1, 4, 16, 48, 96, 160};
  std::vector<SystemConfig> cfgs = Figure8Systems(nodes);
  ApplyContentionOptions(opts, &rc, &cfgs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  PrintCurves("Figure 8a: TPC-C New Order, throughput per server vs median latency", curves);
  FinishBench(opts, "fig8a_tpcc_neworder", cfgs, make_wl, rc, curves);
  return 0;
}
