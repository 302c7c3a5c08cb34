// Figure 8b: full TPC-C mix (five transaction types, standard remote
// probabilities). Throughput counts new-order transactions only (~45% of
// the mix). Paper: Xenic peaks at 541k new-orders/s per server on 100Gbps;
// low load median ~25us (mostly-local mix). Also reproduces the section
// 5.3 DrTM+R comparison: a single 50Gbps link and larger warehouse count,
// where the paper reports Xenic 322k vs DrTM+R's published 150k (2.1x).

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
    wo.warehouses_per_node = 36;
    wo.customers_per_district = 40;
    wo.items = 1000;
    return std::make_unique<workload::Tpcc>(wo);
  };

  RunConfig rc;
  rc.warmup = 200 * sim::kNsPerUs;
  rc.measure = 1500 * sim::kNsPerUs;

  // NOTE: in the paper, none of the open-source baselines implement the
  // full TPC-C mix (5.1: "DrTM+H's support is limited to ... new order"),
  // so Figure 8b is a Xenic-only curve and section 5.3 compares against
  // DrTM+R's PUBLISHED result. We still run our (idealized) baseline
  // emulations for context, clearly labeled as such.
  const std::vector<uint32_t> loads = {1, 4, 16, 48, 96, 160};
  std::vector<SystemConfig> cfgs = Figure8Systems(nodes);
  ApplyContentionOptions(opts, &rc, &cfgs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  for (size_t i = 1; i < curves.size(); ++i) {
    curves[i].system += " (emulated, not in paper)";
  }
  PrintCurves("Figure 8b: TPC-C full mix, new-orders/s per server vs median latency", curves);
  FinishBench(opts, "fig8b_tpcc_full", cfgs, make_wl, rc, curves);
  std::printf("Paper reference: Xenic peaks at 541k new-orders/s per server at 100Gbps;\n"
              "this reproduction: %s/srv (scaled-down warehouses/items).\n\n",
              TablePrinter::FmtOps(curves[0].PeakTput()).c_str());

  // Section 5.3: single 50Gbps link, more warehouses, Xenic vs DrTM+R.
  {
    auto make_big = [&]() -> std::unique_ptr<workload::Workload> {
      workload::Tpcc::Options wo;
      wo.num_nodes = nodes;
      wo.warehouses_per_node = 48;  // paper: 64/server (384 total)
      wo.customers_per_district = 40;
      wo.items = 1000;
      return std::make_unique<workload::Tpcc>(wo);
    };
    auto cfg = Figure8Systems(nodes)[0];  // Xenic
    cfg.perf.nic_ports = 1;               // one 50GbE link
    std::vector<Curve> curves53 = RunSweeps({cfg}, make_big, {16, 64, 128}, rc, ex);
    PrintCurves("Section 5.3: TPC-C at 50Gbps (384-warehouse scale)", curves53);
    // The paper compares against DrTM+R's PUBLISHED result (150k new
    // orders/s/server on a 56Gbps network), reporting Xenic at 322k (2.1x).
    std::printf("Paper 5.3: DrTM+R published 150k/srv @56Gbps; Xenic paper 322k (2.1x).\n"
                "This reproduction: Xenic %s/srv @50Gbps = %.2fx the published DrTM+R.\n\n",
                TablePrinter::FmtOps(curves53[0].PeakTput()).c_str(),
                curves53[0].PeakTput() / 150000.0);
  }
  return 0;
}
