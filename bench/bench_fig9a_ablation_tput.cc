// Figure 9a: Retwis throughput ablation. Starting from a baseline that
// mimics DrTM+H's operation set (separate read/lock/validate requests, no
// aggregation, blocking DMA), enable Xenic's throughput features one at a
// time:
//   baseline -> +Smart remote ops -> +Eth aggregation -> +Async DMA.
// Paper: baseline is 0.90x DrTM+H; the steps reach 1.32x, 1.78x, 2.07x.

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
    wo.keys_per_node = 120000;
    return std::make_unique<workload::Retwis>(wo);
  };

  RunConfig rc;
  rc.warmup = 150 * sim::kNsPerUs;
  rc.measure = 1200 * sim::kNsPerUs;
  const std::vector<uint32_t> loads = {32, 96, 192};

  struct Step {
    std::string name;
    bool smart;
    bool eth;
    bool dma;
  };
  const std::vector<Step> steps = {
      {"Xenic baseline", false, false, false},
      {"+Smart remote ops", true, false, false},
      {"+Eth aggregation", true, true, false},
      {"+Async DMA", true, true, true},
  };

  // Reference (DrTM+H) first, then the feature steps; all points run as
  // one parallel sweep.
  std::vector<SystemConfig> cfgs;
  SystemConfig drtmh;
  drtmh.kind = SystemConfig::Kind::kBaseline;
  drtmh.mode = baseline::BaselineMode::kDrtmH;
  drtmh.num_nodes = nodes;
  cfgs.push_back(drtmh);
  for (const auto& s : steps) {
    SystemConfig cfg;
    cfg.kind = SystemConfig::Kind::kXenic;
    cfg.num_nodes = nodes;
    cfg.features.smart_remote_ops = s.smart;
    cfg.features.nic_execution = s.dma;  // rides with the final step
    cfg.features.occ_multihop = s.dma;
    cfg.nic_features.eth_aggregation = s.eth;
    cfg.nic_features.pcie_aggregation = s.eth;
    cfg.nic_features.async_dma_batching = s.dma;
    cfgs.push_back(cfg);
  }

  ApplyContentionOptions(opts, &rc, &cfgs);
  std::vector<Curve> curves = RunSweeps(cfgs, make_wl, loads, rc, ex);
  Curve ref = std::move(curves.front());
  curves.erase(curves.begin());
  for (size_t i = 0; i < steps.size(); ++i) {
    curves[i].system = steps[i].name;
  }

  TablePrinter tp({"Configuration", "Peak tput/srv", "vs DrTM+H"});
  tp.AddRow({"DrTM+H", TablePrinter::FmtOps(ref.PeakTput()), "1.00x"});
  for (const auto& c : curves) {
    tp.AddRow({c.system, TablePrinter::FmtOps(c.PeakTput()),
               TablePrinter::Fmt(c.PeakTput() / ref.PeakTput(), 2) + "x"});
  }
  std::printf("%s\n", tp.Render("Figure 9a: Retwis throughput, enabling Xenic features").c_str());

  std::vector<Curve> all;
  all.push_back(ref);
  all.insert(all.end(), curves.begin(), curves.end());
  FinishBench(opts, "fig9a_ablation_tput", cfgs, make_wl, rc, all);
  return 0;
}
