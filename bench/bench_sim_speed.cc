// Simulator self-performance benchmark: raw engine event dispatch rate --
// measured for the current engine (SBO callbacks + calendar queue) AND for
// an inline replica of the seed engine (std::function + std::priority_queue)
// so the speedup is reported directly -- plus the wall-clock cost of a small
// end-to-end Retwis run. Emits machine-readable BENCH_sim.json so future
// changes have a perf trajectory to compare against.
//
// The raw-dispatch loop mirrors the simulator's real event profile: 4096
// concurrent self-rescheduling chains (the figure benches at high load keep
// thousands of events in flight) whose delays land within a few
// microseconds of now (the calendar-queue fast path), with an occasional
// far-future event to exercise the overflow heap, and captures sized past
// std::function's ~16-byte inline buffer but inside SmallCallback's 48
// bytes -- the harness's typical closure footprint. Both engines replay the
// identical precomputed delay pattern.

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/harness/partition.h"
#include "src/net/perf_model.h"
#include "src/workload/retwis.h"

namespace {

using namespace xenic;

// Shared delay pattern (deterministic, precomputed so the measurement
// isolates engine overhead rather than Rng throughput).
const std::vector<uint32_t>& DelayTable() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1 << 16);
    Rng rng(424242);
    for (auto& d : t) {
      // 1..2048 ns: inside the calendar wheel window. ~1% of events jump
      // far ahead, forcing the overflow-heap + rebase path.
      d = 1 + static_cast<uint32_t>(rng.NextBounded(2048));
      if (rng.NextBounded(128) == 0) {
        d += 64 * static_cast<uint32_t>(sim::kNsPerUs);
      }
    }
    return t;
  }();
  return table;
}

constexpr int kChains = 4096;
constexpr uint64_t kTotalEvents = 4'000'000;

// Replica of the seed engine this PR replaced, kept verbatim (modulo the
// Step() const_cast fix) as the comparison baseline.
namespace seedengine {

class Engine {
 public:
  using Callback = std::function<void()>;
  void ScheduleAt(sim::Tick t, Callback cb) {
    queue_.push(Event{t, next_seq_++, std::move(cb)});
  }
  void ScheduleAfter(sim::Tick d, Callback cb) { ScheduleAt(now_ + d, std::move(cb)); }
  sim::Tick now() const { return now_; }
  uint64_t Run() {
    uint64_t n = 0;
    while (!queue_.empty()) {
      auto& top = const_cast<Event&>(queue_.top());
      now_ = top.time;
      Callback cb = std::move(top.cb);
      queue_.pop();
      ++n;
      cb();
    }
    return n;
  }

 private:
  struct Event {
    sim::Tick time;
    uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  sim::Tick now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace seedengine

template <typename EngineT>
struct ChainState {
  EngineT* eng = nullptr;
  uint32_t cursor = 0;
  uint64_t remaining = 0;
};

template <typename EngineT>
void RunChain(ChainState<EngineT>* st, uint64_t payload_a, uint64_t payload_b) {
  if (st->remaining == 0) {
    return;
  }
  st->remaining--;
  const auto& tbl = DelayTable();
  const uint32_t delay = tbl[st->cursor++ & (tbl.size() - 1)];
  // ~32-byte capture: heap-allocated by std::function, inline for
  // SmallCallback.
  st->eng->ScheduleAfter(delay, [st, payload_a, payload_b, salt = delay]() mutable {
    RunChain(st, payload_a ^ salt, payload_b + salt);
  });
}

template <typename EngineT>
double MeasureEventsPerSec(uint64_t* executed_out) {
  EngineT eng;
  std::vector<std::unique_ptr<ChainState<EngineT>>> chains;
  for (int i = 0; i < kChains; ++i) {
    auto st = std::make_unique<ChainState<EngineT>>();
    st->eng = &eng;
    st->cursor = static_cast<uint32_t>(i) * 977;
    st->remaining = kTotalEvents / kChains;
    chains.push_back(std::move(st));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& st : chains) {
    RunChain(st.get(), 0x1234, 0x5678);
  }
  const uint64_t executed = eng.Run();
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  *executed_out = executed;
  return secs > 0 ? static_cast<double>(executed) / secs : 0;
}

// --- Topology scaling: the multi-LP engine on a PHOLD-style workload ---
//
// Cluster benches run single-LP (their submitters share one harness Rng),
// so the parallel engine is exercised here the way a partitioned topology
// would use it: nodes mapped to LPs by harness::PartitionNodes, per-node
// LCG streams (each LP's randomness is self-contained), local hops at
// sub-lookahead delays, and cross-LP hops riding the wire latency --
// exactly the lookahead harness::DeriveLookahead derives from the perf
// model. The digest and event count must be byte-identical for every
// --engine-jobs value; events/sec is wall-clock (one measured number per
// config) and `critical_path_bound` = total events / sum of per-epoch
// max-per-LP events is the machine-independent parallelism ceiling the
// same run would enjoy given enough cores.
class PholdTopology {
 public:
  PholdTopology(uint32_t nodes, uint32_t jobs, sim::Tick lookahead)
      : nodes_(nodes), lookahead_(lookahead), part_(harness::PartitionNodes(nodes, 8)) {
    eng_.ConfigureLps(part_.num_lps, lookahead);
    eng_.set_engine_jobs(jobs);
    state_.resize(nodes);
    for (uint32_t n = 0; n < nodes; ++n) {
      state_[n].lcg = 0x9e3779b97f4a7c15ull * (n + 1) ^ 0x243f6a8885a308d3ull;
    }
  }

  void Run(sim::Tick horizon) {
    constexpr uint32_t kChainsPerNode = 2;
    for (uint32_t n = 0; n < nodes_; ++n) {
      for (uint32_t c = 0; c < kChainsPerNode; ++c) {
        const sim::Tick t0 = 1 + c * 17 + (n % 13);
        eng_.ScheduleAtLp(part_.NodeLp(n), t0, [this, n] { Fire(n); });
      }
    }
    eng_.RunUntil(horizon);
  }

  uint64_t Digest() const {
    uint64_t d = 0;
    for (const auto& st : state_) {
      d ^= st.digest + 0x9e3779b97f4a7c15ull + (d << 6) + (d >> 2);
      d ^= st.fires;
    }
    return d;
  }
  const sim::Engine& engine() const { return eng_; }
  uint32_t num_lps() const { return part_.num_lps; }

 private:
  struct NodeState {
    uint64_t lcg = 0;
    uint64_t digest = 0;
    uint64_t fires = 0;
  };

  void Fire(uint32_t node) {
    NodeState& st = state_[node];
    st.lcg = st.lcg * 6364136223846793005ull + 1442695040888963407ull;
    st.digest ^= st.lcg + (st.digest << 6);
    st.fires++;
    const uint64_t r = st.lcg >> 33;
    uint32_t dst = node;
    if (nodes_ > 1 && r % 4 == 0) {
      dst = (node + 1 + static_cast<uint32_t>(r % (nodes_ - 1))) % nodes_;
    }
    const uint32_t dst_lp = part_.NodeLp(dst);
    const sim::Tick now = eng_.now();
    const sim::Tick at = dst_lp == part_.NodeLp(node)
                             ? now + 1 + (r >> 8) % 400
                             : now + lookahead_ + (r >> 8) % 256;
    eng_.ScheduleAtLp(dst_lp, at, [this, dst] { Fire(dst); });
  }

  uint32_t nodes_;
  sim::Tick lookahead_;
  harness::LpPartition part_;
  sim::Engine eng_;
  std::vector<NodeState> state_;
};

struct TopoPoint {
  uint32_t nodes = 0;
  uint32_t lps = 0;
  uint32_t jobs = 0;
  uint64_t events = 0;
  uint64_t epochs = 0;
  double eps = 0;
  double cp_bound = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace xenic::bench;

  (void)argc;
  (void)argv;

  // Interleave three trials of each engine and keep the best, which damps
  // scheduler noise on shared hosts.
  uint64_t raw_events = 0;
  uint64_t seed_events = 0;
  double raw_eps = 0;
  double seed_eps = 0;
  for (int trial = 0; trial < 3; ++trial) {
    raw_eps = std::max(raw_eps, MeasureEventsPerSec<sim::Engine>(&raw_events));
    seed_eps = std::max(seed_eps, MeasureEventsPerSec<seedengine::Engine>(&seed_events));
  }
  std::printf("calendar+SBO engine: %s events/sec (%llu events)\n",
              TablePrinter::FmtOps(raw_eps).c_str(),
              static_cast<unsigned long long>(raw_events));
  std::printf("seed heap+std::function engine: %s events/sec  ->  %.2fx speedup\n",
              TablePrinter::FmtOps(seed_eps).c_str(), raw_eps / seed_eps);

  // Topology scaling: PHOLD over partitioned LPs, every --engine-jobs
  // value checked byte-identical before its wall rate is recorded.
  const sim::Tick lookahead = harness::DeriveLookahead(net::PerfModel{});
  const sim::Tick topo_horizon = 1000 * sim::kNsPerUs;
  std::vector<TopoPoint> topo;
  std::printf("\ntopology scaling (PHOLD, lookahead %llu ns, horizon %llu us):\n",
              static_cast<unsigned long long>(lookahead),
              static_cast<unsigned long long>(topo_horizon / sim::kNsPerUs));
  for (uint32_t nodes : {6u, 24u, 96u}) {
    uint64_t ref_digest = 0;
    uint64_t ref_events = 0;
    for (uint32_t jobs : {1u, 4u, 8u}) {
      PholdTopology ph(nodes, jobs, lookahead);
      const auto t0 = std::chrono::steady_clock::now();
      ph.Run(topo_horizon);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      const sim::Engine& eng = ph.engine();
      if (jobs == 1) {
        ref_digest = ph.Digest();
        ref_events = eng.events_executed();
      } else if (ph.Digest() != ref_digest || eng.events_executed() != ref_events) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: nodes=%u jobs=%u digest/events diverged\n",
                     nodes, jobs);
        return 1;
      }
      TopoPoint p;
      p.nodes = nodes;
      p.lps = ph.num_lps();
      p.jobs = jobs;
      p.events = eng.events_executed();
      p.epochs = eng.barrier_epochs();
      p.eps = secs > 0 ? static_cast<double>(p.events) / secs : 0;
      p.cp_bound = eng.critical_path_events() > 0
                       ? static_cast<double>(p.events) /
                             static_cast<double>(eng.critical_path_events())
                       : 1.0;
      topo.push_back(p);
      std::printf(
          "  nodes=%-3u lps=%u jobs=%u: %s events/sec (%llu events, %llu epochs, "
          "parallelism bound %.2fx)\n",
          nodes, p.lps, jobs, TablePrinter::FmtOps(p.eps).c_str(),
          static_cast<unsigned long long>(p.events), static_cast<unsigned long long>(p.epochs),
          p.cp_bound);
    }
  }
  std::printf("  (wall rates measured on %u hardware thread(s); the parallelism bound is\n"
              "   the machine-independent ceiling: total events / critical-path events)\n",
              std::thread::hardware_concurrency());

  // Small end-to-end Retwis run on the full Xenic stack.
  workload::Retwis::Options wo;
  wo.num_nodes = 3;
  wo.keys_per_node = 20000;
  workload::Retwis wl(wo);
  SystemConfig cfg;
  cfg.kind = SystemConfig::Kind::kXenic;
  cfg.num_nodes = 3;
  // Setup (cluster build + replicated store load) is timed on its own:
  // it is most of a short run's wall time and none of its events.
  const auto setup_start = std::chrono::steady_clock::now();
  auto system = harness::BuildSystem(cfg, wl);
  harness::LoadWorkload(*system, wl);
  const double setup_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - setup_start)
                              .count();
  RunConfig rc;
  rc.contexts_per_node = 32;
  rc.warmup = 100 * sim::kNsPerUs;
  rc.measure = 600 * sim::kNsPerUs;
  const RunResult r = harness::RunWorkload(*system, wl, rc);
  std::printf("retwis run: %.1f ms setup wall, %.1f ms run wall, %s sim events, "
              "%s events/sec, %s txn/s/srv\n",
              setup_ms, r.wall_seconds * 1e3, TablePrinter::FmtOps(static_cast<double>(r.sim_events)).c_str(),
              TablePrinter::FmtOps(r.sim_events_per_sec).c_str(),
              TablePrinter::FmtOps(r.tput_per_server).c_str());

  if (FILE* f = std::fopen("BENCH_sim.json", "w"); f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"raw_engine_events_per_sec\": %.0f,\n"
                 "  \"seed_engine_events_per_sec\": %.0f,\n"
                 "  \"engine_speedup\": %.3f,\n"
                 "  \"raw_engine_events\": %llu,\n"
                 "  \"retwis_setup_wall_ms\": %.3f,\n"
                 "  \"retwis_wall_ms\": %.3f,\n"
                 "  \"retwis_sim_events\": %llu,\n"
                 "  \"retwis_events_per_sec\": %.0f,\n"
                 "  \"retwis_tput_per_server\": %.0f,\n"
                 "  \"hw_concurrency\": %u,\n"
                 "  \"topology_scaling\": [\n",
                 raw_eps, seed_eps, raw_eps / seed_eps,
                 static_cast<unsigned long long>(raw_events), setup_ms, r.wall_seconds * 1e3,
                 static_cast<unsigned long long>(r.sim_events), r.sim_events_per_sec,
                 r.tput_per_server, std::thread::hardware_concurrency());
    for (size_t i = 0; i < topo.size(); ++i) {
      const TopoPoint& p = topo[i];
      std::fprintf(f,
                   "    {\"nodes\": %u, \"lps\": %u, \"engine_jobs\": %u, \"events\": %llu, "
                   "\"barrier_epochs\": %llu, \"events_per_sec\": %.0f, "
                   "\"critical_path_bound\": %.3f}%s\n",
                   p.nodes, p.lps, p.jobs, static_cast<unsigned long long>(p.events),
                   static_cast<unsigned long long>(p.epochs), p.eps, p.cp_bound,
                   i + 1 < topo.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_sim.json\n");
  }
  return 0;
}
