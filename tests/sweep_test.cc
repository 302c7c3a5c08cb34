// SweepExecutor: results must be identical to serial execution for any
// worker count -- both for plain tasks and for full simulation runs.

#include "src/harness/sweep.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/common/flags.h"
#include "src/harness/cli.h"
#include "src/harness/runner.h"
#include "src/harness/system_adapter.h"
#include "src/workload/smallbank.h"

namespace xenic::harness {
namespace {

TEST(SweepExecutorTest, RunsEveryTaskExactlyOnce) {
  for (uint32_t jobs : {1u, 2u, 8u}) {
    SweepExecutor ex(jobs);
    std::vector<std::atomic<int>> hits(100);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < hits.size(); ++i) {
      tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
    }
    ex.RunAll(tasks);
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(SweepExecutorTest, MapCollectsResultsByIndexForAnyWorkerCount) {
  std::vector<std::function<uint64_t()>> tasks;
  for (uint64_t i = 0; i < 64; ++i) {
    tasks.push_back([i] { return i * i + 7; });
  }
  SweepExecutor serial(1);
  const std::vector<uint64_t> expected = serial.Map(tasks);
  for (uint32_t jobs : {2u, 8u}) {
    SweepExecutor ex(jobs);
    EXPECT_EQ(ex.Map(tasks), expected) << "jobs=" << jobs;
  }
}

TEST(SweepExecutorTest, TaskExceptionPropagatesAfterJoin) {
  SweepExecutor ex(4);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i] {
      if (i == 9) {
        throw std::runtime_error("boom");
      }
    });
  }
  EXPECT_THROW(ex.RunAll(tasks), std::runtime_error);
}

// --jobs is declared once (harness::AddJobsFlag) for every bench and tool:
// both grammars set it, and XENIC_JOBS supplies the default.
TEST(SweepExecutorTest, ParseJobsFlag) {
  auto parse = [](std::vector<const char*> argv) {
    uint32_t jobs = 99;
    Flags flags;
    AddJobsFlag(flags, &jobs);
    flags.Parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
    return jobs;
  };
  unsetenv("XENIC_JOBS");
  EXPECT_EQ(parse({"bench", "--jobs", "6"}), 6u);
  EXPECT_EQ(parse({"bench", "--jobs=3"}), 3u);
  EXPECT_EQ(parse({"bench"}), 1u);
  setenv("XENIC_JOBS", "5", 1);
  EXPECT_EQ(parse({"bench"}), 5u);
  EXPECT_EQ(parse({"bench", "--jobs", "2"}), 2u);
  unsetenv("XENIC_JOBS");
}

// The load-bearing guarantee: full simulation runs submitted as independent
// sweep tasks produce bit-identical results for 1, 2, and 8 workers.
TEST(SweepExecutorTest, SimulationSweepIsIdenticalAcrossWorkerCounts) {
  const std::vector<uint32_t> loads = {2, 8, 24};

  struct Point {
    uint64_t committed;
    uint64_t aborted;
    double tput;
    uint64_t median;

    bool operator==(const Point& o) const {
      return committed == o.committed && aborted == o.aborted && tput == o.tput &&
             median == o.median;
    }
  };

  auto run_sweep = [&loads](uint32_t jobs) {
    SweepExecutor ex(jobs);
    std::vector<Point> out(loads.size());
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < loads.size(); ++i) {
      tasks.push_back([&loads, &out, i] {
        workload::Smallbank::Options wo;
        wo.num_nodes = 2;
        wo.accounts_per_node = 4000;
        workload::Smallbank wl(wo);
        SystemConfig cfg;
        cfg.kind = SystemConfig::Kind::kXenic;
        cfg.num_nodes = 2;
        cfg.replication = 2;
        auto sys = BuildSystem(cfg, wl);
        LoadWorkload(*sys, wl);
        RunConfig rc;
        rc.contexts_per_node = loads[i];
        rc.seed = 11;
        rc.warmup = 50 * sim::kNsPerUs;
        rc.measure = 200 * sim::kNsPerUs;
        const RunResult r = RunWorkload(*sys, wl, rc);
        out[i] = Point{r.committed, r.aborted, r.tput_per_server, r.latency.Median()};
      });
    }
    ex.RunAll(tasks);
    return out;
  };

  const std::vector<Point> serial = run_sweep(1);
  EXPECT_TRUE(run_sweep(2) == serial);
  EXPECT_TRUE(run_sweep(8) == serial);
}

}  // namespace
}  // namespace xenic::harness
