// Metric-reporting helpers shared by the figure benches: the
// no-commits-latency sentinel fix, peak-point selection, and the
// observability flag parsing.

#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/table_printer.h"

namespace xenic::bench {
namespace {

Curve MakeCurve(std::initializer_list<std::pair<double, uint64_t>> pts) {
  // Each pair: (tput_per_server, median_latency_ns or 0 for "no commits").
  Curve c;
  c.system = "test";
  uint32_t contexts = 1;
  for (const auto& [tput, lat_ns] : pts) {
    CurvePoint p;
    p.contexts = contexts++;
    p.result.tput_per_server = tput;
    if (lat_ns > 0) {
      p.result.latency.Record(lat_ns);
    }
    c.points.push_back(std::move(p));
  }
  return c;
}

TEST(CurveTest, MinMedianLatencyUsIsNanWhenNoCommits) {
  // The bug this pins: an all-abort curve used to report its 1e18-style
  // init sentinel as a "latency", poisoning comparison summaries.
  const Curve empty;
  EXPECT_TRUE(std::isnan(empty.MinMedianLatencyUs()));

  const Curve no_commits = MakeCurve({{0.0, 0}, {0.0, 0}});
  EXPECT_TRUE(std::isnan(no_commits.MinMedianLatencyUs()));
}

TEST(CurveTest, MinMedianLatencyUsSkipsEmptyPoints) {
  // Points without latency samples are skipped, not treated as 0.
  const Curve c = MakeCurve({{10.0, 0}, {20.0, 5000}, {30.0, 3000}});
  EXPECT_NEAR(c.MinMedianLatencyUs(), 3.0, 0.2);
}

TEST(CurveTest, PeakIndexPicksHighestThroughput) {
  const Curve empty;
  EXPECT_EQ(empty.PeakIndex(), -1);

  const Curve c = MakeCurve({{10.0, 1000}, {50.0, 2000}, {30.0, 3000}});
  EXPECT_EQ(c.PeakIndex(), 1);
  EXPECT_DOUBLE_EQ(c.PeakTput(), 50.0);
}

TEST(TablePrinterNanTest, NanRendersAsNoData) {
  // TablePrinter treats NaN as "no data" so the latency sentinel fix
  // renders "--" instead of a garbage number.
  EXPECT_EQ(TablePrinter::Fmt(std::numeric_limits<double>::quiet_NaN(), 1), "--");
  EXPECT_EQ(TablePrinter::Fmt(std::numeric_limits<double>::quiet_NaN(), 0), "--");
  EXPECT_EQ(TablePrinter::Fmt(1.25, 1), "1.2");
}

TEST(BenchOptionsTest, ParseFlags) {
  {
    const char* argv[] = {"bench"};
    const BenchOptions o = BenchOptions::Parse(1, const_cast<char**>(argv));
    EXPECT_FALSE(o.attrib);
    EXPECT_TRUE(o.obs.trace_path.empty());
  }
  {
    const char* argv[] = {"bench", "--attrib", "--trace", "out.json"};
    const BenchOptions o = BenchOptions::Parse(4, const_cast<char**>(argv));
    EXPECT_TRUE(o.attrib);
    EXPECT_EQ(o.obs.trace_path, "out.json");
  }
  {
    const char* argv[] = {"bench", "--trace=x.trace.json"};
    const BenchOptions o = BenchOptions::Parse(2, const_cast<char**>(argv));
    EXPECT_FALSE(o.attrib);
    EXPECT_EQ(o.obs.trace_path, "x.trace.json");
  }
  // --trace with no value is a usage error, not a silently ignored flag.
  const char* no_value[] = {"bench", "--trace"};
  EXPECT_EXIT(BenchOptions::Parse(2, const_cast<char**>(no_value)),
              ::testing::ExitedWithCode(2), "missing value for --trace");
}

}  // namespace
}  // namespace xenic::bench
