// The shared command-line parser (src/common/flags.h) and the flag groups
// declared once for every tool (src/harness/cli.h): one grammar, --help
// exits 0, and every kind of bad input exits 2 with a message.

#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/cli.h"

namespace xenic {
namespace {

struct Targets {
  bool verbose = false;
  uint32_t nodes = 6;
  uint64_t window = 50;
  double drop = 0.01;
  std::string path;
  std::string workload = "bank";
  int mode = 0;
};

Flags MakeFlags(Targets* t) {
  Flags flags("test tool");
  flags.Switch("--verbose", &t->verbose, "more output");
  flags.Uint("--nodes", &t->nodes, "servers");
  flags.Positive("--window", &t->window, "window");
  flags.Real("--drop", &t->drop, "drop probability");
  flags.Text("--out", &t->path, "PATH", "output file");
  flags.StringChoice("--workload", &t->workload, {"bank", "ycsb"}, "workload");
  flags.Choice("--mode", &t->mode, {{"off", 0}, {"on", 1}}, "mode");
  return flags;
}

void Parse(const Flags& flags, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tool");
  flags.Parse(static_cast<int>(argv.size()), const_cast<char**>(argv.data()));
}

TEST(FlagsTest, BothGrammarsSetEveryKind) {
  for (bool joined : {false, true}) {
    Targets t;
    const Flags flags = MakeFlags(&t);
    std::vector<std::string> args;
    for (const auto& [name, value] : std::vector<std::pair<std::string, std::string>>{
             {"--nodes", "3"}, {"--window", "7"}, {"--drop", "0.25"}, {"--out", "x.json"},
             {"--workload", "ycsb"}, {"--mode", "on"}}) {
      if (joined) {
        args.push_back(name + "=" + value);
      } else {
        args.push_back(name);
        args.push_back(value);
      }
    }
    args.push_back("--verbose");
    std::vector<const char*> argv;
    for (const std::string& a : args) {
      argv.push_back(a.c_str());
    }
    Parse(flags, argv);
    EXPECT_TRUE(t.verbose);
    EXPECT_EQ(t.nodes, 3u);
    EXPECT_EQ(t.window, 7u);
    EXPECT_DOUBLE_EQ(t.drop, 0.25);
    EXPECT_EQ(t.path, "x.json");
    EXPECT_EQ(t.workload, "ycsb");
    EXPECT_EQ(t.mode, 1);
  }
}

TEST(FlagsTest, AbsentFlagsKeepDefaults) {
  Targets t;
  Parse(MakeFlags(&t), {});
  EXPECT_FALSE(t.verbose);
  EXPECT_EQ(t.nodes, 6u);
  EXPECT_EQ(t.workload, "bank");
}

TEST(FlagsTest, HelpPrintsTableAndExitsZero) {
  Targets t;
  const Flags flags = MakeFlags(&t);
  const std::string usage = flags.Usage("tool");
  EXPECT_NE(usage.find("usage: tool [flags]"), std::string::npos);
  EXPECT_NE(usage.find("--workload bank|ycsb"), std::string::npos);
  EXPECT_NE(usage.find("--nodes N"), std::string::npos);
  EXPECT_EXIT(Parse(flags, {"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(Parse(flags, {"-h"}), ::testing::ExitedWithCode(0), "");
}

TEST(FlagsTest, BadInputExitsTwoWithMessage) {
  Targets t;
  const Flags flags = MakeFlags(&t);
  EXPECT_EXIT(Parse(flags, {"--atrib"}), ::testing::ExitedWithCode(2), "unknown flag --atrib");
  EXPECT_EXIT(Parse(flags, {"positional"}), ::testing::ExitedWithCode(2), "unknown flag");
  EXPECT_EXIT(Parse(flags, {"--nodes"}), ::testing::ExitedWithCode(2),
              "missing value for --nodes");
  EXPECT_EXIT(Parse(flags, {"--nodes", "abc"}), ::testing::ExitedWithCode(2),
              "--nodes expects an unsigned integer, got 'abc'");
  EXPECT_EXIT(Parse(flags, {"--nodes=abc"}), ::testing::ExitedWithCode(2), "--nodes expects");
  EXPECT_EXIT(Parse(flags, {"--nodes", "-1"}), ::testing::ExitedWithCode(2), "--nodes expects");
  EXPECT_EXIT(Parse(flags, {"--nodes", "4294967296"}), ::testing::ExitedWithCode(2),
              "--nodes expects");
  EXPECT_EXIT(Parse(flags, {"--window", "0"}), ::testing::ExitedWithCode(2),
              "--window expects a positive integer");
  EXPECT_EXIT(Parse(flags, {"--drop", "0.1x"}), ::testing::ExitedWithCode(2),
              "--drop expects a number");
  EXPECT_EXIT(Parse(flags, {"--workload", "tpcc"}), ::testing::ExitedWithCode(2),
              "--workload expects one of bank\\|ycsb, got 'tpcc'");
  EXPECT_EXIT(Parse(flags, {"--mode=maybe"}), ::testing::ExitedWithCode(2), "--mode expects");
  EXPECT_EXIT(Parse(flags, {"--verbose=1"}), ::testing::ExitedWithCode(2),
              "--verbose takes no value");
}

TEST(FlagsTest, SharedGroupsParseAndApply) {
  harness::ContentionOptions contention;
  harness::ObservabilityOptions obs;
  harness::SystemConfig cfg;
  uint64_t seed = 1;
  Flags flags;
  contention.Register(flags);
  obs.Register(flags);
  harness::AddSeedFlag(flags, &seed, "seed");
  harness::AddSystemFlag(flags, &cfg);
  Parse(flags, {"--retry-policy", "expjitter", "--backoff-base=2", "--hot-key-path", "--cc",
                "woundwait", "--slo", "p99<50us", "--seed=9", "--system", "drtmh-nc"});
  ASSERT_TRUE(contention.retry_policy.has_value());
  EXPECT_EQ(*contention.retry_policy, txn::RetryPolicyKind::kExpJitter);
  EXPECT_FALSE(obs.slo.empty());
  EXPECT_EQ(seed, 9u);
  EXPECT_EQ(cfg.kind, harness::SystemConfig::Kind::kBaseline);
  EXPECT_EQ(cfg.mode, baseline::BaselineMode::kDrtmHNC);
  EXPECT_EQ(harness::SystemFlagName(cfg), "drtmh-nc");

  // Feature toggles reach Xenic systems only; retry settings reach the run.
  txn::RetryPolicyConfig retry;
  harness::SystemConfig xenic;
  harness::ApplyContentionOptions(contention, &retry, &xenic);
  harness::ApplyContentionOptions(contention, nullptr, &cfg);
  EXPECT_EQ(retry.kind, txn::RetryPolicyKind::kExpJitter);
  EXPECT_EQ(retry.backoff_base, 2 * sim::kNsPerUs);
  EXPECT_TRUE(xenic.features.hot_key_fastpath);
  EXPECT_EQ(xenic.features.cc, txn::CcPolicyKind::kWoundWait);
  EXPECT_FALSE(cfg.features.hot_key_fastpath);

  EXPECT_EXIT(Parse(flags, {"--system", "drtmhnc"}), ::testing::ExitedWithCode(2),
              "--system expects xenic\\|drtmh\\|drtmh-nc\\|fasst\\|drtmr, got 'drtmhnc'");
  EXPECT_EXIT(Parse(flags, {"--slo", "p99<50parsecs"}), ::testing::ExitedWithCode(2),
              "--slo expects SPEC");
  EXPECT_EXIT(Parse(flags, {"--seed", "abc"}), ::testing::ExitedWithCode(2), "--seed expects");
  // Removed spellings: the contention-window policy, the NO_WAIT / WAIT_DIE
  // 2PL variants, and adaptive DMA batching.
  EXPECT_EXIT(Parse(flags, {"--retry-policy", "cwnd"}), ::testing::ExitedWithCode(2),
              "--retry-policy expects one of uniform\\|expjitter, got 'cwnd'");
  EXPECT_EXIT(Parse(flags, {"--cc", "waitdie"}), ::testing::ExitedWithCode(2),
              "--cc expects one of occ\\|woundwait, got 'waitdie'");
  EXPECT_EXIT(Parse(flags, {"--adaptive-dma"}), ::testing::ExitedWithCode(2),
              "unknown flag --adaptive-dma");
}

}  // namespace
}  // namespace xenic
