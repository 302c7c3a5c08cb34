#include "src/harness/cli.h"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace xenic::harness {

namespace {

using Kind = SystemConfig::Kind;
using Mode = baseline::BaselineMode;

struct SystemSpelling {
  const char* name;
  Kind kind;
  Mode mode;
};

constexpr SystemSpelling kSystems[] = {
    {"xenic", Kind::kXenic, Mode::kDrtmH},       {"drtmh", Kind::kBaseline, Mode::kDrtmH},
    {"drtmh-nc", Kind::kBaseline, Mode::kDrtmHNC}, {"fasst", Kind::kBaseline, Mode::kFasst},
    {"drtmr", Kind::kBaseline, Mode::kDrtmR},
};

}  // namespace

void ContentionOptions::Register(Flags& flags, bool with_cc) {
  std::vector<std::pair<std::string, std::optional<txn::RetryPolicyKind>>> policies;
  for (auto k : {txn::RetryPolicyKind::kUniform, txn::RetryPolicyKind::kExpJitter,
                 txn::RetryPolicyKind::kContentionWindow}) {
    policies.emplace_back(txn::RetryPolicyName(k), k);
  }
  flags.Choice("--retry-policy", &retry_policy, std::move(policies),
               "abort backoff policy (default uniform, the historical fixed backoff)");
  flags.Positive("--backoff-base", &backoff_base_us,
                 "backoff base in microseconds (default 4)");
  flags.Positive("--retry-cap", &retry_cap_us,
                 "backoff window cap in microseconds (default 256)");
  flags.Switch("--hot-key-path", &hot_key_path, "serialize sketch-flagged hot keys on the NIC");
  flags.Switch("--adaptive-dma", &adaptive_dma, "occupancy-aware DMA vector sizing");
  if (!with_cc) {
    return;
  }
  std::vector<std::pair<std::string, txn::CcPolicyKind>> policies_cc;
  for (auto k : {txn::CcPolicyKind::kOcc, txn::CcPolicyKind::kNoWait, txn::CcPolicyKind::kWaitDie,
                 txn::CcPolicyKind::kWoundWait}) {
    policies_cc.emplace_back(txn::CcPolicyName(k), k);
  }
  flags.Choice("--cc", &cc, std::move(policies_cc),
               "concurrency control of Xenic systems (default occ)");
}

void ApplyContentionOptions(const ContentionOptions& o, txn::RetryPolicyConfig* retry,
                            SystemConfig* cfg) {
  if (retry != nullptr) {
    retry->kind = o.retry_policy.value_or(txn::RetryPolicyKind::kUniform);
    if (o.backoff_base_us > 0) {
      retry->backoff_base = o.backoff_base_us * sim::kNsPerUs;
    }
    if (o.retry_cap_us > 0) {
      retry->backoff_cap = o.retry_cap_us * sim::kNsPerUs;
    }
  }
  if (cfg != nullptr && cfg->kind == SystemConfig::Kind::kXenic) {
    if (o.hot_key_path) {
      cfg->features.hot_key_fastpath = true;
    }
    if (o.adaptive_dma) {
      cfg->nic_features.adaptive_dma_batching = true;
    }
    cfg->features.cc = o.cc;
  }
}

void ObservabilityOptions::Register(Flags& flags, bool window_and_trace) {
  flags.Switch("--metrics", &metrics, "windowed metric series");
  if (window_and_trace) {
    flags.Positive("--metrics-window-us", &metrics_window_us,
                   "metric sampling window in microseconds (default 50)");
  }
  flags.Custom("--slo", "SPEC",
               "objectives over the metric windows, e.g. \"p99<50us,goodput>0.95\" "
               "(implies --metrics)",
               [this](const std::string& v) {
                 std::string err;
                 if (!obs::ParseSloSpec(v, &slo, &err)) {
                   std::fprintf(stderr, "--slo: %s\n", err.c_str());
                   return false;
                 }
                 return true;
               });
  if (window_and_trace) {
    flags.Text("--trace", &trace_path, "PATH", "write a Chrome trace-event JSON to PATH");
  }
}

void AddSeedFlag(Flags& flags, uint64_t* seed, const std::string& help) {
  flags.Uint("--seed", seed, help);
}

void AddJobsFlag(Flags& flags, uint32_t* jobs) {
  *jobs = 1;
  if (const char* env = std::getenv("XENIC_JOBS"); env != nullptr && env[0] != '\0') {
    *jobs = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }
  flags.Uint("--jobs", jobs,
             "parallel sweep workers, 0 = hardware threads; XENIC_JOBS sets the default");
}

void AddReplicationFlags(Flags& flags, uint32_t* replicas, uint32_t* quorum) {
  flags.Positive("--replicas", replicas, "copies of each shard, primary included");
  if (quorum != nullptr) {
    flags.Uint("--quorum", quorum,
               "copies (primary included) that must ack a commit; 0 = all");
  }
}

void AddSystemFlag(Flags& flags, SystemConfig* cfg) {
  std::string names;
  for (const SystemSpelling& s : kSystems) {
    names += (names.empty() ? "" : "|") + std::string(s.name);
  }
  flags.Custom("--system", names, "system under test (default xenic)",
               [cfg](const std::string& v) {
                 for (const SystemSpelling& s : kSystems) {
                   if (v == s.name) {
                     cfg->kind = s.kind;
                     cfg->mode = s.mode;
                     return true;
                   }
                 }
                 return false;
               });
}

std::string SystemFlagName(const SystemConfig& cfg) {
  for (const SystemSpelling& s : kSystems) {
    if (s.kind == cfg.kind && (cfg.kind == Kind::kXenic || s.mode == cfg.mode)) {
      return s.name;
    }
  }
  return "?";
}

}  // namespace xenic::harness
