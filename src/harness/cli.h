// Command-line flags shared by the benches, xenicsim, chaos_runner and
// sweep_check. Each shared flag is declared here once; a tool registers the
// groups it takes into its own Flags table (src/common/flags.h).

#ifndef SRC_HARNESS_CLI_H_
#define SRC_HARNESS_CLI_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/flags.h"
#include "src/harness/system_adapter.h"
#include "src/obs/slo.h"
#include "src/txn/retry_policy.h"
#include "src/txn/types.h"

namespace xenic::harness {

// Contention control: --retry-policy, --backoff-base, --retry-cap,
// --hot-key-path and, with `with_cc`, --cc. Defaults reproduce the
// historical behavior byte for byte.
struct ContentionOptions {
  std::optional<txn::RetryPolicyKind> retry_policy;  // unset = not given
  uint64_t backoff_base_us = 0;  // 0 = keep the RetryPolicyConfig default
  uint64_t retry_cap_us = 0;     // 0 = keep the RetryPolicyConfig default
  bool hot_key_path = false;     // Xenic systems only
  txn::CcPolicyKind cc = txn::CcPolicyKind::kOcc;  // Xenic systems only

  void Register(Flags& flags, bool with_cc = true);
};

// Apply the retry settings to `retry` (either may be null) and the feature
// toggles to `cfg` when it is a Xenic system; baselines ignore them.
void ApplyContentionOptions(const ContentionOptions& o, txn::RetryPolicyConfig* retry,
                            SystemConfig* cfg);

// Observability: --metrics, --slo and, with `window_and_trace`,
// --metrics-window-us and --trace. All are observer-only.
struct ObservabilityOptions {
  bool metrics = false;
  uint64_t metrics_window_us = 50;
  obs::SloSpec slo;  // validated while parsing; non-empty implies metrics
  std::string trace_path;

  void Register(Flags& flags, bool window_and_trace = true);
};

// --seed N.
void AddSeedFlag(Flags& flags, uint64_t* seed, const std::string& help);

// --jobs N: sweep workers (0 = hardware threads). The default comes from
// the XENIC_JOBS environment variable, else 1.
void AddJobsFlag(Flags& flags, uint32_t* jobs);

// --replicas R and, when `quorum` is non-null, --quorum Q.
void AddReplicationFlags(Flags& flags, uint32_t* replicas, uint32_t* quorum);

// --system xenic|drtmh|drtmh-nc|fasst|drtmr: sets cfg's kind and mode.
void AddSystemFlag(Flags& flags, SystemConfig* cfg);
// The --system spelling of cfg's kind and mode.
std::string SystemFlagName(const SystemConfig& cfg);

}  // namespace xenic::harness

#endif  // SRC_HARNESS_CLI_H_
