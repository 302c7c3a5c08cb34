// Pluggable abort-retry backoff policies for the closed-loop harness (and
// the chaos submitters). The harness historically used one fixed scheme --
// uniform in [base, 2*base] -- which ignores how contended the aborted keys
// actually were; --txn-attrib showed the resulting redo time dominating the
// p50->p95 gap under skew. Two policies are provided:
//
//   kUniform           base + U[0, base]          (the historical default,
//                      reproduced byte-for-byte including its single Rng
//                      draw, so existing seeds keep their exact schedules)
//   kExpJitter         full jitter over a window that doubles per retry,
//                      capped at `backoff_cap`
//
// Determinism: every policy is a pure function of (config, tries, rng
// state). All randomness flows through the caller's seeded
// Rng, so a given (policy, seed) pair produces one schedule regardless of
// --jobs or attached observers.

#ifndef SRC_TXN_RETRY_POLICY_H_
#define SRC_TXN_RETRY_POLICY_H_

#include <cstdint>

#include "src/common/rng.h"
#include "src/sim/engine.h"

namespace xenic::txn {

enum class RetryPolicyKind : uint8_t {
  kUniform = 0,
  kExpJitter,
};

struct RetryPolicyConfig {
  RetryPolicyKind kind = RetryPolicyKind::kUniform;
  sim::Tick backoff_base = 4 * sim::kNsPerUs;  // the historical default
  sim::Tick backoff_cap = 256 * sim::kNsPerUs; // ceiling for expjitter
  uint32_t max_retries = 200;                  // then drop the transaction
};

// One backoff draw for retry number `tries` (0-based). Always returns
// >= 1 tick.
sim::Tick RetryBackoff(const RetryPolicyConfig& cfg, uint32_t tries, Rng& rng);

// CLI name: "uniform" | "expjitter".
const char* RetryPolicyName(RetryPolicyKind kind);

}  // namespace xenic::txn

#endif  // SRC_TXN_RETRY_POLICY_H_
