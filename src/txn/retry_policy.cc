#include "src/txn/retry_policy.h"

#include <algorithm>

namespace xenic::txn {

sim::Tick RetryBackoff(const RetryPolicyConfig& cfg, uint32_t tries, Rng& rng) {
  const sim::Tick base = std::max<sim::Tick>(1, cfg.backoff_base);
  const sim::Tick cap = std::max<sim::Tick>(base, cfg.backoff_cap);
  switch (cfg.kind) {
    case RetryPolicyKind::kUniform:
      // Byte-exact reproduction of the historical harness formula,
      // including its single NextBounded draw.
      return cfg.backoff_base + rng.NextBounded(cfg.backoff_base + 1);
    case RetryPolicyKind::kExpJitter: {
      // Full jitter: U[1, window], window doubling per retry up to the cap.
      // The shift is clamped so `base << tries` cannot overflow.
      const uint32_t shift = std::min<uint32_t>(tries, 20);
      const sim::Tick window = std::min<sim::Tick>(cap, base << shift);
      return 1 + rng.NextBounded(window);
    }
  }
  return base;  // unreachable
}

const char* RetryPolicyName(RetryPolicyKind kind) {
  switch (kind) {
    case RetryPolicyKind::kUniform:
      return "uniform";
    case RetryPolicyKind::kExpJitter:
      return "expjitter";
  }
  return "?";
}

}  // namespace xenic::txn
