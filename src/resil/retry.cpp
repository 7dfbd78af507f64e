#include "resil/retry.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace maestro::resil {

double RetryPolicy::backoff_for(int retry_index) const {
  if (retry_index <= 0 || backoff_ms <= 0.0) return 0.0;
  double b = backoff_ms;
  for (int k = 1; k < retry_index; ++k) {
    b *= backoff_factor;
    if (b >= max_backoff_ms) break;
  }
  return std::min(b, max_backoff_ms);
}

std::uint64_t retry_seed(std::uint64_t base, int attempt) {
  if (attempt <= 0) return base;
  std::uint64_t s = base ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt));
  (void)util::splitmix64(s);
  return util::splitmix64(s);
}

}  // namespace maestro::resil
