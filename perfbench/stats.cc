#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>

namespace sfbench {

Summary Percentile(std::vector<double> samples, double p) {
  Summary out;
  out.n = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) {
    return out;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  std::int64_t index = std::clamp<std::int64_t>(static_cast<std::int64_t>(rank) - 1, 0,
                                                out.n - 1);
  out.value = samples[static_cast<size_t>(index)];
  return out;
}

double FailedFrac(std::int64_t failed, std::int64_t attempted) {
  if (attempted <= 0) {
    return 1.0;
  }
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace sfbench
