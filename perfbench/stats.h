// Sample statistics of the repository benchmark: the percentile rule every
// reported timing uses, and the failed-operation fraction.
#ifndef SPACEFUSION_PERFBENCH_STATS_H_
#define SPACEFUSION_PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace sfbench {

// A percentile together with the number of samples it was taken over.
struct Summary {
  double value = 0.0;
  std::int64_t n = 0;
};

// Nearest-rank percentile: the smallest sample such that at least p% of the
// samples are <= it (sorted[ceil(p/100 * n) - 1]); p in (0, 100]. An empty
// sample set gives {0, 0}.
Summary Percentile(std::vector<double> samples, double p);

// Failed operations over attempted operations. Every attempted operation
// counts in the base, whether it failed by returning an error or by
// failing an output check; a run that attempted nothing counts as all
// failed (1.0).
double FailedFrac(std::int64_t failed, std::int64_t attempted);

}  // namespace sfbench

#endif  // SPACEFUSION_PERFBENCH_STATS_H_
