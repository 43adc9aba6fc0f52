// Self-tests of the benchmark's own arithmetic: the percentile rule and the
// sample count reported with it, self time on hand-built span trees, the
// host-speed correction, and the failed-operation fraction. run.py runs this before every benchmark
// run and refuses to report numbers when it fails.
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"

namespace sfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentile() {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  Expect(Percentile(ten, 50).value == 5, "p50 of 1..10 is 5 (nearest rank 5)");
  Expect(Percentile(ten, 50).n == 10, "p50 reports the sample count");
  Expect(Percentile(ten, 90).value == 9, "p90 of 1..10 is 9");
  Expect(Percentile(ten, 91).value == 10, "p91 of 1..10 rounds the rank up to 10");
  Expect(Percentile(ten, 100).value == 10, "p100 is the maximum");
  Expect(Percentile({4}, 50).value == 4 && Percentile({4}, 90).value == 4,
         "a single sample is every percentile");
  Expect(Percentile({3, 1}, 50).value == 1, "p50 of two samples is the lower one");
  const Summary empty = Percentile({}, 50);
  Expect(empty.value == 0 && empty.n == 0, "no samples give {0, 0}");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  Expect(Percentile(hundred, 90).value == 90 && Percentile(hundred, 90).n == 100,
         "p90 of 1..100 is 90 over 100 samples");
}

Span At(const char* name, std::int64_t start, std::int64_t end, std::int64_t parent,
        std::int64_t op) {
  return Span{name, start, end, parent, op};
}

void TestSelfTime() {
  // root [0,100] with children [10,30] and [50,60]; [10,30] has a child
  // [15,20]. Self: root 100-20-10 = 70, a 20-5 = 15, b 10, c 5.
  std::vector<Span> tree = {At("root", 0, 100, -1, 0), At("a", 10, 30, 0, 0),
                            At("c", 15, 20, 1, 0), At("b", 50, 60, 0, 0)};
  std::vector<std::int64_t> self = SelfTimesNs(tree);
  Expect(self == std::vector<std::int64_t>({70, 15, 5, 10}), "self time of a nested tree");

  // Overlapping children (two threads under one parent) count once, and a
  // child reaching past its parent is clipped to it.
  std::vector<Span> overlap = {At("root", 0, 100, -1, 0), At("x", 10, 40, 0, 0),
                               At("y", 30, 50, 0, 0), At("z", 90, 130, 0, 0)};
  self = SelfTimesNs(overlap);
  Expect(self[0] == 100 - 40 - 10, "overlapping children are covered once, clipped to parent");

  // A leaf is its own duration; sums are per operation.
  std::vector<Span> ops = {At("run", 0, 7, -1, 1), At("run", 10, 13, -1, 2),
                           At("run", 20, 21, -1, 2), At("other", 0, 50, -1, 2)};
  self = SelfTimesNs(ops);
  std::map<std::int64_t, std::int64_t> by_op = SelfNsByOp(ops, self, "run");
  Expect(by_op.size() == 2 && by_op[1] == 7 && by_op[2] == 4, "self time summed per op");
}

void TestHostSpeedCorrection() {
  // Probes finish at 100 (2 ms) and 300 (4 ms); the nominal probe is 2 ms.
  const std::vector<ProbeSample> probes = {{300, 4.0}, {100, 2.0}};
  const std::vector<OpTiming> ops = {
      {150, 250, 1.0},  // between the probes: local (2 + 4) / 2 = 3 ms
      {50, 90, 1.0},    // before every probe: only the one after counts
      {400, 500, 1.0},  // after every probe: only the one before counts
      {100, 300, 1.0},  // probes ending exactly at its start and end count
  };
  const std::vector<double> got = CorrectForHostSpeed(ops, probes);
  Expect(got.size() == 4, "one corrected latency per op");
  Expect(std::fabs(got[0] - 1.0 * kNominalProbeMs / 3.0) < 1e-12,
         "latency scaled by nominal / mean of adjacent probes");
  Expect(std::fabs(got[1] - 1.0 * kNominalProbeMs / 2.0) < 1e-12, "only a later probe");
  Expect(std::fabs(got[2] - 1.0 * kNominalProbeMs / 4.0) < 1e-12, "only an earlier probe");
  Expect(std::fabs(got[3] - 1.0 * kNominalProbeMs / 3.0) < 1e-12, "probes at the op's edges");
  Expect(CorrectForHostSpeed(ops, {}) == std::vector<double>(4, 1.0),
         "no probes leave latencies raw");
}

void TestFailedFrac() {
  Expect(FailedFrac(0, 10) == 0.0, "no failures");
  Expect(FailedFrac(1, 4) == 0.25, "failed over attempted, failed ops included in the base");
  Expect(FailedFrac(3, 3) == 1.0, "all failed");
  Expect(FailedFrac(0, 0) == 1.0, "nothing attempted counts as all failed");
}

}  // namespace
}  // namespace sfbench

int main() {
  sfbench::TestPercentile();
  sfbench::TestSelfTime();
  sfbench::TestHostSpeedCorrection();
  sfbench::TestFailedFrac();
  if (sfbench::failures != 0) {
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
