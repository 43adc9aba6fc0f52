#include "perfbench/probe.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "perfbench/spans.h"

namespace sfbench {

namespace {

// Sized so the three parts take about 1 ms each on an idle core of a
// 4-core x86-64 host.
constexpr int kTile = 64;                          // 64^3 multiply-adds a pass
constexpr int kTilePasses = 3;
constexpr std::size_t kStreamFloats = 1 << 20;     // 4 MB, streamed once
constexpr std::size_t kChaseSlots = 1 << 21;       // 8 MB of indices
constexpr int kChaseSteps = 7000;

}  // namespace

HostProbe::HostProbe()
    : a_(kTile * kTile, 1.0f),
      b_(kTile * kTile, 0.5f),
      c_(kTile * kTile, 0.0f),
      stream_(kStreamFloats, 1.0f),
      chase_(kChaseSlots) {
  std::vector<std::uint32_t> order(kChaseSlots);
  std::iota(order.begin(), order.end(), 0u);
  std::uint64_t x = 88172645463325252ULL;  // fixed xorshift shuffle
  for (std::size_t i = kChaseSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  for (std::size_t i = 0; i < kChaseSlots; ++i) {
    chase_[order[i]] = order[(i + 1) % kChaseSlots];
  }
}

void HostProbe::Sample() {
  const std::int64_t start = NowNs();
  for (int pass = 0; pass < kTilePasses; ++pass) {
    for (int i = 0; i < kTile; ++i) {
      for (int k = 0; k < kTile; ++k) {
        const float x = a_[i * kTile + k];
        for (int j = 0; j < kTile; ++j) {
          c_[i * kTile + j] += x * b_[k * kTile + j];
        }
      }
    }
  }
  double sum = 0.0;
  for (float v : stream_) {
    sum += v;
  }
  std::uint32_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) {
    at = chase_[at];
  }
  sink_ += sum + c_[kTile + 1] + at;
  const std::int64_t end = NowNs();
  samples_.push_back(ProbeSample{end, static_cast<double>(end - start) / 1e6});
}

bool HostProbe::Due(std::int64_t interval_ns) const {
  return samples_.empty() || NowNs() - samples_.back().at_ns >= interval_ns;
}

std::vector<double> CorrectForHostSpeed(const std::vector<OpTiming>& ops,
                                        const std::vector<ProbeSample>& probes) {
  std::vector<double> out;
  out.reserve(ops.size());
  std::vector<ProbeSample> sorted = probes;
  std::sort(sorted.begin(), sorted.end(),
            [](const ProbeSample& x, const ProbeSample& y) { return x.at_ns < y.at_ns; });
  for (const OpTiming& op : ops) {
    // The last probe that finished by the op's start, and the first that
    // finished after its end.
    auto after = std::lower_bound(
        sorted.begin(), sorted.end(), op.end_ns,
        [](const ProbeSample& p, std::int64_t t) { return p.at_ns < t; });
    auto before = std::upper_bound(
        sorted.begin(), sorted.end(), op.start_ns,
        [](std::int64_t t, const ProbeSample& p) { return t < p.at_ns; });
    double local = 0.0;
    int count = 0;
    if (before != sorted.begin()) {
      local += std::prev(before)->ms;
      ++count;
    }
    if (after != sorted.end()) {
      local += after->ms;
      ++count;
    }
    out.push_back(count == 0 || local <= 0.0 ? op.latency_ms
                                             : op.latency_ms * kNominalProbeMs / (local / count));
  }
  return out;
}

}  // namespace sfbench
