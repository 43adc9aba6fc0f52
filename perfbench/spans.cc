#include "perfbench/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace sfbench {

namespace {

// The spans open on this thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.parent < static_cast<std::int64_t>(spans.size())) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, cursor);
      const std::int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = span.end_ns - span.start_ns - covered;
  }
  return self;
}

std::map<std::int64_t, std::int64_t> SelfNsByOp(const std::vector<Span>& spans,
                                                const std::vector<std::int64_t>& self_ns,
                                                const std::string& name) {
  std::map<std::int64_t, std::int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) {
      out[spans[i].op] += self_ns[i];
    }
  }
  return out;
}

std::int64_t Tracer::Begin(const std::string& name, std::int64_t op) {
  if (!enabled_) {
    return -1;
  }
  const std::int64_t parent = open_spans.empty() ? -1 : open_spans.back();
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0, parent, op});
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::End(std::int64_t index) {
  if (index < 0) {
    return;
  }
  const std::int64_t end = NowNs();
  if (!open_spans.empty() && open_spans.back() == index) {
    open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"spans\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                 "\"op\":%lld}",
                 i == 0 ? "" : ",\n", s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<long long>(s.op));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace sfbench
