// In-memory span recording for the benchmark's traced run.
//
// Spans are opened only in the benchmark's own code, around calls into the
// library's public functions; the library itself is never instrumented
// here. Each span records its name, start and end (steady clock, ns), the
// span that was open on the same thread when it began (its parent), and
// the benchmark operation it belongs to (-1 for set-up work). Spans stay in
// memory until the run ends and are then written out in one piece.
#ifndef SPACEFUSION_PERFBENCH_SPANS_H_
#define SPACEFUSION_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list, -1 for a root
  std::int64_t op = -1;      // benchmark operation id, -1 for set-up
};

std::int64_t NowNs();

// Self time of every span: its duration minus the part of its interval
// covered by its children (children clipped to the parent, overlapping
// children counted once). Parallel to `spans`.
std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Per operation, the summed self time (ns) of the spans called `name`.
// Operations without such a span are absent.
std::map<std::int64_t, std::int64_t> SelfNsByOp(const std::vector<Span>& spans,
                                                const std::vector<std::int64_t>& self_ns,
                                                const std::string& name);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  // Opens a span on the calling thread; -1 when tracing is off.
  std::int64_t Begin(const std::string& name, std::int64_t op);
  void End(std::int64_t index);
  std::vector<Span> spans() const;
  // Writes every span as one JSON document; false when the file cannot be
  // written.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::int64_t op)
      : tracer_(tracer), index_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

}  // namespace sfbench

#endif  // SPACEFUSION_PERFBENCH_SPANS_H_
