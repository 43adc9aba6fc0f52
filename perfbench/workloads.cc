#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "perfbench/probe.h"
#include "perfbench/stats.h"
#include "src/analysis/race_analyzer.h"
#include "src/codegen/cpp_codegen.h"
#include "src/core/engine.h"
#include "src/exec/jit_executor.h"
#include "src/exec/reference_executor.h"
#include "src/graph/models.h"
#include "src/pass/pass.h"
#include "src/schedule/serialize.h"
#include "src/serve/server.h"
#include "src/support/binary_io.h"

namespace sfbench {

namespace sf = spacefusion;

namespace {

// ---- Seeded draws -------------------------------------------------------

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  return SplitMix(seed ^ SplitMix(salt));
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::int64_t Below(std::int64_t n) {
    state_ = SplitMix(state_);
    return static_cast<std::int64_t>(state_ % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

// ---- Measurement helpers ------------------------------------------------

double MsSince(std::int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e6; }

double Median(const std::vector<double>& values) { return Percentile(values, 50).value; }

Metric MedianMetric(const std::string& name, const std::string& unit,
                    const std::vector<double>& values) {
  const Summary s = Percentile(values, 50);
  return Metric{name, unit, s.value, s.n};
}

// Failure bookkeeping of a run.
class Outcomes {
 public:
  explicit Outcomes(WorkloadRun* run) : run_(run) {}
  // One attempted operation or output check; `error` empty on success.
  void Record(const std::string& error) {
    ++run_->attempted;
    if (!error.empty()) {
      ++run_->failed;
      if (run_->errors.size() < 8) {
        run_->errors.push_back(error);
      }
    }
  }

 private:
  WorkloadRun* run_;
};

// One measured operation: returns the latency of its measured call (checks
// excluded) and sets *error when the call or a check failed.
using OpFn = std::function<double(std::int64_t op_id, Tracer* tracer, std::string* error)>;

struct LoopResult {
  std::vector<OpTiming> ops;
  std::vector<ProbeSample> probes;
  std::int64_t next_op = 0;
};

// Probe cadence: often enough to follow host slowdowns, which last seconds,
// at about 2% of the loop's time.
constexpr std::int64_t kProbeIntervalNs = 150'000'000;

// Closed loop: one client issues the next operation as soon as the
// previous one returns, until `seconds` have passed and at least `min_ops`
// operations ran (or `max_ops` were issued). Operation ids start at
// `first_op`. The host probe runs between operations, so no library code
// runs beside it.
LoopResult ClosedLoop(double seconds, std::int64_t first_op, std::int64_t min_ops,
                      std::int64_t max_ops, Tracer* tracer, Outcomes* outcomes, const OpFn& op) {
  LoopResult result;
  HostProbe probe;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t done = 0;
  while (done < max_ops && (NowNs() < deadline || done < min_ops)) {
    if (probe.Due(kProbeIntervalNs)) {
      probe.Sample();
    }
    std::string error;
    OpTiming timing;
    timing.start_ns = NowNs();
    timing.latency_ms = op(first_op + done, tracer, &error);
    timing.end_ns = NowNs();
    result.ops.push_back(timing);
    outcomes->Record(error);
    ++done;
  }
  probe.Sample();  // closes the last operations
  result.probes = probe.samples();
  result.next_op = first_op + done;
  return result;
}

std::vector<double> RawLatencies(const LoopResult& loop) {
  std::vector<double> out;
  for (const OpTiming& op : loop.ops) {
    out.push_back(op.latency_ms);
  }
  return out;
}

// The measured phase of every workload. An untraced run loops for the whole
// time; a traced run loops untraced for half of it, then traced for the
// other half, and the ratio of the two halves' median (corrected) latency
// is the tracing overhead.
void Measure(const RunOptions& options, Tracer* tracer, std::int64_t min_ops,
             std::int64_t max_ops, const OpFn& op, WorkloadRun* run) {
  Outcomes outcomes(run);
  Tracer off(false);
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  // A traced run leaves the traced half at least half the operation cap.
  const std::int64_t untraced_max = options.trace ? max_ops / 2 : max_ops;
  LoopResult plain = ClosedLoop(untraced_s, 0, min_ops, untraced_max, &off, &outcomes, op);
  run->latency_ms = CorrectForHostSpeed(plain.ops, plain.probes);
  run->raw_latency_ms = RawLatencies(plain);
  for (const ProbeSample& probe : plain.probes) {
    run->probe_ms.push_back(probe.ms);
  }
  if (options.trace) {
    LoopResult traced = ClosedLoop(options.seconds / 2, plain.next_op,
                                   std::min<std::int64_t>(min_ops, 3),
                                   max_ops - plain.next_op, tracer, &outcomes, op);
    run->traced_primary_p50_ms = Median(CorrectForHostSpeed(traced.ops, traced.probes));
  }
}

// The workload's own names for its median, p90 (skipped when `p90` is
// empty) and throughput, in `unit` = ms x `scale`; throughput counts
// `per_op` units of work per operation.
void NameFigures(WorkloadRun* run, const std::string& p50, const std::string& p90,
                 const std::string& unit, double scale, const std::string& rate, double per_op) {
  const Figures f = Summarize(run->latency_ms);
  run->named.push_back(Metric{p50, unit, f.p50.value * scale, f.p50.n});
  if (!p90.empty()) {
    run->named.push_back(Metric{p90, unit, f.p90.value * scale, f.p90.n});
  }
  run->named.push_back(Metric{rate, "1/s", f.ops_per_s * per_op, f.p50.n});
}

// An untraced run sets up at least kMinSetUps times and until kSetUpBudgetS
// seconds were spent (at most kMaxSetUps times); setup_s is the median, so
// a short set-up is repeated often enough for its median to hold still.
constexpr int kMinSetUps = 3;
constexpr int kMaxSetUps = 25;
constexpr double kSetUpBudgetS = 3.0;

// Set-up, repeated as above (once in a traced run, whose set-up time is not
// reported); the last repetition's product is kept. The host probe runs
// before the first repetition and after each, and every repetition's time
// is corrected for host speed like an operation's.
template <typename T>
std::unique_ptr<T> RepeatSetUp(const RunOptions& options, WorkloadRun* run,
                               const std::function<std::unique_ptr<T>(int rep)>& set_up) {
  std::unique_ptr<T> kept;
  HostProbe probe;
  probe.Sample();
  std::vector<OpTiming> reps;
  double spent_s = 0.0;
  for (int rep = 0; rep < kMaxSetUps; ++rep) {
    if (options.trace ? rep >= 1 : rep >= kMinSetUps && spent_s >= kSetUpBudgetS) {
      break;
    }
    kept.reset();
    OpTiming timing;
    timing.start_ns = NowNs();
    kept = set_up(rep);
    timing.end_ns = NowNs();
    timing.latency_ms = static_cast<double>(timing.end_ns - timing.start_ns) / 1e6;
    probe.Sample();
    reps.push_back(timing);
    spent_s += timing.latency_ms / 1e3;
    if (kept == nullptr) {
      break;
    }
  }
  for (const OpTiming& timing : reps) {
    run->raw_setup_s.push_back(timing.latency_ms / 1e3);
  }
  for (double ms : CorrectForHostSpeed(reps, probe.samples())) {
    run->setup_s.push_back(ms / 1e3);
  }
  return kept;
}

// Spans of measured operations (op >= 0) whose name is `layer` + "/" +
// key, grouped by key, each with its op id and self time in us.
struct KeyedSample {
  std::int64_t op = 0;
  double us = 0.0;
};

std::map<std::string, std::vector<KeyedSample>> ByKey(const std::vector<Span>& spans,
                                                      const std::vector<std::int64_t>& self_ns,
                                                      const std::string& layer) {
  std::map<std::string, std::vector<KeyedSample>> out;
  const std::string prefix = layer + "/";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op >= 0 && spans[i].name.rfind(prefix, 0) == 0) {
      out[spans[i].name.substr(prefix.size())].push_back(
          KeyedSample{spans[i].op, static_cast<double>(self_ns[i]) / 1e3});
    }
  }
  return out;
}

// Per measured operation, the summed self time (ms) of spans named `name`.
std::vector<double> PerOpMs(const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
                            const std::string& name) {
  std::vector<double> out;
  for (const auto& [op, ns] : SelfNsByOp(spans, self, name)) {
    if (op >= 0) {
      out.push_back(static_cast<double>(ns) / 1e6);
    }
  }
  return out;
}

// Summed self time (ms) of set-up spans (op -1) named `name`.
double SetUpMs(const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
               const std::string& name) {
  const auto by_op = SelfNsByOp(spans, self, name);
  auto it = by_op.find(-1);
  return it == by_op.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
}

// ---- Execution workloads (bert-forward, small-kernels) -------------------

// Relative tolerance of the fused-vs-RunReference check: max |a - b| over
// max |b| of each output tensor.
constexpr double kReferenceRelTol = 1e-4;

// Every graph class the execution workloads report per-class metrics for.
const std::vector<std::string>& ExecClasses() {
  static const std::vector<std::string> classes = {"qkv_proj", "mha",       "attn_out", "ffn",
                                                   "layernorm", "lstm", "mlp"};
  return classes;
}

// A graph an execution workload runs: its class (subprogram class or graph
// family) and how often one operation runs it.
struct ExecGraph {
  std::string cls;
  sf::Graph graph;
  int repeat = 1;
};

struct ExecCase {
  ExecGraph spec;
  sf::CompiledSubprogram compiled;
  sf::TensorEnv inputs;
};

// One kernel of a case resolved to its native entry point, with buffers
// prepared once, so it can be called bare.
struct BareKernel {
  const sf::SmgSchedule* schedule = nullptr;
  sf::CppKernelFn fn = nullptr;
  std::vector<sf::Tensor> inputs;  // keeps the in[] buffers alive
  std::vector<const float*> in;
  std::vector<sf::Tensor> outputs;
  std::vector<float*> out;
  std::vector<float> scratch;
};

struct ExecBed {
  std::vector<ExecCase> cases;
  sf::JitExecutorOptions fused_options;
  std::unique_ptr<sf::JitExecutor> fused;
  // Traced runs only: reference_mode (unfused) executor and bare kernels.
  std::unique_ptr<sf::JitExecutor> unfused;
  std::vector<std::vector<BareKernel>> bare;
};

bool SameTensor(const sf::Tensor& a, const sf::Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.volume()) * sizeof(float)) == 0;
}

double RelToReference(const sf::Tensor& got, const sf::Tensor& ref) {
  double max_ref = 0.0;
  for (std::int64_t i = 0; i < ref.volume(); ++i) {
    max_ref = std::max(max_ref, static_cast<double>(std::fabs(ref.at(i))));
  }
  const double diff = sf::MaxAbsDiff(got, ref);
  return max_ref > 0.0 ? diff / max_ref : diff;
}

// Output check of one case: fused JIT bit-identical to the schedule
// interpreter, and within kReferenceRelTol of the unfused reference.
std::string CheckCase(const ExecCase& c, sf::JitExecutor* fused, Tracer* tracer) {
  sf::TensorEnv jit_out;
  sf::TensorEnv interp_out;
  sf::TensorEnv ref = c.inputs;
  sf::Status jit_status;
  sf::Status interp_status;
  {
    // The first run emits and builds every kernel of the program.
    ScopedSpan span(tracer, "codegen.jit_build", -1);
    jit_status = fused->RunProgram(c.compiled.program, c.spec.graph, c.inputs, &jit_out);
  }
  {
    ScopedSpan span(tracer, "exec.interpret", -1);
    interp_status =
        sf::RunScheduledProgram(c.compiled.program, c.spec.graph, c.inputs, &interp_out);
  }
  {
    ScopedSpan span(tracer, "exec.reference", -1);
    sf::RunReference(c.spec.graph, &ref);
  }
  const std::string where = c.spec.graph.name() + ": ";
  if (!jit_status.ok()) {
    return where + "jit run failed: " + jit_status.ToString();
  }
  if (!interp_status.ok()) {
    return where + "interpreter failed: " + interp_status.ToString();
  }
  for (sf::TensorId id : c.spec.graph.OutputIds()) {
    const size_t slot = static_cast<size_t>(id);
    if (!SameTensor(jit_out[slot], interp_out[slot])) {
      return where + "fused JIT output " + c.spec.graph.tensor(id).name +
             " differs from RunScheduledProgram";
    }
    const double rel = RelToReference(jit_out[slot], ref[slot]);
    if (!(rel <= kReferenceRelTol)) {
      return where + "fused JIT output " + c.spec.graph.tensor(id).name + " is " +
             std::to_string(rel) + " rel from RunReference";
    }
  }
  return "";
}

// Compiles each graph, builds its fused kernels into a fresh kernel-cache
// directory, and checks its outputs. Null when a compile fails.
std::unique_ptr<ExecBed> SetUpExec(const std::vector<ExecGraph>& graphs,
                                   const std::string& kernel_dir, std::uint64_t seed,
                                   Tracer* tracer, Outcomes* outcomes) {
  auto bed = std::make_unique<ExecBed>();
  sf::EngineOptions engine_options;
  engine_options.cache_dir = "";
  sf::CompilerEngine engine(engine_options);
  bed->fused_options.cache.dir = kernel_dir;
  bed->fused = std::make_unique<sf::JitExecutor>(bed->fused_options);
  for (size_t i = 0; i < graphs.size(); ++i) {
    ExecCase c;
    c.spec = graphs[i];
    sf::StatusOr<sf::CompiledSubprogram> compiled = [&] {
      ScopedSpan span(tracer, "core.compile", -1);
      return engine.Compile(c.spec.graph);
    }();
    if (!compiled.ok()) {
      outcomes->Record(c.spec.graph.name() + ": compile failed: " + compiled.status().ToString());
      return nullptr;
    }
    c.compiled = std::move(compiled).value();
    c.inputs = sf::MakeGraphInputs(c.spec.graph, Mix(seed, i));
    outcomes->Record(CheckCase(c, bed->fused.get(), tracer));
    bed->cases.push_back(std::move(c));
  }
  const std::int64_t fallbacks = bed->fused->stats().fallbacks;
  outcomes->Record(fallbacks == 0 ? ""
                                  : std::to_string(fallbacks) +
                                        " kernel(s) fell back to the interpreter in set-up");
  return bed;
}

// Resolves every kernel of `c` to its native entry point and prepares its
// buffers, handing tensors between kernels by name as RunProgram does.
std::string PrepareBare(const ExecCase& c, const sf::JitExecutorOptions& options,
                        sf::JitKernelCache* cache, std::vector<BareKernel>* out) {
  std::map<std::string, sf::Tensor> by_name;
  for (const sf::TensorInfo& t : c.spec.graph.tensors()) {
    if (t.kind == sf::TensorKind::kInput || t.kind == sf::TensorKind::kWeight ||
        t.kind == sf::TensorKind::kConstant) {
      by_name[t.name] = c.inputs[static_cast<size_t>(t.id)];
    }
  }
  for (const sf::SmgSchedule& schedule : c.compiled.program.kernels) {
    sf::StatusOr<sf::CppKernel> emitted = sf::EmitCppKernel(schedule, options.codegen);
    if (!emitted.ok()) {
      return "emit failed: " + emitted.status().ToString();
    }
    sf::StatusOr<sf::JitKernelCache::Kernel> loaded = cache->GetOrBuild(*emitted);
    if (!loaded.ok()) {
      return "kernel load failed: " + loaded.status().ToString();
    }
    BareKernel bare;
    bare.schedule = &schedule;
    bare.fn = loaded->fn;
    bare.scratch.assign(static_cast<size_t>(loaded->scratch_floats), 0.0f);
    for (sf::TensorId id : emitted->input_ids) {
      const sf::TensorInfo& info = schedule.graph.tensor(id);
      auto it = by_name.find(info.name);
      sf::Tensor tensor = it != by_name.end() ? it->second
                          : info.kind == sf::TensorKind::kConstant
                              ? sf::Tensor::Full(info.shape, info.constant_value, info.dtype)
                              : sf::Tensor();
      if (!tensor.defined()) {
        return "kernel input " + info.name + " is produced by no earlier kernel";
      }
      bare.in.push_back(tensor.data());
      bare.inputs.push_back(std::move(tensor));
    }
    for (sf::TensorId id : emitted->output_ids) {
      const sf::TensorInfo& info = schedule.graph.tensor(id);
      bare.outputs.push_back(sf::Tensor::Zeros(info.shape, info.dtype));
      bare.out.push_back(bare.outputs.back().data());
    }
    bare.fn(bare.in.data(), bare.out.data(), bare.scratch.data());
    for (size_t k = 0; k < emitted->output_ids.size(); ++k) {
      by_name[schedule.graph.tensor(emitted->output_ids[k]).name] = bare.outputs[k];
    }
    out->push_back(std::move(bare));
  }
  return "";
}

// Traced runs additionally build the unfused (reference_mode) kernels and
// the bare-kernel harness of every case.
std::string PrepareTraced(ExecBed* bed, const std::string& kernel_dir, Tracer* tracer) {
  sf::JitExecutorOptions unfused_options;
  unfused_options.cache.dir = kernel_dir;
  unfused_options.codegen.reference_mode = true;
  unfused_options.codegen.fuse_elementwise = false;
  bed->unfused = std::make_unique<sf::JitExecutor>(unfused_options);
  for (const ExecCase& c : bed->cases) {
    sf::TensorEnv out;
    sf::Status built = [&] {
      ScopedSpan span(tracer, "codegen.jit_build_unfused", -1);
      return bed->unfused->RunProgram(c.compiled.program, c.spec.graph, c.inputs, &out);
    }();
    if (!built.ok()) {
      return c.spec.graph.name() + ": unfused run failed: " + built.ToString();
    }
    bed->bare.emplace_back();
    std::string error = PrepareBare(c, bed->fused_options, &bed->fused->cache(), &bed->bare.back());
    if (!error.empty()) {
      return c.spec.graph.name() + ": " + error;
    }
  }
  return "";
}

// One measured execution operation: RunProgram on each case of `order`, in
// order. Traced, it then times the layers below RunProgram once for each
// distinct case of the operation, from the public calls RunProgram makes.
double RunExecOp(ExecBed* bed, const std::vector<int>& order, const char* primary,
                 std::int64_t id, Tracer* tracer, std::string* error) {
  const std::int64_t fallbacks = bed->fused->stats().fallbacks;
  sf::TensorEnv out;
  const std::int64_t start = NowNs();
  {
    ScopedSpan op_span(tracer, primary, id);
    for (int ci : order) {
      const ExecCase& c = bed->cases[static_cast<size_t>(ci)];
      ScopedSpan span(tracer, "exec.run_program/" + std::to_string(ci), id);
      sf::Status status = bed->fused->RunProgram(c.compiled.program, c.spec.graph, c.inputs, &out);
      if (!status.ok() && error->empty()) {
        *error = c.spec.graph.name() + ": " + status.ToString();
      }
    }
  }
  const double latency = MsSince(start);
  const std::int64_t new_fallbacks = bed->fused->stats().fallbacks - fallbacks;
  if (new_fallbacks != 0 && error->empty()) {
    *error = std::to_string(new_fallbacks) + " kernel(s) fell back to the interpreter";
  }
  if (!tracer->enabled()) {
    return latency;
  }
  std::set<int> distinct(order.begin(), order.end());
  for (int ci : distinct) {
    const ExecCase& c = bed->cases[static_cast<size_t>(ci)];
    const std::string key = "/" + std::to_string(ci);
    {
      ScopedSpan span(tracer, "exec.unfused_run_program" + key, id);
      sf::Status status =
          bed->unfused->RunProgram(c.compiled.program, c.spec.graph, c.inputs, &out);
      if (!status.ok() && error->empty()) {
        *error = c.spec.graph.name() + ": unfused: " + status.ToString();
      }
    }
    std::vector<BareKernel>& kernels = bed->bare[static_cast<size_t>(ci)];
    for (BareKernel& k : kernels) {
      sf::StatusOr<sf::CppKernel> emitted = [&] {
        ScopedSpan span(tracer, "codegen.emit" + key, id);
        return sf::EmitCppKernel(*k.schedule, bed->fused_options.codegen);
      }();
      if (emitted.ok()) {
        ScopedSpan span(tracer, "codegen.jit_lookup" + key, id);
        (void)bed->fused->cache().GetOrBuild(*emitted);
      }
      ScopedSpan span(tracer, "tensor.output_zero_fill" + key, id);
      for (const sf::Tensor& t : k.outputs) {
        sf::Tensor zeros = sf::Tensor::Zeros(t.shape(), t.dtype());
        (void)zeros;
      }
    }
    // RunProgram hands every kernel zeroed outputs and scratch; so do we,
    // outside the timed call.
    for (BareKernel& k : kernels) {
      for (sf::Tensor& t : k.outputs) {
        std::fill(t.data(), t.data() + t.volume(), 0.0f);
      }
      std::fill(k.scratch.begin(), k.scratch.end(), 0.0f);
    }
    ScopedSpan span(tracer, "exec.bare_kernel" + key, id);
    for (BareKernel& k : kernels) {
      k.fn(k.in.data(), k.out.data(), k.scratch.data());
    }
  }
  return latency;
}

// Per-layer metrics of an execution workload's traced half.
void ExecLayerMetrics(const ExecBed& bed, const std::vector<Span>& spans, WorkloadRun* run) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  auto keyed = [&](const char* layer) { return ByKey(spans, self, layer); };
  const auto run_program = keyed("exec.run_program");
  const auto bare = keyed("exec.bare_kernel");
  const auto unfused = keyed("exec.unfused_run_program");
  auto case_of = [&](const std::string& key) -> const ExecCase& {
    return bed.cases[static_cast<size_t>(std::stoi(key))];
  };
  // Mean RunProgram time of each (op, case).
  std::map<std::pair<std::int64_t, std::string>, std::pair<double, int>> run_sum;
  std::vector<double> run_us;
  for (const auto& [key, samples] : run_program) {
    for (const KeyedSample& s : samples) {
      auto& [sum, count] = run_sum[{s.op, key}];
      sum += s.us;
      ++count;
      run_us.push_back(s.us);
    }
  }
  auto mean_run = [&](std::int64_t op, const std::string& key) {
    auto it = run_sum.find({op, key});
    return it == run_sum.end() ? 0.0 : it->second.first / it->second.second;
  };
  std::vector<double> bare_us;
  std::vector<double> overhead;
  std::map<std::string, std::vector<double>> bare_by_class;
  std::map<std::string, std::vector<double>> speedup_by_class;
  std::map<std::string, std::vector<double>> modeled_ratio_by_class;
  std::map<std::int64_t, std::pair<double, double>> flops_and_us_by_op;
  for (const auto& [key, samples] : bare) {
    const ExecCase& c = case_of(key);
    for (const KeyedSample& s : samples) {
      bare_us.push_back(s.us);
      bare_by_class[c.spec.cls].push_back(s.us);
      const double run_mean = mean_run(s.op, key);
      if (run_mean > 0.0) {
        overhead.push_back(1.0 - s.us / run_mean);
      }
      if (c.compiled.estimate.time_us > 0.0) {
        modeled_ratio_by_class[c.spec.cls].push_back(s.us / c.compiled.estimate.time_us);
      }
      auto& [flops, us] = flops_and_us_by_op[s.op];
      flops += static_cast<double>(c.compiled.estimate.flops) * c.spec.repeat;
      us += s.us * c.spec.repeat;
    }
  }
  for (const auto& [key, samples] : unfused) {
    for (const KeyedSample& s : samples) {
      const double run_mean = mean_run(s.op, key);
      if (run_mean > 0.0) {
        speedup_by_class[case_of(key).spec.cls].push_back(s.us / run_mean);
      }
    }
  }
  std::vector<double> gflops;
  for (const auto& [op, fu] : flops_and_us_by_op) {
    if (fu.second > 0.0) {
      gflops.push_back(fu.first / fu.second / 1e3);
    }
  }
  // Per (op, case) sums of the per-kernel layers.
  auto per_op_case_sum = [&](const char* layer) {
    std::map<std::pair<std::int64_t, std::string>, double> sums;
    for (const auto& [key, samples] : keyed(layer)) {
      for (const KeyedSample& s : samples) {
        sums[{s.op, key}] += s.us;
      }
    }
    std::vector<double> out;
    for (const auto& [k, v] : sums) {
      out.push_back(v);
    }
    return out;
  };

  std::vector<Metric>& m = run->layers;
  m.push_back(MedianMetric("exec.run_program_us", "us", run_us));
  m.push_back(MedianMetric("exec.bare_kernel_us", "us", bare_us));
  m.push_back(MedianMetric("exec.overhead_frac", "fraction", overhead));
  m.push_back(MedianMetric("codegen.emit_us", "us", per_op_case_sum("codegen.emit")));
  m.push_back(MedianMetric("codegen.jit_lookup_us", "us", per_op_case_sum("codegen.jit_lookup")));
  m.push_back(MedianMetric("tensor.output_zero_fill_us", "us",
                           per_op_case_sum("tensor.output_zero_fill")));
  m.push_back(MedianMetric("exec.achieved_gflops", "GFLOP/s", gflops));
  for (const std::string& cls : ExecClasses()) {
    m.push_back(MedianMetric("exec.bare_kernel_us." + cls, "us", bare_by_class[cls]));
    m.push_back(MedianMetric("codegen.fused_speedup." + cls, "x", speedup_by_class[cls]));
    m.push_back(
        MedianMetric("sim.measured_over_modeled." + cls, "x", modeled_ratio_by_class[cls]));
  }
  const sf::JitKernelCache::Stats cache = bed.fused->cache().stats();
  m.push_back(Metric{"codegen.jit_builds", "count", static_cast<double>(cache.builds), 1});
  m.push_back(Metric{"codegen.jit_build_ms", "ms", cache.build_ms, cache.builds});
  m.push_back(Metric{"exec.interpret_ms", "ms", SetUpMs(spans, self, "exec.interpret"),
                     static_cast<std::int64_t>(bed.cases.size())});
  m.push_back(Metric{"exec.reference_ms", "ms", SetUpMs(spans, self, "exec.reference"),
                     static_cast<std::int64_t>(bed.cases.size())});
  m.push_back(Metric{"exec.jit_fallbacks", "count",
                     static_cast<double>(bed.fused->stats().fallbacks), 1});
}

std::string ClassOf(const std::string& graph_name) {
  for (const std::string& cls : ExecClasses()) {
    if (graph_name.rfind(cls, 0) == 0) {
      return cls;
    }
  }
  return graph_name;
}

// Runs an execution workload over `graphs`; `order_for(op_id)` lists the
// cases one operation runs.
void RunExecWorkload(const std::vector<ExecGraph>& graphs, const char* primary,
                     const std::function<std::vector<int>(std::int64_t)>& order_for,
                     std::int64_t min_ops, const RunOptions& options, Tracer* tracer,
                     WorkloadRun* run) {
  Outcomes outcomes(run);
  std::unique_ptr<ExecBed> bed = RepeatSetUp<ExecBed>(options, run, [&](int rep) {
    return SetUpExec(graphs, options.work_dir + "/kernels-" + std::to_string(rep), options.seed,
                     tracer, &outcomes);
  });
  if (bed == nullptr) {
    return;
  }
  if (options.trace) {
    const std::string error = PrepareTraced(bed.get(), options.work_dir + "/kernels-0", tracer);
    outcomes.Record(error);
    if (!error.empty()) {
      return;
    }
  }
  Measure(options, tracer, min_ops, INT64_MAX,
          [&](std::int64_t id, Tracer* t, std::string* error) {
            return RunExecOp(bed.get(), order_for(id), primary, id, t, error);
          },
          run);
  if (options.trace) {
    ExecLayerMetrics(*bed, tracer->spans(), run);
  }
}

// bert-forward: BERT-base, batch 1, seq 32; one operation is a whole
// forward pass, every subprogram in model order with repeats expanded.
void BertForward(const RunOptions& options, Tracer* tracer, WorkloadRun* run) {
  const sf::ModelGraph model = sf::BuildModel(sf::GetModelConfig(sf::ModelKind::kBert, 1, 32));
  std::vector<ExecGraph> graphs;
  std::map<std::uint64_t, int> case_of;
  std::vector<int> subprogram_case;
  for (const sf::Subprogram& sub : model.subprograms) {
    auto [it, fresh] = case_of.emplace(sub.graph.StructuralHash(), static_cast<int>(graphs.size()));
    if (fresh) {
      graphs.push_back(ExecGraph{ClassOf(sub.graph.name()), sub.graph, sub.repeat});
    }
    subprogram_case.push_back(it->second);
  }
  std::vector<int> forward;
  int max_repeat = 0;
  for (const sf::Subprogram& sub : model.subprograms) {
    max_repeat = std::max(max_repeat, sub.repeat);
  }
  for (int layer = 0; layer < max_repeat; ++layer) {
    for (size_t s = 0; s < model.subprograms.size(); ++s) {
      if (layer < model.subprograms[s].repeat) {
        forward.push_back(subprogram_case[s]);
      }
    }
  }
  RunExecWorkload(graphs, "model.forward", [&](std::int64_t) { return forward; },
                  /*min_ops=*/5, options, tracer, run);
  NameFigures(run, "forward_p50_ms", "", "ms", 1.0, "tokens_per_s",
              static_cast<double>(model.config.tokens()));
}

// small-kernels: one RunProgram call on a seeded draw from thirteen small
// fused graphs of the paper's Fig. 10/11 families. An odd count of equally
// likely graphs keeps the median inside one graph's latency cluster.
void SmallKernels(const RunOptions& options, Tracer* tracer, WorkloadRun* run) {
  std::vector<ExecGraph> graphs = {
      {"layernorm", sf::BuildLayerNormGraph(16, 256)},
      {"layernorm", sf::BuildLayerNormGraph(32, 512)},
      {"layernorm", sf::BuildLayerNormGraph(48, 768)},
      {"layernorm", sf::BuildLayerNormGraph(64, 1024)},
      {"mha", sf::BuildMha(1, 32, 32, 64)},
      {"mha", sf::BuildMha(2, 64, 64, 64)},
      {"mha", sf::BuildMha(4, 64, 64, 64)},
      {"lstm", sf::BuildLstmCell(1, 256, 256)},
      {"lstm", sf::BuildLstmCell(2, 256, 256)},
      {"lstm", sf::BuildLstmCell(4, 256, 256)},
      {"mlp", sf::BuildMlp(2, 16, 256, 256)},
      {"mlp", sf::BuildMlp(2, 32, 256, 256)},
      {"mlp", sf::BuildMlp(2, 64, 256, 256)},
  };
  const std::uint64_t stream = Mix(options.seed, 0x5e11);
  const std::int64_t count = static_cast<std::int64_t>(graphs.size());
  RunExecWorkload(graphs, "exec.op",
                  [&](std::int64_t id) {
                    Rng rng(Mix(stream, static_cast<std::uint64_t>(id)));
                    return std::vector<int>{static_cast<int>(rng.Below(count))};
                  },
                  /*min_ops=*/50, options, tracer, run);
  NameFigures(run, "run_p50_us", "run_p90_us", "us", 1e3, "runs_per_s", 1.0);
}

// ---- compile-cold --------------------------------------------------------

struct CompileDraw {
  sf::ModelKind kind = sf::ModelKind::kBert;
  sf::ShapeKey shape;
};

// Seeded (model, batch, seq) requests, none repeated: no two share a model
// structure and shape, so every request compiles at least one subprogram
// cold. Albert shares Bert's structure, so the two count as one.
class CompileDraws {
 public:
  static constexpr std::int64_t kSeqLo = 16;
  static constexpr std::int64_t kSeqHi = 512;
  // Distinct (structure, batch, seq) requests.
  static constexpr std::int64_t kSpace = 4 * 3 * (kSeqHi - kSeqLo + 1);

  explicit CompileDraws(std::uint64_t seed) : rng_(Mix(seed, 0xc01d)) {}

  const CompileDraw& At(std::int64_t i) {
    while (static_cast<std::int64_t>(draws_.size()) <= i) {
      Extend();
    }
    return draws_[static_cast<size_t>(i)];
  }

 private:
  void Extend() {
    const std::vector<sf::ModelKind> kinds = sf::AllModelKinds();
    static constexpr std::int64_t kBatches[] = {1, 2, 4};
    while (true) {
      CompileDraw d;
      d.kind = kinds[static_cast<size_t>(rng_.Below(static_cast<std::int64_t>(kinds.size())))];
      d.shape.batch = kBatches[rng_.Below(3)];
      d.shape.seq = kSeqLo + rng_.Below(kSeqHi - kSeqLo + 1);
      const sf::ModelKind structure =
          d.kind == sf::ModelKind::kAlbert ? sf::ModelKind::kBert : d.kind;
      if (used_.insert({static_cast<int>(structure), d.shape.batch, d.shape.seq}).second) {
        draws_.push_back(d);
        return;
      }
    }
  }

  Rng rng_;
  std::vector<CompileDraw> draws_;
  std::set<std::tuple<int, std::int64_t, std::int64_t>> used_;
};

std::string SerializeCompile(const sf::ShapeCompileResult& result) {
  sf::ByteWriter w;
  for (const sf::CompiledSubprogram& sub : result.compiled.unique_subprograms) {
    sf::SerializeScheduledProgram(sub.program, &w);
    w.U64(sub.kernels.size());
    for (const sf::KernelSpec& kernel : sub.kernels) {
      sf::SerializeKernelSpec(kernel, &w);
    }
    sf::SerializeExecutionReport(sub.estimate, &w);
  }
  sf::SerializeExecutionReport(result.compiled.total, &w);
  return w.Take();
}

// The first kCountedOps requests give the tuning counts, which therefore
// repeat exactly across runs of one seed; kCheckedOps of them are
// recompiled on a fresh engine in set-up as the output check.
constexpr std::int64_t kCountedOps = 64;
constexpr int kCheckedOps = 6;

// An untraced run compiles exactly this many requests, however long they
// take, so the program cache, and with it peak_rss_mb, grows by the same
// requests in every run of a seed and --seconds. 80 per second of --seconds
// take about 70% of that time on an idle core of a 4-core x86-64 host.
// Rejection sampling stays cheap while at most half the space is drawn.
std::int64_t CompileOps(double seconds) {
  return std::clamp<std::int64_t>(std::llround(80 * seconds), kCountedOps,
                                  CompileDraws::kSpace / 2);
}

struct CompileBed {
  std::unique_ptr<sf::CompilerEngine> engine;
  CompileDraws draws;
  std::map<std::int64_t, std::string> expected;  // op id -> fresh-engine bytes

  explicit CompileBed(std::uint64_t seed) : draws(seed) {}
};

sf::EngineOptions ColdEngineOptions() {
  sf::EngineOptions options;
  options.cache_dir = "";  // no persistent cache: every request is cold
  return options;
}

// Compiles `graph` by driving BuildCompilePassList pass by pass, as the
// engine's PassManager does, timing each Run and VerifyBefore/After.
sf::Status CompileByPasses(const sf::Graph& graph, const sf::CompileOptions& options,
                           sf::CostCache* cost_cache, sf::FusionPatternRecorder* fusion,
                           Tracer* tracer, std::int64_t id, sf::ScheduledProgram* program) {
  sf::CostModel cost(options.arch);
  sf::CompilationState state;
  state.graph = &graph;
  state.options = &options;
  state.rc = sf::ResourceConfig::FromArch(options.arch);
  state.cost = &cost;
  state.cost_cache = cost_cache;
  state.fusion = fusion;
  const bool verify = options.verify != sf::VerifyMode::kOff;
  for (const std::unique_ptr<sf::Pass>& pass : sf::BuildCompilePassList(options)) {
    sf::Status status;
    if (verify) {
      ScopedSpan span(tracer, "verify.phase", id);
      status = pass->VerifyBefore(&state);
    }
    if (status.ok()) {
      ScopedSpan span(tracer, std::string("pass.") + pass->name(), id);
      status = pass->Run(&state);
    }
    if (status.ok() && verify) {
      ScopedSpan span(tracer, "verify.phase", id);
      status = pass->VerifyAfter(&state);
    }
    if (!status.ok()) {
      return status;
    }
  }
  *program = state.best.program;
  return sf::Status::Ok();
}

// The pass each compile-cold layer metric times.
const std::vector<std::pair<const char*, const char*>>& PassMetrics() {
  static const std::vector<std::pair<const char*, const char*>> passes = {
      {"BuildSmg", "smg.build_ms"},
      {"SlicingPipeline", "slicing.pipeline_ms"},
      {"EnumerateConfigs", "schedule.enum_configs_ms"},
      {"Tune", "tuning.tune_ms"},
      {"PlanMemory", "schedule.plan_memory_ms"},
      {"Lower", "schedule.lower_ms"},
      {"Estimate", "sim.estimate_ms"},
  };
  return passes;
}

void CompileCold(const RunOptions& options, Tracer* tracer, WorkloadRun* run) {
  Outcomes outcomes(run);
  const sf::BucketingPolicy identity = sf::BucketingPolicy::Identity();
  std::unique_ptr<CompileBed> bed = RepeatSetUp<CompileBed>(options, run, [&](int) {
    auto b = std::make_unique<CompileBed>(options.seed);
    b->engine = std::make_unique<sf::CompilerEngine>(ColdEngineOptions());
    Rng pick(Mix(options.seed, 0xc4ec));
    while (static_cast<int>(b->expected.size()) < kCheckedOps) {
      const std::int64_t id = pick.Below(kCountedOps);
      if (b->expected.count(id) > 0) {
        continue;
      }
      const CompileDraw& d = b->draws.At(id);
      sf::CompilerEngine fresh(ColdEngineOptions());
      auto compiled = fresh.CompileModelForShape(d.kind, d.shape, fresh.options(), identity);
      if (!compiled.ok()) {
        outcomes.Record(std::string(sf::ModelKindName(d.kind)) + " " + d.shape.Label() +
                        ": compile failed: " + compiled.status().ToString());
        return std::unique_ptr<CompileBed>();
      }
      b->expected[id] = SerializeCompile(*compiled);
    }
    return b;
  });
  if (bed == nullptr) {
    return;
  }

  struct Counts {
    double enumerated = 0, screened = 0, admitted = 0, tuning_s = 0, transfer_seeded = 0;
  } counts;
  sf::CostCache cost_cache;
  sf::FusionPatternRecorder fusion;
  const std::int64_t ops = CompileOps(options.seconds);
  Measure(
      options, tracer, /*min_ops=*/ops, /*max_ops=*/ops,
      [&](std::int64_t id, Tracer* t, std::string* error) {
        const CompileDraw& d = bed->draws.At(id);
        const std::string what = std::string(sf::ModelKindName(d.kind)) + " " + d.shape.Label();
        const std::int64_t start = NowNs();
        sf::StatusOr<sf::ShapeCompileResult> compiled = [&] {
          ScopedSpan span(t, "core.compile_for_shape", id);
          return bed->engine->CompileModelForShape(d.kind, d.shape, bed->engine->options(),
                                                   identity);
        }();
        const double latency = MsSince(start);
        if (!compiled.ok()) {
          *error = what + ": compile failed: " + compiled.status().ToString();
          return latency;
        }
        if (id < kCountedOps) {
          const sf::CompileReport& report = compiled->compiled.report;
          counts.enumerated += static_cast<double>(report.configs_enumerated);
          counts.screened += static_cast<double>(report.configs_screened);
          counts.admitted += static_cast<double>(report.configs_admitted);
          counts.tuning_s += report.tuning_seconds;
          counts.transfer_seeded += static_cast<double>(compiled->transfer_seeded);
        }
        auto expected = bed->expected.find(id);
        if (expected != bed->expected.end() && SerializeCompile(*compiled) != expected->second) {
          *error = what + ": shared-engine compile differs from a fresh engine's";
        }
        if (!t->enabled()) {
          return latency;
        }
        sf::BucketedModel model = [&] {
          ScopedSpan span(t, "graph.build_model", id);
          return sf::BuildModelBucketed(d.kind, d.shape, identity);
        }();
        sf::CompileOptions compile_options = bed->engine->options();
        compile_options.shape_bucket = model.bucket_key.Label();
        std::set<std::uint64_t> seen;
        for (const sf::Subprogram& sub : model.model.subprograms) {
          if (!seen.insert(sub.graph.StructuralHash()).second) {
            continue;
          }
          sf::ScheduledProgram program;
          sf::Status status = CompileByPasses(sub.graph, compile_options, &cost_cache, &fusion,
                                              t, id, &program);
          if (!status.ok()) {
            *error = what + ": pass-by-pass compile failed: " + status.ToString();
            break;
          }
          ScopedSpan span(t, "analysis.analyze", id);
          (void)sf::AnalyzeCompiledProgram(program, sub.graph);
        }
        return latency;
      },
      run);

  NameFigures(run, "compile_p50_ms", "compile_p90_ms", "ms", 1.0, "compiles_per_s", 1.0);
  if (!options.trace) {
    return;
  }
  const std::vector<Span> spans = tracer->spans();
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::vector<Metric>& m = run->layers;
  std::vector<double> build_model_us = PerOpMs(spans, self, "graph.build_model");
  for (double& v : build_model_us) {
    v *= 1e3;
  }
  m.push_back(MedianMetric("graph.build_model_us", "us", build_model_us));
  // Per op: the engine call, and the pass-by-pass pipeline of the same
  // subprograms (every pass plus its verification).
  std::map<std::int64_t, double> pipeline_ms;
  for (const auto& [pass, metric] : PassMetrics()) {
    const auto by_op = SelfNsByOp(spans, self, std::string("pass.") + pass);
    std::vector<double> values;
    for (const auto& [op, ns] : by_op) {
      values.push_back(static_cast<double>(ns) / 1e6);
      pipeline_ms[op] += static_cast<double>(ns) / 1e6;
    }
    m.push_back(MedianMetric(metric, "ms", values));
  }
  std::vector<double> verify_ms;
  for (const auto& [op, ns] : SelfNsByOp(spans, self, "verify.phase")) {
    verify_ms.push_back(static_cast<double>(ns) / 1e6);
    pipeline_ms[op] += static_cast<double>(ns) / 1e6;
  }
  m.push_back(MedianMetric("verify.phase_ms", "ms", verify_ms));
  std::vector<double> overhead_ms;
  for (const auto& [op, ns] : SelfNsByOp(spans, self, "core.compile_for_shape")) {
    overhead_ms.push_back(static_cast<double>(ns) / 1e6 - pipeline_ms[op]);
  }
  m.push_back(MedianMetric("core.engine_overhead_ms", "ms", overhead_ms));
  m.push_back(MedianMetric("analysis.analyze_ms", "ms", PerOpMs(spans, self, "analysis.analyze")));
  const sf::CostCache::Stats cache = cost_cache.stats();
  const std::int64_t lookups = cache.hits + cache.misses;
  m.push_back(Metric{"sim.cost_cache_hit_frac", "fraction",
                     lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0, lookups});
  m.push_back(Metric{"core.transfer_seeded", "count", counts.transfer_seeded, kCountedOps});
  m.push_back(Metric{"tuning.configs_enumerated", "count", counts.enumerated, kCountedOps});
  m.push_back(Metric{"tuning.configs_screened", "count", counts.screened, kCountedOps});
  m.push_back(Metric{"tuning.configs_admitted", "count", counts.admitted, kCountedOps});
  m.push_back(Metric{"tuning.admitted_frac", "fraction",
                     counts.enumerated > 0 ? counts.admitted / counts.enumerated : 0.0,
                     kCountedOps});
  m.push_back(Metric{"tuning.modeled_tuning_s", "s", counts.tuning_s, kCountedOps});
}

// ---- serve-warm ----------------------------------------------------------

// Requests draw batch 1-2 and seq 17-128, which route to the power-of-two
// buckets batch {1, 2} x seq {32, 64, 128} of each zoo model.
constexpr std::int64_t kServeSeqLo = 17;
constexpr std::int64_t kServeSeqHi = 128;

struct ServeBed {
  std::unique_ptr<sf::ServeServer> server;
  std::map<std::string, sf::ExecutionReport> cold;  // model/bucket -> cold estimate
};

sf::ServeRequest MakeRequest(sf::ModelKind kind, const sf::ShapeKey& shape, const std::string& id,
                             const std::string& client) {
  sf::ServeRequest request;
  request.id = id;
  request.client = client;
  request.model = sf::ModelKindName(kind);
  request.batch = shape.batch;
  request.seq = shape.seq;
  request.arch = "a100";
  return request;
}

std::string BucketKey(sf::ModelKind kind, const sf::ShapeKey& shape) {
  return std::string(sf::ModelKindName(kind)) + "/" +
         sf::BucketingPolicy::PowersOfTwo().BucketFor(shape).Label();
}

bool SameEstimate(const sf::ExecutionReport& a, const sf::ExecutionReport& b) {
  return a.time_us == b.time_us && a.kernel_count == b.kernel_count && a.flops == b.flops &&
         a.dram_bytes == b.dram_bytes && a.l1_accesses == b.l1_accesses &&
         a.l1_misses == b.l1_misses && a.l2_accesses == b.l2_accesses &&
         a.l2_misses == b.l2_misses;
}

sf::ServeServerOptions ServeOptions(const std::string& cache_dir) {
  sf::ServeServerOptions options;
  // One worker for the one client: with two of each, four busy threads on
  // a shared 4-core host spread the tail by 20-50% between runs.
  options.workers = 1;
  options.cache_dir = cache_dir;
  options.prewarm_jit = false;
  return options;
}

// Cold-fills every bucket into a fresh .sfpc directory, restarts the server
// on it, and touches every bucket once: those first touches are persistent
// loads and must return the cold estimate.
std::unique_ptr<ServeBed> SetUpServe(const std::string& cache_dir, Tracer* tracer,
                                     Outcomes* outcomes) {
  auto bed = std::make_unique<ServeBed>();
  std::vector<std::pair<sf::ModelKind, sf::ShapeKey>> buckets;
  for (sf::ModelKind kind : sf::AllModelKinds()) {
    for (std::int64_t batch : {1, 2}) {
      for (std::int64_t seq : {32, 64, 128}) {
        buckets.push_back({kind, sf::ShapeKey{batch, seq}});
      }
    }
  }
  {
    sf::ServeServer cold(ServeOptions(cache_dir));
    for (const auto& [kind, shape] : buckets) {
      sf::ServeResponse response = cold.Handle(MakeRequest(kind, shape, "fill", "setup"));
      const std::string key = BucketKey(kind, shape);
      if (!response.ok()) {
        outcomes->Record(key + ": cold fill failed: " + response.error);
        return nullptr;
      }
      bed->cold[key] = response.estimate;
    }
  }
  bed->server = std::make_unique<sf::ServeServer>(ServeOptions(cache_dir));
  for (const auto& [kind, shape] : buckets) {
    const std::string key = BucketKey(kind, shape);
    sf::ServeResponse response = [&] {
      ScopedSpan span(tracer, "core.persistent_load", -1);
      return bed->server->Handle(MakeRequest(kind, shape, "touch", "setup"));
    }();
    if (!response.ok()) {
      outcomes->Record(key + ": warm touch failed: " + response.error);
    } else if (response.outcome != "persistent_hit" && response.outcome != "cache_hit") {
      outcomes->Record(key + ": warm touch was " + response.outcome + ", not a cache hit");
    } else if (!SameEstimate(response.estimate, bed->cold[key])) {
      outcomes->Record(key + ": warm estimate differs from the cold-fill estimate");
    } else {
      outcomes->Record("");
    }
  }
  return bed;
}

void ServeWarm(const RunOptions& options, Tracer* tracer, WorkloadRun* run) {
  Outcomes outcomes(run);
  std::unique_ptr<ServeBed> bed = RepeatSetUp<ServeBed>(options, run, [&](int rep) {
    return SetUpServe(options.work_dir + "/sfpc-" + std::to_string(rep), tracer, &outcomes);
  });
  if (bed == nullptr) {
    return;
  }
  const std::vector<sf::ModelKind> kinds = sf::AllModelKinds();
  const std::uint64_t stream = Mix(options.seed, 0x5e7e);
  struct Sample {
    double queue_wait_us = 0.0;
    double handler_us = 0.0;
    bool bucket_hit = false;
    bool coalesced = false;
  };
  std::vector<Sample> samples;
  Measure(
      options, tracer, /*min_ops=*/100, INT64_MAX,
      [&](std::int64_t id, Tracer* t, std::string* error) {
        Rng rng(Mix(stream, static_cast<std::uint64_t>(id)));
        const sf::ModelKind kind =
            kinds[static_cast<size_t>(rng.Below(static_cast<std::int64_t>(kinds.size())))];
        sf::ShapeKey shape;
        shape.batch = 1 + rng.Below(2);
        shape.seq = kServeSeqLo + rng.Below(kServeSeqHi - kServeSeqLo + 1);
        const std::string key = BucketKey(kind, shape);
        const auto cold = bed->cold.find(key);
        const std::int64_t start = NowNs();
        sf::ServeResponse response = [&] {
          ScopedSpan span(t, "serve.submit", id);
          return bed->server
              ->Submit(MakeRequest(kind, shape, "r" + std::to_string(id),
                                   "client"))
              .get();
        }();
        const double latency = MsSince(start);
        if (!response.ok()) {
          *error = key + ": " + response.status + " " + response.error;
        } else if (cold == bed->cold.end() || !SameEstimate(response.estimate, cold->second)) {
          *error = key + " " + shape.Label() + ": warm estimate differs from the cold-fill one";
        }
        if (!t->enabled()) {
          return latency;
        }
        samples.push_back(Sample{latency * 1e3 - response.wall_ms * 1e3, response.wall_ms * 1e3,
                                 response.bucket_hit, response.coalesced});
        sf::BucketedModel model = [&] {
          ScopedSpan span(t, "graph.build_bucketed", id);
          return sf::BuildModelBucketed(kind, shape, sf::BucketingPolicy::PowersOfTwo());
        }();
        {
          ScopedSpan span(t, "graph.fingerprint", id);
          for (const sf::Subprogram& sub : model.model.subprograms) {
            (void)sub.graph.StructuralHash();
          }
        }
        {
          ScopedSpan span(t, "graph.canonical_form", id);
          for (const sf::Subprogram& sub : model.model.subprograms) {
            (void)sub.graph.CanonicalForm();
          }
        }
        ScopedSpan span(t, "core.engine_hit", id);
        (void)bed->server->engine().CompileModelForShape(kind, shape);
        return latency;
      },
      run);

  NameFigures(run, "request_p50_us", "request_p90_us", "us", 1e3, "requests_per_s", 1.0);
  if (!options.trace) {
    return;
  }
  const sf::ServeServer::Stats stats = bed->server->stats();
  const std::vector<Span> spans = tracer->spans();
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::vector<double> queue_wait;
  std::vector<double> handler;
  double bucket_hits = 0;
  double coalesced = 0;
  for (const Sample& s : samples) {
    queue_wait.push_back(s.queue_wait_us);
    handler.push_back(s.handler_us);
    bucket_hits += s.bucket_hit ? 1 : 0;
    coalesced += s.coalesced ? 1 : 0;
  }
  const double n = static_cast<double>(samples.size());
  const std::int64_t count = static_cast<std::int64_t>(samples.size());
  std::vector<Metric>& m = run->layers;
  m.push_back(MedianMetric("serve.queue_wait_us", "us", queue_wait));
  m.push_back(MedianMetric("serve.handler_us", "us", handler));
  for (const auto& [span, metric] :
       std::vector<std::pair<const char*, const char*>>{
           {"core.engine_hit", "core.engine_hit_us"},
           {"graph.build_bucketed", "graph.build_bucketed_us"},
           {"graph.fingerprint", "graph.fingerprint_us"},
           {"graph.canonical_form", "graph.canonical_form_us"}}) {
    std::vector<double> us = PerOpMs(spans, self, span);
    for (double& v : us) {
      v *= 1e3;
    }
    m.push_back(MedianMetric(metric, "us", us));
  }
  m.push_back(Metric{"core.bucket_hit_frac", "fraction", n > 0 ? bucket_hits / n : 0.0, count});
  m.push_back(Metric{"serve.coalesced_frac", "fraction", n > 0 ? coalesced / n : 0.0, count});
  m.push_back(Metric{"serve.rejected", "count",
                     static_cast<double>(stats.rejected_quota + stats.rejected_queue),
                     stats.submitted});
  m.push_back(Metric{"core.persistent_load_ms", "ms", SetUpMs(spans, self, "core.persistent_load"),
                     static_cast<std::int64_t>(bed->cold.size())});
}

}  // namespace

Figures Summarize(const std::vector<double>& latency_ms) {
  Figures f;
  f.p50 = Percentile(latency_ms, 50);
  f.p90 = Percentile(latency_ms, 90);
  double busy_ms = 0.0;
  for (double ms : latency_ms) {
    busy_ms += ms;
  }
  f.ops_per_s = busy_ms > 0.0 ? static_cast<double>(latency_ms.size()) * 1e3 / busy_ms : 0.0;
  return f;
}

bool RunWorkload(const std::string& name, const RunOptions& options, Tracer* tracer,
                 WorkloadRun* run) {
  if (name == "bert-forward") {
    BertForward(options, tracer, run);
  } else if (name == "small-kernels") {
    SmallKernels(options, tracer, run);
  } else if (name == "compile-cold") {
    CompileCold(options, tracer, run);
  } else if (name == "serve-warm") {
    ServeWarm(options, tracer, run);
  } else {
    return false;
  }
  return true;
}

}  // namespace sfbench
