// JIT execution of fused schedules: native code instead of interpretation.
//
// The JitExecutor emits specialized C++ for each kernel (cpp_codegen),
// compiles it through the persistent JIT kernel cache (jit_cache), and runs
// the resulting shared object. The backend is chosen by which of
// RunProgram / RunScheduledProgram the caller calls; both walk the program
// through RunProgramKernels.
//
// Kernels are bound once. Lookup ladder per kernel call:
//   1. the executor's binding memo, keyed by CppKernelBindingKey: a hit is
//      one hash-map probe, then the native call (no emission, no source
//      hashing, no kernel-cache lookup);
//   2. on a memo miss, emit the source and ask the kernel cache: in-memory
//      handle -> dlopen of the on-disk .so -> toolchain build.
// The memo grows only with distinct kernels, as the cache's handle map
// does; its lock is never held across emission or the kernel cache.
//
// Fallback (jit -> interpret): a kernel whose emission, build or load fails
// on first bind is bound to the schedule interpreter for this executor's
// lifetime, so the toolchain and the warning run once per kernel, not once
// per call; a new executor retries. A bound kernel that fails at launch
// (e.g. an input of the wrong shape) falls back for that call only. Every
// kernel call that runs on the interpreter counts in stats().fallbacks, so
// RunProgram never produces fewer answers than RunScheduledProgram, only
// faster ones.
//
// Numerics: the emitted code replays the interpreter's exact per-element
// operation order and is compiled with -ffp-contract=off, so outputs are
// bit-identical to the interpreter on reassociation-free op streams (see
// DESIGN.md "Native codegen & JIT kernel cache" for the tolerance policy).
#ifndef SPACEFUSION_SRC_EXEC_JIT_EXECUTOR_H_
#define SPACEFUSION_SRC_EXEC_JIT_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/codegen/cpp_codegen.h"
#include "src/codegen/jit_cache.h"
#include "src/exec/schedule_executor.h"
#include "src/support/thread_annotations.h"

namespace spacefusion {

struct JitExecutorOptions {
  CppCodegenOptions codegen;
  // Kernel cache configuration. An empty dir resolves through
  // KernelCacheDirFromEnv() (SPACEFUSION_KERNEL_CACHE_DIR, then
  // "<SPACEFUSION_CACHE_DIR>/kernels", then a per-process temp dir).
  JitCacheOptions cache;
};

class JitExecutor {
 public:
  struct Stats {
    std::int64_t jit_runs = 0;   // kernel calls executed natively
    std::int64_t fallbacks = 0;  // kernel calls that ran on the interpreter
  };

  explicit JitExecutor(JitExecutorOptions options = JitExecutorOptions());
  // Runs against an externally owned kernel cache (e.g. the engine's, so
  // serving and execution share one persistent cache). `shared_cache` must
  // outlive the executor.
  JitExecutor(JitExecutorOptions options, JitKernelCache* shared_cache);

  // Executes a partitioned program natively: RunProgramKernels with
  // RunKernel as the step. Mirrors RunScheduledProgram's contract.
  Status RunProgram(const ScheduledProgram& program, const Graph& original,
                    const TensorEnv& original_inputs, TensorEnv* final_outputs);

  JitKernelCache& cache() { return *cache_; }
  Stats stats() const;

 private:
  // A kernel as bound by this executor: its native entry point and ABI, or
  // fn == nullptr when it runs on the interpreter.
  struct Binding {
    CppKernelFn fn = nullptr;
    std::int64_t scratch_floats = 0;
    std::vector<TensorId> input_ids;   // ABI order of in[]
    std::vector<TensorId> output_ids;  // ABI order of out[]
  };

  // Executes one fused kernel's schedule over `env`, natively when
  // possible, else through RunSchedule. Mirrors RunSchedule's contract.
  Status RunKernel(const SmgSchedule& schedule, TensorEnv* env);
  // The memoized binding of `schedule`; emits, builds or loads it on first
  // sight. Entries are never erased, so the reference stays valid.
  const Binding& Bind(const SmgSchedule& schedule);
  // Calls a natively bound kernel on the tensors of `env`.
  static Status Launch(const Binding& binding, const Graph& graph, TensorEnv* env);

  JitExecutorOptions options_;
  std::unique_ptr<JitKernelCache> owned_cache_;
  JitKernelCache* cache_ = nullptr;

  mutable Mutex mu_;
  Stats stats_ SF_GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, Binding> bindings_ SF_GUARDED_BY(mu_);
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_EXEC_JIT_EXECUTOR_H_
