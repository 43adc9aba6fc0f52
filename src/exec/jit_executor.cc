#include "src/exec/jit_executor.h"

#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace spacefusion {

JitExecutor::JitExecutor(JitExecutorOptions options) : options_(std::move(options)) {
  if (options_.cache.dir.empty()) {
    options_.cache.dir = KernelCacheDirFromEnv();
  }
  owned_cache_ = std::make_unique<JitKernelCache>(options_.cache);
  cache_ = owned_cache_.get();
}

JitExecutor::JitExecutor(JitExecutorOptions options, JitKernelCache* shared_cache)
    : options_(std::move(options)), cache_(shared_cache) {
  SF_CHECK(cache_ != nullptr);
}

const JitExecutor::Binding& JitExecutor::Bind(const SmgSchedule& schedule) {
  const std::uint64_t key = CppKernelBindingKey(schedule, options_.codegen);
  {
    MutexLock lock(mu_);
    auto it = bindings_.find(key);
    if (it != bindings_.end()) {
      return it->second;
    }
  }
  // First sight of this kernel. Racing binders may both get here; the
  // kernel cache builds it once and the first insert below wins.
  ScopedSpan span("exec.jit.bind", "exec");
  span.Arg("kernel", schedule.graph.name());
  Binding binding;
  StatusOr<CppKernel> kernel = EmitCppKernel(schedule, options_.codegen);
  StatusOr<JitKernelCache::Kernel> loaded =
      kernel.ok() ? cache_->GetOrBuild(kernel.value()) : kernel.status();
  if (loaded.ok()) {
    binding.fn = loaded->fn;
    binding.scratch_floats = loaded->scratch_floats;
    binding.input_ids = std::move(kernel->input_ids);
    binding.output_ids = std::move(kernel->output_ids);
  } else {
    SF_LOG(Warning) << "jit: " << schedule.graph.name()
                    << " is bound to the interpreter: " << loaded.status().message();
  }
  MutexLock lock(mu_);
  return bindings_.try_emplace(key, std::move(binding)).first->second;
}

Status JitExecutor::Launch(const Binding& binding, const Graph& graph, TensorEnv* env) {
  std::vector<const float*> in_ptrs;
  in_ptrs.reserve(binding.input_ids.size());
  for (TensorId t : binding.input_ids) {
    const Tensor& tensor = (*env)[static_cast<size_t>(t)];
    if (!tensor.defined()) {
      return Internal("jit: undefined input tensor " + graph.tensor(t).name);
    }
    if (tensor.shape() != graph.tensor(t).shape) {
      return Internal("jit: input " + graph.tensor(t).name + " has shape " +
                      tensor.shape().ToString() + ", kernel was specialized for " +
                      graph.tensor(t).shape.ToString());
    }
    in_ptrs.push_back(tensor.data());
  }
  std::vector<Tensor> outputs;
  std::vector<float*> out_ptrs;
  outputs.reserve(binding.output_ids.size());
  out_ptrs.reserve(binding.output_ids.size());
  for (TensorId t : binding.output_ids) {
    const TensorInfo& info = graph.tensor(t);
    outputs.push_back(Tensor::Zeros(info.shape, info.dtype));
    out_ptrs.push_back(outputs.back().data());
  }
  std::vector<float> scratch(static_cast<size_t>(binding.scratch_floats), 0.0f);

  const int rc = binding.fn(in_ptrs.data(), out_ptrs.data(), scratch.data());
  if (rc != 0) {
    return Internal("jit: kernel for " + graph.name() + " returned " + std::to_string(rc));
  }
  for (size_t i = 0; i < binding.output_ids.size(); ++i) {
    (*env)[static_cast<size_t>(binding.output_ids[i])] = outputs[i];
  }
  return Status::Ok();
}

Status JitExecutor::RunKernel(const SmgSchedule& schedule, TensorEnv* env) {
  ScopedSpan span("exec.jit.run_kernel", "exec");
  span.Arg("kernel", schedule.graph.name());
  const Binding& binding = Bind(schedule);
  if (binding.fn != nullptr) {
    Status jit = Launch(binding, schedule.graph, env);
    if (jit.ok()) {
      SF_COUNTER_ADD("exec.jit.kernel_launches", 1);
      MutexLock lock(mu_);
      ++stats_.jit_runs;
      return jit;
    }
    SF_LOG(Warning) << "jit: falling back to interpreter for " << schedule.graph.name() << ": "
                    << jit.message();
  }
  SF_COUNTER_ADD("exec.jit.fallbacks", 1);
  {
    MutexLock lock(mu_);
    ++stats_.fallbacks;
  }
  return RunSchedule(schedule, env);
}

Status JitExecutor::RunProgram(const ScheduledProgram& program, const Graph& original,
                               const TensorEnv& original_inputs, TensorEnv* final_outputs) {
  return RunProgramKernels(
      "exec.jit.run_program", program, original, original_inputs,
      [this](const SmgSchedule& kernel, TensorEnv* env) { return RunKernel(kernel, env); },
      final_outputs);
}

JitExecutor::Stats JitExecutor::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace spacefusion
