#include "src/codegen/jit_cache.h"

#include <dlfcn.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/support/binary_io.h"
#include "src/support/file_util.h"

namespace spacefusion {

std::string KernelCacheDirFromEnv() {
  const char* kernel_dir = std::getenv("SPACEFUSION_KERNEL_CACHE_DIR");
  if (kernel_dir != nullptr && kernel_dir[0] != '\0') {
    return kernel_dir;
  }
  const char* cache_dir = std::getenv("SPACEFUSION_CACHE_DIR");
  if (cache_dir != nullptr && cache_dir[0] != '\0') {
    return std::string(cache_dir) + "/kernels";
  }
  return "";
}

namespace {

std::string HexKey(std::uint64_t key) {
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(key));
  return hex;
}

}  // namespace

JitKernelCache::JitKernelCache(JitCacheOptions options) : options_(std::move(options)) {
  dir_ = options_.dir;
  if (dir_.empty()) {
    std::error_code ec;
    std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
    if (ec) {
      tmp = ".";
    }
    dir_ = (tmp / ("sf-jit-" + std::to_string(::getpid()))).string();
  }
  compiler_ = options_.compiler;
  if (compiler_.empty()) {
    const char* env = std::getenv("SPACEFUSION_CXX");
    compiler_ = (env != nullptr && env[0] != '\0') ? env : "c++";
  }
}

JitKernelCache::~JitKernelCache() {
  MutexLock lock(mu_);
  for (auto& [key, loaded] : loaded_) {
    (void)key;
    if (loaded.handle != nullptr) {
      ::dlclose(loaded.handle);
    }
  }
}

std::uint64_t JitKernelCache::EntryKey(const CppKernel& kernel) const {
  std::string blob =
      "sfk-cache-v1|" + compiler_ + "|" + options_.flags + "|" + HexKey(kernel.key);
  return Fnv1a64(blob);
}

std::string JitKernelCache::EntryPath(std::uint64_t entry_key, const char* ext) const {
  return dir_ + "/" + HexKey(entry_key) + ext;
}

StatusOr<double> JitKernelCache::Build(const CppKernel& kernel, const std::string& so_path,
                                       Stats* counts) {
  const std::string cc_path = so_path.substr(0, so_path.size() - 3) + ".cc";
  SF_RETURN_IF_ERROR(AtomicWriteFile(cc_path, kernel.source));

  const std::string tmp_so = so_path + ".tmp." + std::to_string(::getpid());
  const std::string log_path = so_path + ".log";
  const std::string cmd = compiler_ + " " + options_.flags + " -o \"" + tmp_so + "\" \"" +
                          cc_path + "\" 2> \"" + log_path + "\"";

  const auto start = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  ++counts->toolchain_invocations;
  SF_COUNTER_ADD("jit.cache.toolchain_invocations", 1);

  if (rc != 0) {
    StatusOr<std::string> log_or = ReadFileToString(log_path);
    std::string log = log_or.ok() ? log_or.value() : "";
    if (log.size() > 500) {
      log.resize(500);
    }
    std::remove(tmp_so.c_str());
    std::remove(log_path.c_str());
    if (!options_.keep_sources) {
      std::remove(cc_path.c_str());
    }
    return Internal("jit: '" + compiler_ + "' failed (exit " + std::to_string(rc) +
                    ") building " + kernel.symbol + ": " + log);
  }
  std::remove(log_path.c_str());
  if (!options_.keep_sources) {
    std::remove(cc_path.c_str());
  }
  if (std::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
    std::remove(tmp_so.c_str());
    return Internal("jit: rename into " + so_path + " failed");
  }
  return ms;
}

StatusOr<JitKernelCache::Loaded> JitKernelCache::LoadOrBuild(const CppKernel& kernel,
                                                             std::uint64_t entry_key,
                                                             Stats* counts) {
  const std::string so_path = EntryPath(entry_key, ".sfk.so");
  Loaded loaded;
  loaded.scratch_floats = kernel.scratch_floats;

  if (::access(so_path.c_str(), F_OK) == 0) {
    loaded.handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (loaded.handle != nullptr) {
      loaded.fn = reinterpret_cast<CppKernelFn>(::dlsym(loaded.handle, kernel.symbol.c_str()));
    }
    if (loaded.fn != nullptr) {
      ++counts->disk_hits;
      SF_COUNTER_ADD("jit.cache.disk_hits", 1);
      return loaded;
    }
    // Undlopenable or missing its symbol: a corrupt (or stale-emitter)
    // entry. Evict it; rebuild below if allowed.
    if (loaded.handle != nullptr) {
      ::dlclose(loaded.handle);
      loaded.handle = nullptr;
    }
    ++counts->corrupt;
    SF_COUNTER_ADD("jit.cache.corrupt", 1);
    std::remove(so_path.c_str());
  }

  if (!options_.allow_compile) {
    ++counts->failures;
    return NotFound("jit: kernel " + kernel.symbol +
                    " not in cache and compilation is disabled");
  }
  StatusOr<double> build_ms = Build(kernel, so_path, counts);
  if (!build_ms.ok()) {
    ++counts->failures;
    SF_COUNTER_ADD("jit.cache.build_failures", 1);
    return build_ms.status();
  }
  loaded.handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (loaded.handle != nullptr) {
    loaded.fn = reinterpret_cast<CppKernelFn>(::dlsym(loaded.handle, kernel.symbol.c_str()));
  }
  if (loaded.fn == nullptr) {
    const char* err = ::dlerror();
    if (loaded.handle != nullptr) {
      ::dlclose(loaded.handle);
    }
    ++counts->failures;
    return Internal("jit: freshly built " + kernel.symbol +
                    " failed to load: " + (err != nullptr ? err : "unknown dlerror"));
  }
  ++counts->builds;
  counts->build_ms += build_ms.value();
  SF_COUNTER_ADD("jit.cache.builds", 1);
  return loaded;
}

StatusOr<JitKernelCache::Kernel> JitKernelCache::GetOrBuild(const CppKernel& kernel) {
  const std::uint64_t entry_key = EntryKey(kernel);
  auto as_kernel = [entry_key](const Loaded& loaded) {
    Kernel result;
    result.fn = loaded.fn;
    result.scratch_floats = loaded.scratch_floats;
    result.key = entry_key;
    return result;
  };

  // Probe under the lock: a loaded entry is a hit; an entry another thread
  // is loading is waited on below; otherwise this call becomes its loader.
  std::promise<Status> outcome;
  std::shared_future<Status> pending;
  {
    MutexLock lock(mu_);
    auto it = loaded_.find(entry_key);
    if (it != loaded_.end()) {
      ++stats_.memory_hits;
      SF_COUNTER_ADD("jit.cache.hits", 1);
      return as_kernel(it->second);
    }
    auto in_flight = in_flight_.find(entry_key);
    if (in_flight != in_flight_.end()) {
      pending = in_flight->second;
    } else {
      in_flight_.emplace(entry_key, outcome.get_future().share());
    }
  }
  if (pending.valid()) {
    SF_RETURN_IF_ERROR(pending.get());
    MutexLock lock(mu_);
    ++stats_.memory_hits;
    SF_COUNTER_ADD("jit.cache.hits", 1);
    return as_kernel(loaded_.at(entry_key));
  }

  SF_COUNTER_ADD("jit.cache.misses", 1);
  Stats counts;
  StatusOr<Loaded> loaded = LoadOrBuild(kernel, entry_key, &counts);
  {
    MutexLock lock(mu_);
    stats_.disk_hits += counts.disk_hits;
    stats_.builds += counts.builds;
    stats_.corrupt += counts.corrupt;
    stats_.failures += counts.failures;
    stats_.build_ms += counts.build_ms;
    stats_.toolchain_invocations += counts.toolchain_invocations;
    if (loaded.ok()) {
      loaded_[entry_key] = loaded.value();
    }
    in_flight_.erase(entry_key);
  }
  outcome.set_value(loaded.status());
  SF_RETURN_IF_ERROR(loaded.status());
  Kernel result = as_kernel(loaded.value());
  result.built = counts.builds > 0;
  result.from_disk = counts.disk_hits > 0;
  return result;
}

JitKernelCache::Stats JitKernelCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace spacefusion
