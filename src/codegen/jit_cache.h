// Persistent JIT kernel cache: compiles emitted C++ kernels with the host
// toolchain into shared objects and dlopens them.
//
// Entries are content-addressed: the cache key mixes the kernel key (itself
// a hash of the emitted source, the codegen options digest, and the emitter
// version) with the compiler command and flags, so a toolchain or flag
// change can never serve a stale binary. On-disk layout, next to the
// engine's .sfpc program cache:
//
//   <dir>/<16-hex-key>.sfk.so    the compiled kernel
//   <dir>/<16-hex-key>.sfk.cc    the source it was built from (debugging)
//
// Lookup ladder per kernel: in-memory handle -> dlopen of the on-disk .so
// -> toolchain build (unless allow_compile is off). A .so that fails to
// dlopen or lacks the expected symbol is *corrupt*: it is counted
// (jit.cache.corrupt), unlinked, and rebuilt — callers that cannot rebuild
// fall back to the interpreter, never crash.
#ifndef SPACEFUSION_SRC_CODEGEN_JIT_CACHE_H_
#define SPACEFUSION_SRC_CODEGEN_JIT_CACHE_H_

#include <cstdint>
#include <future>
#include <map>
#include <string>

#include "src/codegen/cpp_codegen.h"
#include "src/support/status.h"
#include "src/support/thread_annotations.h"

namespace spacefusion {

// The kernel cache directory configured in the environment:
// SPACEFUSION_KERNEL_CACHE_DIR if set, else "<SPACEFUSION_CACHE_DIR>/kernels"
// if the program cache dir is set, else "" (per-process temp directory).
std::string KernelCacheDirFromEnv();

struct JitCacheOptions {
  // Cache directory; "" uses a per-process directory under the system temp
  // dir (kernels persist for the process lifetime only).
  std::string dir;
  // Host compiler command; "" uses $SPACEFUSION_CXX, else "c++".
  std::string compiler;
  // Compile flags. -ffp-contract=off keeps the JIT-compiled kernels from
  // contracting a*b+c into fma, which would break bit-parity with the
  // separately compiled interpreter. The default targets the host: on an
  // x86-64 CPU with AVX2 it adds -mavx2 (never -mfma, -march or fast-math),
  // and since the entry key hashes the flags, a .so built for AVX2 is never
  // loaded by a host without it.
  std::string flags = [] {
    std::string f = "-O3 -std=c++17 -fPIC -shared -ffp-contract=off";
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      f += " -mavx2";
    }
#endif
    return f;
  }();
  // When false, a kernel that is not already on disk is a NotFound error
  // instead of a toolchain invocation (callers then fall back to the
  // interpreter). Serving can use this to bound tail latency.
  bool allow_compile = true;
  // Keep the .sfk.cc source next to the .so for inspection.
  bool keep_sources = true;
};

class JitKernelCache {
 public:
  struct Stats {
    std::int64_t memory_hits = 0;  // served from the in-process handle map
    std::int64_t disk_hits = 0;    // dlopened a previously built .so
    std::int64_t builds = 0;       // toolchain invocations that succeeded
    std::int64_t corrupt = 0;      // undlopenable / symbol-less entries
    std::int64_t failures = 0;     // builds or loads that errored
    double build_ms = 0.0;         // cumulative wall time inside the toolchain
    // Every time the host compiler ran, successful or not. The CI serve
    // step asserts this stays 0 on a warm restart.
    std::int64_t toolchain_invocations = 0;
  };

  // A loaded, callable kernel.
  struct Kernel {
    CppKernelFn fn = nullptr;
    std::int64_t scratch_floats = 0;
    std::uint64_t key = 0;    // cache entry key (kernel key x toolchain)
    bool built = false;       // this call invoked the toolchain
    bool from_disk = false;   // this call dlopened a prebuilt entry
  };

  explicit JitKernelCache(JitCacheOptions options = JitCacheOptions());
  ~JitKernelCache();

  JitKernelCache(const JitKernelCache&) = delete;
  JitKernelCache& operator=(const JitKernelCache&) = delete;

  // Returns the callable for `kernel`, building and/or loading it as
  // needed. Thread-safe; concurrent requests for the same kernel build it
  // once. The lock is held only to probe and insert: the toolchain and
  // dlopen run outside it, so a build never delays another thread's hit.
  StatusOr<Kernel> GetOrBuild(const CppKernel& kernel);

  Stats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  struct Loaded {
    void* handle = nullptr;
    CppKernelFn fn = nullptr;
    std::int64_t scratch_floats = 0;
  };

  std::uint64_t EntryKey(const CppKernel& kernel) const;
  std::string EntryPath(std::uint64_t entry_key, const char* ext) const;
  // Loads the entry from disk or builds it, without holding mu_; counts
  // what it did into `*counts`.
  StatusOr<Loaded> LoadOrBuild(const CppKernel& kernel, std::uint64_t entry_key, Stats* counts);
  // Compile kernel.source into `so_path`. Returns the toolchain wall time.
  StatusOr<double> Build(const CppKernel& kernel, const std::string& so_path, Stats* counts);

  JitCacheOptions options_;
  std::string dir_;       // resolved cache directory
  std::string compiler_;  // resolved compiler command

  mutable Mutex mu_;
  std::map<std::uint64_t, Loaded> loaded_ SF_GUARDED_BY(mu_);
  // Entries some thread is loading or building: later callers for the same
  // key wait on its outcome instead of running the toolchain again.
  std::map<std::uint64_t, std::shared_future<Status>> in_flight_ SF_GUARDED_BY(mu_);
  Stats stats_ SF_GUARDED_BY(mu_);
};

}  // namespace spacefusion

#endif  // SPACEFUSION_SRC_CODEGEN_JIT_CACHE_H_
