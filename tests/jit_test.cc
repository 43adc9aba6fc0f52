// JIT execution battery: the native-codegen path (cpp_codegen -> jit_cache
// -> JitExecutor) must produce the interpreter's answers on every workload,
// warm-start from disk without re-invoking the toolchain, and degrade to
// the interpreter — never crash — on corrupt cache entries or a broken
// toolchain.
//
// Tolerance policy (see DESIGN.md "Native codegen & JIT kernel cache"): the
// emitted C++ replays the interpreter's exact per-element operation order
// and is built with -ffp-contract=off. On x86-64 without FMA codegen the
// host build cannot contract either, so outputs are bit-identical; on other
// targets we allow a tight relative tolerance.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/codegen/cpp_codegen.h"
#include "src/codegen/jit_cache.h"
#include "src/core/model_runner.h"
#include "src/core/spacefusion.h"
#include "src/exec/jit_executor.h"
#include "src/graph/builder.h"
#include "src/graph/models.h"
#include "src/graph/subgraphs.h"
#include "src/support/file_util.h"
#include "src/support/thread_pool.h"
#include "tests/random_graph.h"

namespace spacefusion {
namespace {

using testing_util::RandomGraph;

#if defined(__x86_64__) && !defined(__FMA__)
// Host build can't contract a*b+c into fma, and the jit flags forbid it:
// the native kernels replay the interpreter bit for bit.
constexpr float kParityTolerance = 0.0f;
#else
constexpr float kParityTolerance = 1e-4f;
#endif

std::string UniqueTestDir(const std::string& tag) {
  static int counter = 0;
  return ::testing::TempDir() + "sf-jit-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter++);
}

// One kernel cache shared by every parity test in the process: kernels are
// content-addressed, so reuse across tests is exactly the production
// behavior and keeps the battery from re-invoking the toolchain for
// identical shapes.
JitExecutor& SharedExecutor() {
  static JitExecutor* executor = []() {
    JitExecutorOptions options;
    options.cache.dir = UniqueTestDir("shared");
    return new JitExecutor(options);
  }();
  return *executor;
}

StatusOr<CompiledSubprogram> CompileGraph(const Graph& g) {
  Compiler compiler{CompileOptions(AmpereA100())};
  return compiler.Compile(g);
}

// Runs `program` through the interpreter and through `executor`, and checks
// every graph output against both the interpreter and the unfused reference.
void ExpectProgramMatchesInterpreter(const ScheduledProgram& program, const Graph& g,
                                     std::uint64_t seed, JitExecutor& executor,
                                     float tolerance = kParityTolerance) {
  TensorEnv inputs = MakeGraphInputs(g, seed);
  TensorEnv interpreted;
  ASSERT_TRUE(RunScheduledProgram(program, g, inputs, &interpreted).ok());

  TensorEnv jitted;
  Status st = executor.RunProgram(program, g, inputs, &jitted);
  ASSERT_TRUE(st.ok()) << st.ToString();

  TensorEnv reference = inputs;
  RunReference(g, &reference);

  for (TensorId out : g.OutputIds()) {
    const size_t i = static_cast<size_t>(out);
    EXPECT_LE(MaxRelDiff(jitted[i], interpreted[i]), tolerance)
        << "jit diverges from interpreter on " << g.tensor(out).name << "\n"
        << g.ToString();
    EXPECT_LT(MaxRelDiff(jitted[i], reference[i]), 1e-2f)
        << "jit diverges from reference on " << g.tensor(out).name << "\n"
        << g.ToString();
  }
}

// Compiles `g` and checks its program with ExpectProgramMatchesInterpreter.
void ExpectJitMatchesInterpreter(const Graph& g, std::uint64_t seed, JitExecutor& executor,
                                 float tolerance = kParityTolerance) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << g.ToString() << "\n" << compiled.status().ToString();
  ExpectProgramMatchesInterpreter(compiled->program, g, seed, executor, tolerance);
}

// Every graph output of `got` has exactly the bits of `want`'s.
void ExpectBitIdenticalOutputs(const Graph& g, const TensorEnv& got, const TensorEnv& want) {
  for (TensorId out : g.OutputIds()) {
    const Tensor& a = got[static_cast<size_t>(out)];
    const Tensor& b = want[static_cast<size_t>(out)];
    ASSERT_TRUE(a.defined() && b.defined()) << g.tensor(out).name;
    ASSERT_EQ(a.shape(), b.shape()) << g.tensor(out).name;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.volume()) * sizeof(float)),
              0)
        << "outputs differ in " << g.tensor(out).name;
  }
}

class JitExecutorTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

TEST_F(JitExecutorTest, MhaMatchesInterpreter) {
  Graph g = BuildMha(/*batch_heads=*/4, /*seq_q=*/32, /*seq_kv=*/32, /*head_dim=*/16);
  ExpectJitMatchesInterpreter(g, /*seed=*/11, SharedExecutor());
  EXPECT_GT(SharedExecutor().stats().jit_runs, 0);
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
}

TEST_F(JitExecutorTest, MaskedMhaMatchesInterpreter) {
  Graph g = BuildMha(/*batch_heads=*/2, /*seq_q=*/24, /*seq_kv=*/24, /*head_dim=*/8,
                     /*masked=*/true);
  ExpectJitMatchesInterpreter(g, /*seed=*/12, SharedExecutor());
}

TEST_F(JitExecutorTest, LayerNormMatchesInterpreter) {
  Graph g = BuildLayerNormGraph(/*m=*/48, /*n=*/96);
  ExpectJitMatchesInterpreter(g, /*seed=*/13, SharedExecutor());
}

TEST_F(JitExecutorTest, MlpMatchesInterpreter) {
  Graph g = BuildMlp(/*num_layers=*/3, /*m=*/16, /*n=*/32, /*k=*/24);
  ExpectJitMatchesInterpreter(g, /*seed=*/14, SharedExecutor());
}

TEST_F(JitExecutorTest, FfnMatchesInterpreter) {
  Graph g = BuildFfn(/*tokens=*/32, /*hidden=*/48, /*ffn_dim=*/96, UnaryKind::kGelu,
                     NormKind::kLayerNorm);
  ExpectJitMatchesInterpreter(g, /*seed=*/15, SharedExecutor());
}

TEST_F(JitExecutorTest, SwigluFfnMatchesInterpreter) {
  Graph g = BuildSwigluFfn(/*tokens=*/24, /*hidden=*/32, /*ffn_dim=*/64);
  ExpectJitMatchesInterpreter(g, /*seed=*/16, SharedExecutor());
}

// Acceptance criterion: JitExecutor runs all 5 zoo models with outputs
// matching the interpreter within the documented tolerance.
TEST_F(JitExecutorTest, AllZooModelsMatchInterpreter) {
  for (ModelKind kind : AllModelKinds()) {
    ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/64));
    // Parity per unique subprogram graph: repetitions execute the same
    // kernels on different values, which adds runtime but no coverage.
    std::vector<std::string> seen;
    std::uint64_t seed = 100;
    for (const Subprogram& sub : model.subprograms) {
      std::string print = sub.graph.ToString();
      bool dup = false;
      for (const std::string& s : seen) {
        dup = dup || s == print;
      }
      if (dup) {
        continue;
      }
      seen.push_back(print);
      SCOPED_TRACE(std::string(ModelKindName(kind)) + " / " + sub.graph.name());
      ExpectJitMatchesInterpreter(sub.graph, seed++, SharedExecutor());
    }
  }
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
}

// A broken toolchain must not break execution: every kernel falls back to
// the interpreter and the program still produces reference answers. The
// failed build binds the kernel to the interpreter, so the toolchain runs
// once per kernel on the first call and never again, while every call
// still counts its fallbacks.
TEST_F(JitExecutorTest, BrokenToolchainFallsBackToInterpreter) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("broken-toolchain");
  options.cache.compiler = "/bin/false";
  JitExecutor executor(options);

  Graph g = BuildLayerNormGraph(/*m=*/16, /*n=*/32);
  ExpectJitMatchesInterpreter(g, /*seed=*/21, executor, /*tolerance=*/0.0f);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::int64_t kernels = static_cast<std::int64_t>(compiled->program.kernels.size());
  EXPECT_EQ(executor.cache().stats().toolchain_invocations, kernels);
  EXPECT_EQ(executor.stats().fallbacks, kernels);

  // Two more calls, on a recompiled (equal) program: no toolchain run.
  TensorEnv inputs = MakeGraphInputs(g, /*seed=*/21);
  TensorEnv interpreted;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &interpreted).ok());
  for (int call = 2; call <= 3; ++call) {
    TensorEnv jitted;
    Status st = executor.RunProgram(compiled->program, g, inputs, &jitted);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectBitIdenticalOutputs(g, jitted, interpreted);
    EXPECT_EQ(executor.cache().stats().toolchain_invocations, kernels);
    EXPECT_EQ(executor.stats().fallbacks, call * kernels);
  }
  EXPECT_EQ(executor.stats().jit_runs, 0);
  EXPECT_GT(executor.cache().stats().failures, 0);
}

// Warm path: once every kernel is bound, a call neither emits nor consults
// the kernel cache — no memory hit, disk hit or build — and only launches.
TEST_F(JitExecutorTest, WarmCallsSkipEmissionAndCacheLookup) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("warm-path");
  JitExecutor executor(options);

  Graph g = BuildMha(/*batch_heads=*/2, /*seq_q=*/16, /*seq_kv=*/32, /*head_dim=*/8);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::int64_t kernels = static_cast<std::int64_t>(compiled->program.kernels.size());
  TensorEnv inputs = MakeGraphInputs(g, /*seed=*/22);
  TensorEnv first;
  ASSERT_TRUE(executor.RunProgram(compiled->program, g, inputs, &first).ok());
  const JitKernelCache::Stats bound = executor.cache().stats();
  EXPECT_EQ(bound.builds, kernels);
  EXPECT_EQ(executor.stats().jit_runs, kernels);

  for (int call = 0; call < 20; ++call) {
    TensorEnv again;
    Status st = executor.RunProgram(compiled->program, g, inputs, &again);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectBitIdenticalOutputs(g, again, first);
  }
  const JitKernelCache::Stats warm = executor.cache().stats();
  EXPECT_EQ(warm.memory_hits, bound.memory_hits);
  EXPECT_EQ(warm.disk_hits, bound.disk_hits);
  EXPECT_EQ(warm.builds, bound.builds);
  EXPECT_EQ(warm.toolchain_invocations, bound.toolchain_invocations);
  EXPECT_EQ(executor.stats().jit_runs, 21 * kernels);
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

// JIT binding memo under concurrency: threads binding the same kernels at
// once all get correct answers, and the kernel cache builds each kernel
// exactly once.
TEST_F(JitExecutorTest, ConcurrentRunsBindEachKernelOnce) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("concurrent");
  JitExecutor executor(options);

  Graph g = BuildAttnOut(/*tokens=*/8, /*hidden=*/768, NormKind::kLayerNorm);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const std::int64_t kernels = static_cast<std::int64_t>(compiled->program.kernels.size());
  ASSERT_GT(kernels, 1);
  TensorEnv inputs = MakeGraphInputs(g, /*seed=*/23);
  TensorEnv interpreted;
  ASSERT_TRUE(RunScheduledProgram(compiled->program, g, inputs, &interpreted).ok());

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 3;
  std::vector<std::vector<TensorEnv>> outputs(kThreads,
                                              std::vector<TensorEnv>(kCallsPerThread));
  std::vector<Status> statuses(kThreads * kCallsPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kCallsPerThread; ++c) {
        statuses[static_cast<size_t>(t * kCallsPerThread + c)] = executor.RunProgram(
            compiled->program, g, inputs, &outputs[static_cast<size_t>(t)][static_cast<size_t>(c)]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const Status& st : statuses) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  for (const std::vector<TensorEnv>& per_thread : outputs) {
    for (const TensorEnv& out : per_thread) {
      ExpectBitIdenticalOutputs(g, out, interpreted);
    }
  }
  EXPECT_EQ(executor.cache().stats().builds, kernels);
  EXPECT_EQ(executor.stats().jit_runs, kThreads * kCallsPerThread * kernels);
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

// Differential corpus: random graphs, one executor, jit vs interpreter.
class JitDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

TEST_P(JitDifferentialTest, JitMatchesInterpreterOnRandomGraphs) {
  // Seed stride disjoint from fuzz_test's and differential_test's corpora.
  std::uint64_t seed = static_cast<std::uint64_t>(GetParam()) * 40503001ULL + 17;
  Graph g = RandomGraph(seed);
  ASSERT_TRUE(g.Validate().ok());
  ExpectJitMatchesInterpreter(g, seed ^ 0xA5, SharedExecutor());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitDifferentialTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Register-tiled matmuls: a matmul with M >= 8 rows runs sf_matmul (4x16
// register tiles over packed 16-column, 256-deep panels of B), smaller ones
// the row loops. Both must replay the interpreter's per-element order.

// One matmul, C = op(A) * op(B): A is [a_batch.., M, K] and B [b_batch.., K,
// N], each stored transposed when its flag is set.
Graph BuildMatMulGraph(std::int64_t m, std::int64_t n, std::int64_t k, bool ta, bool tb,
                       std::vector<std::int64_t> a_dims = {},
                       std::vector<std::int64_t> b_dims = {}) {
  GraphBuilder b("matmul_" + std::to_string(m) + "x" + std::to_string(n) + "x" +
                 std::to_string(k));
  a_dims.insert(a_dims.end(), {ta ? k : m, ta ? m : k});
  b_dims.insert(b_dims.end(), {tb ? n : k, tb ? k : n});
  TensorId a = b.Input("a", Shape(a_dims));
  TensorId w = b.Weight("b", Shape(b_dims));
  b.MarkOutput(b.MatMul(a, w, ta, tb, "c"));
  return b.Build();
}

// Compiles `g` with temporal slicing switched off, so that each kernel runs
// in one pass and every matmul contracts its whole K.
ScheduledProgram SinglePassProgram(const Graph& g) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  ScheduledProgram program = compiled->program;
  for (SmgSchedule& kernel : program.kernels) {
    ScheduleConfig config;
    for (const DimSlice& slice : kernel.spatial) {
      config.spatial_blocks.push_back(slice.block);
    }
    kernel.ApplyConfig(config);
  }
  return program;
}

// Every kernel of `program` calls sf_matmul exactly when `tiled`.
void ExpectTilePath(const ScheduledProgram& program, bool tiled) {
  for (const SmgSchedule& schedule : program.kernels) {
    StatusOr<CppKernel> kernel = EmitCppKernel(schedule);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    EXPECT_EQ(kernel->source.find("sf_matmul<") != std::string::npos, tiled)
        << kernel->source;
  }
}

class TileMatMulTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

// M on both sides of the tile threshold and with every row remainder, K
// below, at and across the 256-deep k block, N with a 4-column tail panel.
TEST_F(TileMatMulTest, MatchesInterpreterAcrossTileRemainders) {
  std::uint64_t seed = 60;
  for (std::int64_t m : {1, 4, 7, 8, 9, 33}) {
    for (std::int64_t k : {64, 256, 300, 3072}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k));
      const Graph g = BuildMatMulGraph(m, /*n=*/20, k, false, false);
      const ScheduledProgram program = SinglePassProgram(g);
      ExpectTilePath(program, m >= 8);
      ExpectProgramMatchesInterpreter(program, g, seed++, SharedExecutor());
    }
  }
  EXPECT_EQ(SharedExecutor().stats().fallbacks, 0);
}

TEST_F(TileMatMulTest, MatchesInterpreterForEveryTranspose) {
  std::uint64_t seed = 90;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      SCOPED_TRACE(std::string("ta=") + (ta ? "1" : "0") + " tb=" + (tb ? "1" : "0"));
      const Graph g = BuildMatMulGraph(/*m=*/9, /*n=*/20, /*k=*/300, ta, tb);
      const ScheduledProgram program = SinglePassProgram(g);
      ExpectTilePath(program, true);
      ExpectProgramMatchesInterpreter(program, g, seed++, SharedExecutor());
    }
  }
}

TEST_F(TileMatMulTest, MatchesInterpreterWithBroadcastBatch) {
  const std::vector<std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>>> batches = {
      {{3}, {}}, {{2, 1}, {3}}};
  std::uint64_t seed = 95;
  for (const auto& [a_batch, b_batch] : batches) {
    const Graph g = BuildMatMulGraph(/*m=*/12, /*n=*/20, /*k=*/40, false, true, a_batch, b_batch);
    SCOPED_TRACE(g.ToString());
    const ScheduledProgram program = SinglePassProgram(g);
    ExpectTilePath(program, true);
    ExpectProgramMatchesInterpreter(program, g, seed++, SharedExecutor());
  }
}

// Temporally sliced MHA: probs x V is a running sum over the key dim, so
// each intra-block's tile writes its partial product into loc_o.
TEST_F(TileMatMulTest, TemporalMhaAccumulatesTileIntoRunningSum) {
  const Graph g = BuildMha(/*batch_heads=*/2, /*seq_q=*/16, /*seq_kv=*/64, /*head_dim=*/8);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ScheduledProgram program = compiled->program;
  SmgSchedule& kernel = program.kernels[0];
  ASSERT_TRUE(kernel.has_temporal);
  ScheduleConfig config;
  for (const DimSlice& slice : kernel.spatial) {
    config.spatial_blocks.push_back(slice.block);
  }
  config.temporal_step = 16;
  config.use_temporal = true;
  kernel.ApplyConfig(config);
  ASSERT_GT(kernel.NumIntraBlocks(), 1);

  StatusOr<CppKernel> emitted = EmitCppKernel(kernel);
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  EXPECT_NE(emitted->source.find("sf_matmul<"), std::string::npos);
  EXPECT_NE(emitted->source.find("&loc_o"), std::string::npos) << emitted->source;
  ExpectProgramMatchesInterpreter(program, g, /*seed=*/97, SharedExecutor());
}

// Built with the JIT's own flags, the host compiler reports the tile's k
// loop body (the per-row loop over the 16 accumulator columns, which it
// unrolls and vectorizes) vectorized.
TEST_F(TileMatMulTest, TileInnerLoopIsReportedVectorized) {
#if defined(__clang__)
  GTEST_SKIP() << "-fopt-info-vec-optimized is a GCC report";
#endif
  const ScheduledProgram program = SinglePassProgram(BuildMatMulGraph(32, 48, 64, false, false));
  StatusOr<CppKernel> kernel = EmitCppKernel(program.kernels[0]);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  const std::string& src = kernel->source;
  auto line_of = [&src](const std::string& text) {
    const size_t at = src.find(text);
    EXPECT_NE(at, std::string::npos) << text << " not in\n" << src;
    return 1 + std::count(src.begin(), src.begin() + static_cast<long>(std::min(at, src.size())),
                          '\n');
  };
  const long first = line_of("for (int64_t kk = 0; kk < KN; ++kk)");
  const long last = line_of("acc[r][j] += av * bp[kk * 16 + j];");

  const std::string dir = UniqueTestDir("vec-report");
  ASSERT_TRUE(AtomicWriteFile(dir + "/tile.cc", src).ok());
  const char* env = std::getenv("SPACEFUSION_CXX");
  const std::string compiler = (env != nullptr && env[0] != '\0') ? env : "c++";
  const std::string cmd = compiler + " " + JitCacheOptions().flags +
                          " -fopt-info-vec-optimized -o \"" + dir + "/tile.so\" \"" + dir +
                          "/tile.cc\" 2> \"" + dir + "/report.txt\"";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  StatusOr<std::string> report = ReadFileToString(dir + "/report.txt");
  ASSERT_TRUE(report.ok());
  bool vectorized = false;
  std::istringstream lines(report.value());
  for (std::string l; std::getline(lines, l);) {
    for (long line = first; line <= last; ++line) {
      vectorized = vectorized || (l.find("tile.cc:" + std::to_string(line) + ":") !=
                                      std::string::npos &&
                                  l.find("vectorized") != std::string::npos);
    }
  }
  EXPECT_TRUE(vectorized) << "no line in " << first << "-" << last << " reported vectorized:\n"
                          << report.value();
}

class JitCacheTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }

  // Emits the single-kernel program for a small graph.
  CppKernel EmitOneKernel(const Graph& g) {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_FALSE(compiled->program.kernels.empty());
    StatusOr<CppKernel> kernel = EmitCppKernel(compiled->program.kernels[0]);
    EXPECT_TRUE(kernel.ok()) << kernel.status().ToString();
    return kernel.value();
  }
};

// Acceptance criterion: a second process pointed at the same cache dir
// performs ZERO toolchain invocations.
TEST_F(JitCacheTest, WarmStartFromDiskSkipsToolchain) {
  const std::string dir = UniqueTestDir("warm");
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));

  JitCacheOptions cold_options;
  cold_options.dir = dir;
  {
    JitKernelCache cold(cold_options);
    StatusOr<JitKernelCache::Kernel> built = cold.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_TRUE(built->built);
    EXPECT_EQ(cold.stats().toolchain_invocations, 1);
    // Second lookup in the same process: in-memory hit, still one build.
    ASSERT_TRUE(cold.GetOrBuild(kernel).ok());
    EXPECT_EQ(cold.stats().memory_hits, 1);
    EXPECT_EQ(cold.stats().toolchain_invocations, 1);
  }

  // "Restarted" cache on the same directory: served from disk, no build.
  JitKernelCache warm(cold_options);
  StatusOr<JitKernelCache::Kernel> loaded = warm.GetOrBuild(kernel);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->from_disk);
  EXPECT_FALSE(loaded->built);
  EXPECT_EQ(warm.stats().toolchain_invocations, 0);
  EXPECT_EQ(warm.stats().disk_hits, 1);
}

TEST_F(JitCacheTest, CorruptEntryIsEvictedAndRebuilt) {
  const std::string dir = UniqueTestDir("corrupt");
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));

  JitCacheOptions options;
  options.dir = dir;
  std::string so_path;
  {
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok());
    so_path = dir + "/";
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(built->key));
    so_path += std::string(hex) + ".sfk.so";
  }
  // Truncate the .so into garbage.
  {
    std::ofstream f(so_path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(f.good());
    f << "not an ELF object";
  }

  JitKernelCache cache(options);
  StatusOr<JitKernelCache::Kernel> rebuilt = cache.GetOrBuild(kernel);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->built);
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_EQ(cache.stats().builds, 1);
}

// A valid shared object that lacks the expected symbol (e.g. written by a
// different emitter version at the same path) is corrupt, not a crash.
TEST_F(JitCacheTest, StaleSymbolIsCorrupt) {
  const std::string dir = UniqueTestDir("stale");
  CppKernel a = EmitOneKernel(BuildLayerNormGraph(8, 16));
  CppKernel b = EmitOneKernel(BuildLayerNormGraph(12, 16));
  ASSERT_NE(a.key, b.key);

  JitCacheOptions options;
  options.dir = dir;
  auto entry_so = [&](std::uint64_t entry_key) {
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(entry_key));
    return dir + "/" + std::string(hex) + ".sfk.so";
  };

  std::uint64_t a_entry = 0;
  {
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(a);
    ASSERT_TRUE(built.ok());
    a_entry = built->key;
  }
  // Probe b's entry key without building: compilation disabled.
  std::uint64_t b_entry = 0;
  {
    JitCacheOptions probe = options;
    probe.allow_compile = false;
    JitKernelCache cache(probe);
    StatusOr<JitKernelCache::Kernel> missing = cache.GetOrBuild(b);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  }
  // Plant kernel a's perfectly valid .so at kernel b's path.
  {
    StatusOr<std::string> blob = ReadFileToString(entry_so(a_entry));
    ASSERT_TRUE(blob.ok());
    // Discover b's entry path by planting at every possible location is
    // overkill — rebuild b once to learn it, then overwrite.
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(b);
    ASSERT_TRUE(built.ok());
    b_entry = built->key;
    ASSERT_TRUE(AtomicWriteFile(entry_so(b_entry), blob.value()).ok());
  }

  JitKernelCache cache(options);
  StatusOr<JitKernelCache::Kernel> rebuilt = cache.GetOrBuild(b);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(rebuilt->built);
  EXPECT_EQ(cache.stats().corrupt, 1);
}

// allow_compile=false + corrupt entry: the cache reports NotFound (after
// evicting), and an executor on top of it falls back to the interpreter
// with correct outputs — the "never crash" contract.
TEST_F(JitCacheTest, CorruptEntryWithCompileDisabledFallsBack) {
  const std::string dir = UniqueTestDir("corrupt-nocompile");
  Graph g = BuildLayerNormGraph(8, 16);
  CppKernel kernel = EmitOneKernel(g);

  JitCacheOptions options;
  options.dir = dir;
  std::uint64_t entry_key = 0;
  {
    JitKernelCache cache(options);
    StatusOr<JitKernelCache::Kernel> built = cache.GetOrBuild(kernel);
    ASSERT_TRUE(built.ok());
    entry_key = built->key;
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(entry_key));
  const std::string so_path = dir + "/" + std::string(hex) + ".sfk.so";
  {
    std::ofstream f(so_path, std::ios::trunc | std::ios::binary);
    f << "garbage";
  }

  JitExecutorOptions exec_options;
  exec_options.cache.dir = dir;
  exec_options.cache.allow_compile = false;
  JitExecutor executor(exec_options);
  ExpectJitMatchesInterpreter(g, /*seed=*/31, executor, /*tolerance=*/0.0f);
  EXPECT_GT(executor.stats().fallbacks, 0);
  EXPECT_EQ(executor.cache().stats().corrupt, 1);
  EXPECT_EQ(executor.cache().stats().toolchain_invocations, 0);
}

// The kernel key hashes code, not comments: the q, k and v projections
// differ only in the names their comments carry, so they share one key and
// the toolchain runs once for all three.
TEST_F(JitCacheTest, KernelsDifferingOnlyInCommentsShareOneBuild) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildQkvProj(32, 768, 768));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->program.kernels.size(), 3u);
  std::vector<CppKernel> kernels;
  for (const SmgSchedule& schedule : compiled->program.kernels) {
    StatusOr<CppKernel> kernel = EmitCppKernel(schedule);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    kernels.push_back(kernel.value());
  }
  EXPECT_NE(kernels[0].source, kernels[1].source);
  for (const CppKernel& kernel : kernels) {
    EXPECT_EQ(kernel.key, kernels[0].key);
  }

  JitCacheOptions options;
  options.dir = UniqueTestDir("shared-code");
  JitKernelCache cache(options);
  for (const CppKernel& kernel : kernels) {
    ASSERT_TRUE(cache.GetOrBuild(kernel).ok());
  }
  EXPECT_EQ(cache.stats().toolchain_invocations, 1);
  EXPECT_EQ(cache.stats().memory_hits, 2);
}

TEST_F(JitCacheTest, MissingEntryWithCompileDisabledIsNotFound) {
  JitCacheOptions options;
  options.dir = UniqueTestDir("nocompile");
  options.allow_compile = false;
  JitKernelCache cache(options);
  CppKernel kernel = EmitOneKernel(BuildLayerNormGraph(8, 16));
  StatusOr<JitKernelCache::Kernel> missing = cache.GetOrBuild(kernel);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().toolchain_invocations, 0);
}

class CppCodegenTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

TEST_F(CppCodegenTest, EmissionIsDeterministic) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildMha(2, 32, 32, 16));
  ASSERT_TRUE(compiled.ok());
  StatusOr<std::string> first = EmitCppProgram(compiled->program);
  StatusOr<std::string> second = EmitCppProgram(compiled->program);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());
}

TEST_F(CppCodegenTest, BakesShapesAsConstants) {
  Graph g = BuildMha(2, 32, 32, 16);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok());
  StatusOr<CppKernel> kernel = EmitCppKernel(compiled->program.kernels[0]);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  // The ABI is fixed and the symbol carries the content hash.
  EXPECT_NE(kernel->source.find("extern \"C\" int " + kernel->symbol), std::string::npos);
  EXPECT_EQ(kernel->symbol.rfind("sf_k_", 0), 0u);
  EXPECT_EQ(kernel->symbol.size(), 5u + 16u);
  // No runtime shape parameters: extents live in the source as literals.
  EXPECT_EQ(kernel->source.find("shape"), std::string::npos);
  EXPECT_FALSE(kernel->input_ids.empty());
  EXPECT_FALSE(kernel->output_ids.empty());
}

TEST_F(CppCodegenTest, OptionsChangeTheKey) {
  StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildLayerNormGraph(8, 16));
  ASSERT_TRUE(compiled.ok());
  CppCodegenOptions plain;
  CppCodegenOptions reference;
  reference.reference_mode = true;
  StatusOr<CppKernel> a = EmitCppKernel(compiled->program.kernels[0], plain);
  StatusOr<CppKernel> b = EmitCppKernel(compiled->program.kernels[0], reference);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->key, b->key);
  EXPECT_NE(CppCodegenOptionsDigest(plain), CppCodegenOptionsDigest(reference));
}

// The code a kernel runs: its emitted source without comment lines, and
// with the symbol (a hash of that code) replaced by a placeholder.
std::string CodeOf(const CppKernel& kernel) {
  std::string code;
  std::istringstream lines(kernel.source);
  for (std::string line; std::getline(lines, line);) {
    const size_t first = line.find_first_not_of(' ');
    if (first != std::string::npos && line.compare(first, 2, "//") == 0) {
      continue;
    }
    const size_t sym = line.find(kernel.symbol);
    if (sym != std::string::npos) {
      line.replace(sym, kernel.symbol.size(), "@SYM@");
    }
    code += line + "\n";
  }
  return code;
}

// The binding memo is sound only if the key covers everything the emitter
// reads: over every kernel of the zoo models, the random-graph corpus and
// one schedule under two block-size configs, equal CppKernelBindingKey <=>
// equal emitted code.
TEST_F(CppCodegenTest, BindingKeyCoversEveryEmitterInput) {
  std::vector<SmgSchedule> schedules;
  auto add_program = [&](const Graph& g) {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
    ASSERT_TRUE(compiled.ok()) << g.name() << ": " << compiled.status().ToString();
    for (const SmgSchedule& kernel : compiled->program.kernels) {
      schedules.push_back(kernel);
    }
  };
  for (ModelKind kind : AllModelKinds()) {
    ModelGraph model = BuildModel(GetModelConfig(kind, /*batch=*/1, /*seq=*/32));
    std::set<std::uint64_t> seen;
    for (const Subprogram& sub : model.subprograms) {
      if (seen.insert(sub.graph.StructuralHash()).second) {
        add_program(sub.graph);
      }
    }
  }
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    add_program(RandomGraph(seed * 7919 + 3));
  }
  // One temporally sliced schedule under two temporal steps, spatial blocks
  // unchanged: both slice the dim into several intra-blocks, so the code
  // differs and so must the key.
  {
    StatusOr<CompiledSubprogram> compiled = CompileGraph(BuildMha(2, 16, 64, 8));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const SmgSchedule& tuned = compiled->program.kernels[0];
    ASSERT_TRUE(tuned.has_temporal);
    for (std::int64_t step : {16, 32}) {
      SmgSchedule configured = tuned;
      ScheduleConfig config;
      for (const DimSlice& slice : configured.spatial) {
        config.spatial_blocks.push_back(slice.block);
      }
      config.temporal_step = step;
      config.use_temporal = true;
      configured.ApplyConfig(config);
      ASSERT_GT(configured.NumIntraBlocks(), 1);
      schedules.push_back(configured);
    }
  }

  std::map<std::uint64_t, std::string> code_of_key;
  std::map<std::string, std::uint64_t> key_of_code;
  for (const SmgSchedule& schedule : schedules) {
    StatusOr<CppKernel> kernel = EmitCppKernel(schedule);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    const std::uint64_t key = CppKernelBindingKey(schedule);
    const std::string code = CodeOf(kernel.value());
    auto [by_key, new_key] = code_of_key.emplace(key, code);
    EXPECT_TRUE(new_key || by_key->second == code)
        << "equal binding keys, different code: " << schedule.ToString();
    auto [by_code, new_code] = key_of_code.emplace(code, key);
    EXPECT_TRUE(new_code || by_code->second == key)
        << "equal code, different binding keys: " << schedule.ToString();
  }
  EXPECT_GT(code_of_key.size(), schedules.size() / 2);

  // Names reach the source only as comments: a renamed copy keys equal.
  const SmgSchedule& original = schedules.front();
  Graph renamed("renamed_" + original.graph.name());
  for (TensorInfo t : original.graph.tensors()) {
    t.name = "renamed_" + t.name;
    renamed.AddTensor(t);
  }
  for (Op op : original.graph.ops()) {
    op.name = "renamed_" + op.name;
    renamed.AddOp(op);
  }
  SmgSchedule copy = original;
  copy.graph = renamed;
  EXPECT_EQ(CppKernelBindingKey(copy), CppKernelBindingKey(original));
  StatusOr<CppKernel> renamed_kernel = EmitCppKernel(copy);
  StatusOr<CppKernel> original_kernel = EmitCppKernel(original);
  ASSERT_TRUE(renamed_kernel.ok() && original_kernel.ok());
  EXPECT_NE(renamed_kernel->source, original_kernel->source);
  EXPECT_EQ(CodeOf(renamed_kernel.value()), CodeOf(original_kernel.value()));

  // Every emission-affecting option changes the key.
  CppCodegenOptions reference;
  reference.reference_mode = true;
  CppCodegenOptions unfused;
  unfused.fuse_elementwise = false;
  EXPECT_NE(CppKernelBindingKey(original, reference), CppKernelBindingKey(original));
  EXPECT_NE(CppKernelBindingKey(original, unfused), CppKernelBindingKey(original));
}

// reference_mode disables temporal slicing and fused elementwise chains;
// its output must still match the interpreter (it IS the unfused op
// stream), which anchors the fused-vs-unfused wall-clock benchmark.
TEST_F(CppCodegenTest, ReferenceModeMatchesInterpreter) {
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("refmode");
  options.codegen.reference_mode = true;
  options.codegen.fuse_elementwise = false;
  JitExecutor executor(options);
  Graph g = BuildMha(2, 16, 16, 8);
  ExpectJitMatchesInterpreter(g, /*seed=*/41, executor, /*tolerance=*/1e-4f);
  EXPECT_GT(executor.stats().jit_runs, 0);
  EXPECT_EQ(executor.stats().fallbacks, 0);
}

// The program walker both backends share rejects a malformed input env with
// InvalidArgument naming the offending tensor, before any kernel runs — so
// the JIT never miscounts a bad env as a kernel fallback. Param: true runs
// JitExecutor::RunProgram, false RunScheduledProgram.
class ProgramWalkerTest : public ::testing::TestWithParam<bool> {
 protected:
  void TearDown() override { ResetGlobalThreadPool(); }
};

TEST_P(ProgramWalkerTest, MalformedInputEnvIsInvalidArgument) {
  const Graph g = BuildLayerNormGraph(/*m=*/8, /*n=*/16);
  StatusOr<CompiledSubprogram> compiled = CompileGraph(g);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  JitExecutorOptions options;
  options.cache.dir = UniqueTestDir("walker");
  JitExecutor jit(options);
  auto run = [&](const TensorEnv& inputs) {
    TensorEnv outputs;
    return GetParam() ? jit.RunProgram(compiled->program, g, inputs, &outputs)
                      : RunScheduledProgram(compiled->program, g, inputs, &outputs);
  };

  const TensorEnv good = MakeGraphInputs(g, /*seed=*/51);
  const TensorInfo& x = g.tensor(g.InputIds()[0]);
  const TensorInfo& gamma = g.tensor(g.WeightIds()[0]);
  TensorEnv short_env(good.begin(), good.end() - 1);
  TensorEnv undefined_weight = good;
  undefined_weight[static_cast<size_t>(gamma.id)] = Tensor();
  TensorEnv misshaped_input = good;
  misshaped_input[static_cast<size_t>(x.id)] = Tensor::Zeros(Shape({8, 17}), x.dtype);

  const struct {
    const TensorEnv& env;
    const std::string& name;
  } cases[] = {{short_env, g.name()}, {undefined_weight, gamma.name}, {misshaped_input, x.name}};
  for (const auto& c : cases) {
    const Status st = run(c.env);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(c.name), std::string::npos) << st.ToString();
  }
  EXPECT_EQ(jit.stats().fallbacks, 0);
  EXPECT_EQ(jit.stats().jit_runs, 0);
  EXPECT_TRUE(run(good).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, ProgramWalkerTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Jit" : "Interpreter";
                         });

// ---------------------------------------------------------------------------
// Engine prewarm: with prewarm_jit + a cache_dir, a cold engine builds every
// kernel .so at compile time and a second engine on the same directory
// serves both the program and the kernels from disk — zero toolchain
// invocations on the warm restart (the property the CI serve step asserts
// daemon-wide through sf-serve --jit).

class CapturingReportSink : public ReportSink {
 public:
  void Emit(const CompileReport& report) override { reports.push_back(report); }
  std::vector<CompileReport> reports;
};

TEST(JitPrewarmTest, WarmEngineRestartInvokesNoToolchain) {
  const std::string dir = UniqueTestDir("prewarm");
  Graph g = BuildMha(4, 64, 64, 32);

  EngineOptions options{CompileOptions(AmpereA100())};
  options.cache_dir = dir;
  options.prewarm_jit = true;

  CapturingReportSink cold_sink;
  {
    EngineOptions cold_options = options;
    cold_options.report_sink = &cold_sink;
    CompilerEngine engine{cold_options};
    ASSERT_NE(engine.jit_cache(), nullptr);
    ASSERT_TRUE(engine.Compile(g).ok());
    EXPECT_GT(engine.jit_cache()->stats().builds, 0);
  }
  ASSERT_EQ(cold_sink.reports.size(), 1u);
  EXPECT_EQ(cold_sink.reports[0].outcome, "cold");
  EXPECT_GT(cold_sink.reports[0].jit_kernels_built, 0);
  EXPECT_GT(cold_sink.reports[0].jit_build_ms, 0.0);

  CapturingReportSink warm_sink;
  {
    EngineOptions warm_options = options;
    warm_options.report_sink = &warm_sink;
    CompilerEngine engine{warm_options};
    ASSERT_NE(engine.jit_cache(), nullptr);
    ASSERT_TRUE(engine.Compile(g).ok());
    const JitKernelCache::Stats stats = engine.jit_cache()->stats();
    EXPECT_EQ(stats.toolchain_invocations, 0);
    EXPECT_EQ(stats.builds, 0);
    EXPECT_GT(stats.disk_hits, 0);
  }
  ASSERT_EQ(warm_sink.reports.size(), 1u);
  EXPECT_EQ(warm_sink.reports[0].outcome, "persistent_hit");
  EXPECT_EQ(warm_sink.reports[0].jit_kernels_built, 0);
  EXPECT_GT(warm_sink.reports[0].jit_kernels_cached, 0);
}

}  // namespace
}  // namespace spacefusion
